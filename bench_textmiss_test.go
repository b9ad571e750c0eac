// Text-path plan-miss benchmark and allocation gate: Sketch.PlanQueryText
// with the plan cache disabled, over the distinct canonical texts that
// servebench's batch-wide workload serves. Run with:
//
//	go test -run '^$' -bench BenchmarkPlanQueryTextMiss -benchmem .
package xsketch_test

import (
	"runtime"
	"sync"
	"testing"

	"xsketch"
)

// textMissFixture is the shared plan-miss fixture: built once per test
// binary, since XBUILD on xmark 1.5 is the slow part.
var textMissFixture struct {
	once  sync.Once
	sk    *xsketch.Sketch
	texts []string
}

// newTextMissBench returns batch-wide's synopsis and query texts: XMark
// at scale 1.5 (seed 1), XBUILD at budget 51200 with the plan cache
// disabled so every PlanQueryText compiles, and the distinct canonical
// texts of a 2000-query P+V workload (seed 1). The estimator memo is warm,
// as in serving.
func newTextMissBench(tb testing.TB) (*xsketch.Sketch, []string) {
	tb.Helper()
	f := &textMissFixture
	f.once.Do(func() {
		doc, err := xsketch.GenerateDataset("xmark", 1, 1.5)
		if err != nil {
			tb.Fatalf("GenerateDataset: %v", err)
		}
		opts := xsketch.DefaultBuildOptions(51200)
		opts.Sketch.PlanCacheSize = -1
		sk := xsketch.BuildWithOptions(doc, opts)
		cfg := xsketch.DefaultWorkloadConfig(xsketch.WorkloadPV)
		cfg.NumQueries = 2000
		cfg.Seed = 1
		seen := make(map[string]bool)
		var texts []string
		for _, wq := range xsketch.GenerateWorkload(doc, cfg).Queries {
			if text := wq.Twig.String(); !seen[text] {
				seen[text] = true
				texts = append(texts, text)
			}
		}
		for _, text := range texts {
			if _, err := sk.PlanQueryText(text); err != nil {
				tb.Fatalf("PlanQueryText(%q): %v", text, err)
			}
		}
		f.sk, f.texts = sk, texts
	})
	if f.sk == nil {
		tb.Fatal("text-miss fixture failed to build")
	}
	return f.sk, f.texts
}

// BenchmarkPlanQueryTextMiss measures one text-path plan miss: parse,
// canonical key, embedding enumeration and compilation, cycling through
// batch-wide's distinct texts. One op is one PlanQueryText call.
func BenchmarkPlanQueryTextMiss(b *testing.B) {
	sk, texts := newTextMissBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sk.PlanQueryText(texts[i%len(texts)])
		if err != nil {
			b.Fatal(err)
		}
		benchPlanSink = p
	}
}

// planQueryTextMissAllocsCeiling bounds the mean allocations of one text
// plan miss over the BenchmarkPlanQueryTextMiss texts. The flat program
// layout measures 11.06 with Go 1.24 (13.00 with per-node slices and a
// tag table; the two-pass parse and throwaway embedding trees before
// that made 76). Under -race, whose sync.Pool drops puts at random, it
// measures 12.29; the ceiling is that plus a little under one.
const planQueryTextMissAllocsCeiling = 13

// TestPlanQueryTextMissAllocs is the allocation gate on text plan misses:
// the mean allocation count of a cache-disabled PlanQueryText over
// batch-wide's texts must stay under planQueryTextMissAllocsCeiling.
func TestPlanQueryTextMissAllocs(t *testing.T) {
	sk, texts := newTextMissBench(t)
	allocs := testing.AllocsPerRun(2, func() {
		for _, text := range texts {
			p, err := sk.PlanQueryText(text)
			if err != nil {
				t.Fatal(err)
			}
			benchPlanSink = p
		}
	}) / float64(len(texts))
	t.Logf("%.2f allocations per text plan miss", allocs)
	if allocs > planQueryTextMissAllocsCeiling {
		t.Errorf("text plan miss makes %.2f allocations, ceiling %d", allocs, planQueryTextMissAllocsCeiling)
	}
}

// planQueryTextMissBytesCeiling bounds the mean bytes allocated by one
// text plan miss over the BenchmarkPlanQueryTextMiss texts. The flat
// program layout measures 1663 B with Go 1.24 (3352 B with per-node
// slices in 224-byte nodes and a tag table); the ceiling is about 10%
// above that.
const planQueryTextMissBytesCeiling = 1830

// TestPlanQueryTextMissBytes is the byte gate on text plan misses: the
// mean bytes a cache-disabled PlanQueryText allocates over batch-wide's
// texts, read from the runtime's cumulative allocation counter, must stay
// under planQueryTextMissBytesCeiling. Under the race detector sync.Pool
// drops puts at random, and each dropped compile scratch would count as
// several kilobytes of miss, so the gate runs only without it.
func TestPlanQueryTextMissBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, inflating allocated bytes")
	}
	sk, texts := newTextMissBench(t)
	pass := func() {
		for _, text := range texts {
			p, err := sk.PlanQueryText(text)
			if err != nil {
				t.Fatal(err)
			}
			benchPlanSink = p
		}
	}
	pass() // warm the pools
	const passes = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(passes*len(texts))
	t.Logf("%.0f bytes per text plan miss", bytes)
	if bytes > planQueryTextMissBytesCeiling {
		t.Errorf("text plan miss allocates %.0f bytes, ceiling %d", bytes, planQueryTextMissBytesCeiling)
	}
}
