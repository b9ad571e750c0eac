// Tracing-cost benchmarks: traced vs untraced vs cached estimation on
// XMark. Run with:
//
//	go test -bench=BenchmarkTracing -benchmem
//
// TestEmitBenchPR5 (gated by EMIT_BENCH=1) measures the three variants
// and writes BENCH_PR5.json, the repo's perf-trajectory data point for
// the tracing work.
package xsketch_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"xsketch"
)

// benchTracingQuery is a branching XMark twig exercising expansion,
// several embeddings and the full TREEPARSE recursion.
const benchTracingQuery = "for t0 in //item, t1 in t0/name, t2 in t0/incategory"

// newTracingBench builds the XMark sketch the tracing benchmarks share.
func newTracingBench(tb testing.TB) (*xsketch.Sketch, *xsketch.Query) {
	tb.Helper()
	doc, err := xsketch.GenerateDataset("xmark", 1, 0.02)
	if err != nil {
		tb.Fatalf("GenerateDataset: %v", err)
	}
	sk := xsketch.NewSketch(doc, xsketch.DefaultSketchConfig())
	q, err := xsketch.ParseQuery(benchTracingQuery)
	if err != nil {
		tb.Fatalf("ParseQuery: %v", err)
	}
	return sk, q
}

// cold returns a clone of sk with the benchmark timer stopped. A clone
// shares the synopsis and summaries but starts with an empty estimator
// memo, so an estimate on it pays full cost (otherwise every variant
// converges to memo-hit latency).
func cold(b *testing.B, sk *xsketch.Sketch) *xsketch.Sketch {
	b.StopTimer()
	defer b.StartTimer()
	return sk.Clone()
}

func BenchmarkTracingUntraced(b *testing.B) {
	sk, q := newTracingBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold(b, sk).EstimateQuery(q)
	}
}

func BenchmarkTracingTraced(b *testing.B) {
	sk, q := newTracingBench(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := xsketch.NewTraceRecorder(xsketch.TraceOptions{})
		if _, err := cold(b, sk).EstimateQueryTraced(ctx, q, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTracingCached(b *testing.B) {
	sk, q := newTracingBench(b)
	sk.EstimateQuery(q) // warm the estimator cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.EstimateQuery(q)
	}
}

// TestTracingDisabledOverheadWithinNoise pins the zero-overhead claim at
// the wall-clock level: with a nil recorder the traced entry point runs
// the same code path as EstimateQuery, so its best batch time must sit
// within noise of the untraced one. Allocation equality is asserted
// exactly in internal/xsketch; this guards against a future accidental
// slow path (per-call setup, locking) behind the traced entry point.
//
// The two sides are timed as interleaved pairs (untraced batch, then
// disabled batch) so a burst of host noise lands on both sides rather
// than on whichever side happened to be running, and each side keeps the
// minimum over all its batches. Every estimate runs on its own clone,
// made before the batch's clock starts, so each pays full estimation
// cost rather than memo-hit latency.
func TestTracingDisabledOverheadWithinNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	sk, q := newTracingBench(t)
	ctx := context.Background()
	const (
		iters = 60
		pairs = 25
	)

	clones := make([]*xsketch.Sketch, iters)
	timeBatch := func(f func(*xsketch.Sketch)) time.Duration {
		for i := range clones {
			clones[i] = sk.Clone()
		}
		start := time.Now()
		for _, c := range clones {
			f(c)
		}
		return time.Since(start)
	}

	// Warm up both paths once before timing.
	sk.Clone().EstimateQuery(q)
	sk.Clone().EstimateQueryTraced(ctx, q, nil)

	untraced := time.Duration(1<<63 - 1)
	disabled := untraced
	for p := 0; p < pairs; p++ {
		untraced = min(untraced, timeBatch(func(c *xsketch.Sketch) { c.EstimateQuery(q) }))
		disabled = min(disabled, timeBatch(func(c *xsketch.Sketch) { c.EstimateQueryTraced(ctx, q, nil) }))
	}
	// The minimum over 25 interleaved batches is stable enough that 1.5x
	// headroom means "within noise" rather than "within a constant factor".
	if disabled > untraced*3/2 {
		t.Errorf("tracing-disabled path took %v for %d estimates, untraced %v (> 1.5x)",
			disabled, iters, untraced)
	}
}

// benchRow is one variant's measurements inside BENCH_PR5.json.
type benchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the BENCH_PR5.json document.
type benchReport struct {
	PR      int        `json:"pr"`
	Dataset string     `json:"dataset"`
	Scale   float64    `json:"scale"`
	Query   string     `json:"query"`
	Results []benchRow `json:"results"`
}

// TestEmitBenchPR5 writes BENCH_PR5.json when EMIT_BENCH=1. It is a test
// rather than a benchmark so `go test -run TestEmitBenchPR5` can refresh
// the file without the full bench suite.
func TestEmitBenchPR5(t *testing.T) {
	if os.Getenv("EMIT_BENCH") == "" {
		t.Skip("set EMIT_BENCH=1 to write BENCH_PR5.json")
	}
	report := benchReport{PR: 5, Dataset: "xmark", Scale: 0.02, Query: benchTracingQuery}
	for _, v := range []struct {
		name  string
		bench func(*testing.B)
	}{
		{"untraced", BenchmarkTracingUntraced},
		{"traced", BenchmarkTracingTraced},
		{"cached", BenchmarkTracingCached},
	} {
		r := testing.Benchmark(v.bench)
		report.Results = append(report.Results, benchRow{
			Name:        v.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR5.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_PR5.json:\n%s", out)
}
