// Compiled-plan benchmarks: planned (plan-cache hit) vs cached-interpreter
// vs uncached-interpreter estimation on XMark. Run with:
//
//	go test -bench=BenchmarkPlan -benchmem
//
// TestEmitBenchPR6 (gated by EMIT_BENCH=1) measures the three variants and
// writes BENCH_PR6.json, the perf-trajectory data point for the plan-cache
// work; TestBenchPR6NoRegression compares it against the BENCH_PR5.json
// baseline and refuses regressions.
package xsketch_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"xsketch"
)

// newPlanBench builds the XMark sketch the plan benchmarks share, reusing
// the tracing-bench fixture (same dataset, scale and query as
// BENCH_PR5.json so the files are comparable).
func newPlanBench(tb testing.TB) (*xsketch.Sketch, *xsketch.Query) {
	return newTracingBench(tb)
}

// BenchmarkPlanUncached is the interpreter on a cold estimator memo (a
// fresh clone per estimate) — the same baseline BENCH_PR5.json calls
// "untraced".
func BenchmarkPlanUncached(b *testing.B) {
	sk, q := newTracingBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold(b, sk).EstimateQuery(q)
	}
}

// BenchmarkPlanCachedInterpreter is the interpreter with a warm estimator
// cache — the BENCH_PR5.json "cached" variant.
func BenchmarkPlanCachedInterpreter(b *testing.B) {
	sk, q := newPlanBench(b)
	sk.EstimateQuery(q) // warm the estimator cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.EstimateQuery(q)
	}
}

// BenchmarkPlanPlanned executes a cached compiled plan: histogram lookups
// and float arithmetic into pooled scratch, zero allocations per op.
func BenchmarkPlanPlanned(b *testing.B) {
	sk, q := newPlanBench(b)
	text := q.String()
	ctx := context.Background()
	estimate := func() {
		p, err := sk.PlanQueryText(text)
		if err == nil {
			_, err = sk.EstimatePlanContext(ctx, p)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	estimate() // compile + warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimate()
	}
}

// TestEmitBenchPR6 writes BENCH_PR6.json when EMIT_BENCH=1, mirroring the
// BENCH_PR5.json shape so the regression gate can compare like for like.
func TestEmitBenchPR6(t *testing.T) {
	if os.Getenv("EMIT_BENCH") == "" {
		t.Skip("set EMIT_BENCH=1 to write BENCH_PR6.json")
	}
	report := benchReport{PR: 6, Dataset: "xmark", Scale: 0.02, Query: benchTracingQuery}
	for _, v := range []struct {
		name  string
		bench func(*testing.B)
	}{
		{"uncached", BenchmarkPlanUncached},
		{"cached", BenchmarkPlanCachedInterpreter},
		{"planned", BenchmarkPlanPlanned},
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
	if err := os.WriteFile("BENCH_PR6.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_PR6.json:\n%s", out)
}

// loadBenchReport reads one BENCH_PRn.json file into rows keyed by variant
// name.
func loadBenchReport(t *testing.T, path string) (benchReport, map[string]benchRow) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("%s not present (regenerate with EMIT_BENCH=1): %v", path, err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rows := make(map[string]benchRow, len(rep.Results))
	for _, r := range rep.Results {
		rows[r.Name] = r
	}
	return rep, rows
}

// TestBenchPR6NoRegression is the benchmark smoke gate: the checked-in
// BENCH_PR6.json must show (a) the uncached interpreter within 10% of the
// BENCH_PR5.json uncached baseline — the planner must not tax the
// interpreted path — (b) the planned hot path beating the interpreter's
// cached variant, and (c) zero allocations per planned op.
func TestBenchPR6NoRegression(t *testing.T) {
	_, pr5 := loadBenchReport(t, "BENCH_PR5.json")
	_, pr6 := loadBenchReport(t, "BENCH_PR6.json")

	base, ok := pr5["untraced"]
	if !ok {
		t.Fatal("BENCH_PR5.json has no untraced row")
	}
	cachedBase, ok := pr5["cached"]
	if !ok {
		t.Fatal("BENCH_PR5.json has no cached row")
	}
	uncached, ok := pr6["uncached"]
	if !ok {
		t.Fatal("BENCH_PR6.json has no uncached row")
	}
	planned, ok := pr6["planned"]
	if !ok {
		t.Fatal("BENCH_PR6.json has no planned row")
	}

	if uncached.NsPerOp > base.NsPerOp*1.10 {
		t.Errorf("uncached interpreter regressed: %.0f ns/op vs PR5 baseline %.0f (>10%%)",
			uncached.NsPerOp, base.NsPerOp)
	}
	if planned.NsPerOp >= cachedBase.NsPerOp {
		t.Errorf("planned path %.0f ns/op does not beat the PR5 cached interpreter %.0f",
			planned.NsPerOp, cachedBase.NsPerOp)
	}
	if planned.AllocsPerOp != 0 {
		t.Errorf("planned path allocates %d/op, want 0", planned.AllocsPerOp)
	}
}

// newPlanCompileBench builds the plan-miss fixture: an XBUILD sketch of
// XMark at scale 0.1 and budget 51200 with its plan cache disabled, so
// every PlanQuery compiles, plus a fixed P+V workload over the same
// document (seed 1), the query mix of servebench's batch-wide workload.
// The estimator memo stays on, as in serving.
func newPlanCompileBench(tb testing.TB) (*xsketch.Sketch, []*xsketch.Query) {
	tb.Helper()
	doc, err := xsketch.GenerateDataset("xmark", 1, 0.1)
	if err != nil {
		tb.Fatalf("GenerateDataset: %v", err)
	}
	opts := xsketch.DefaultBuildOptions(51200)
	opts.Sketch.PlanCacheSize = -1
	sk := xsketch.BuildWithOptions(doc, opts)
	cfg := xsketch.DefaultWorkloadConfig(xsketch.WorkloadPV)
	cfg.NumQueries = 200
	var qs []*xsketch.Query
	for _, wq := range xsketch.GenerateWorkload(doc, cfg).Queries {
		qs = append(qs, wq.Twig)
	}
	for _, q := range qs {
		sk.PlanQuery(q) // warm the estimator memo
	}
	return sk, qs
}

// BenchmarkPlanCompile measures a plan miss: canonical rendering,
// embedding enumeration and compilation of one query, cycling through the
// fixed P+V set. One op is one compile.
func BenchmarkPlanCompile(b *testing.B) {
	sk, qs := newPlanCompileBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPlanSink = sk.PlanQuery(qs[i%len(qs)])
	}
}

var benchPlanSink *xsketch.Plan

// planCompileAllocsCeiling bounds the mean allocations of one plan miss
// over the BenchmarkPlanCompile query set. The flat program layout
// measures 5.00 with Go 1.24, and 5.8 under -race, whose sync.Pool drops
// puts at random (7.00 with per-node slices and a tag table, 42.45 before
// the embedding trees moved into pooled scratch, 129.78 with fmt
// renderings); the ceiling is the measurement plus one and fails any
// return of throwaway embedding trees, per-node lists or maps.
const planCompileAllocsCeiling = 6

// TestPlanCompileAllocs is the allocation gate on plan misses: the mean
// allocation count of a cache-disabled PlanQuery over the fixed P+V set
// must stay under planCompileAllocsCeiling.
func TestPlanCompileAllocs(t *testing.T) {
	sk, qs := newPlanCompileBench(t)
	allocs := testing.AllocsPerRun(5, func() {
		for _, q := range qs {
			benchPlanSink = sk.PlanQuery(q)
		}
	}) / float64(len(qs))
	t.Logf("%.2f allocations per plan compile", allocs)
	if allocs > planCompileAllocsCeiling {
		t.Errorf("plan compile makes %.2f allocations, ceiling %d", allocs, planCompileAllocsCeiling)
	}
}
