package main

import (
	"math"
	"net/http"
	"testing"
	"time"

	"xsketch/internal/plan"
	core "xsketch/internal/xsketch"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10},
	} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("nearestRank of no samples should be NaN")
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{999, 990, false},  // rank 990, 9 beyond
		{1000, 990, true},  // rank 990, 10 beyond
		{1010, 1000, true}, // rank 1000, 10 beyond
		{1, 1, false},
	} {
		got, ok := tailQuantile(seq(c.n), 0.99)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(1..%d, 0.99) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if _, ok := tailQuantile(nil, 0.99); ok {
		t.Error("tailQuantile of no samples reported ok")
	}
}

func TestBlockQuantile(t *testing.T) {
	// Three blocks of 1000 whose p99s are 990, 1990 and 2990; the tail of
	// 500 samples is dropped.
	xs := seq(3500)
	if v, blocks, ok := blockQuantile(xs, 1000, 0.99); !ok || blocks != 3 || v != 1990 {
		t.Errorf("p99 over blocks of 1000 = %v, %d blocks, %v; want 1990, 3, true", v, blocks, ok)
	}
	if v, blocks, ok := blockQuantile(xs, 100, 0.9); !ok || blocks != 35 || v != 1790 {
		t.Errorf("p90 over blocks of 100 = %v, %d blocks, %v; want 1790, 35, true", v, blocks, ok)
	}
	if _, _, ok := blockQuantile(xs, 100, 0.99); ok {
		t.Error("p99 of 100-sample blocks has 1 sample beyond it, yet was accepted")
	}
	if _, blocks, ok := blockQuantile(seq(999), 1000, 0.99); ok || blocks != 0 {
		t.Errorf("999 samples gave %d blocks of 1000", blocks)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4)
// on the values Python prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.5, 0.25, 1, 0.75, 2, 8, 1.5, 3, 0.1, 9}, [3]float64{0.4375, 1.25, 4.25}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		if !ok || got != c.want {
			t.Errorf("quartiles(%v) = %v, %v; want %v", c.xs, got, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(100, 30, 20, 5); got != 45 {
		t.Errorf("selfTime(100; 30, 20, 5) = %v, want 45", got)
	}
	if got := selfTime(10); got != 10 {
		t.Errorf("selfTime without children = %v, want 10", got)
	}
	if got := selfTime(10, 12); got != -2 {
		t.Errorf("selfTime(10; 12) = %v, want -2 (noise is kept, not clamped)", got)
	}
}

func TestPerEstimateAccounting(t *testing.T) {
	if got := perEstimateCPU(time.Second, 3*time.Second, 1000); got != 2000 {
		t.Errorf("perEstimateCPU = %v µs, want 2000", got)
	}
	if !math.IsNaN(perEstimateCPU(0, time.Second, 0)) {
		t.Error("perEstimateCPU with no estimates should be NaN")
	}
	kib, gc := perEstimateAlloc(allocStats{TotalAlloc: 1 << 20, NumGC: 3}, allocStats{TotalAlloc: 3 << 20, NumGC: 7}, 2048)
	if kib != 1 || gc != 4*1000.0/2048 {
		t.Errorf("perEstimateAlloc = %v KiB, %v GC/1k; want 1, %v", kib, gc, 4*1000.0/2048)
	}
	if cpuTime() <= 0 {
		t.Error("cpuTime read no CPU time for a running process")
	}
}

func TestPlanTallyAcrossSwaps(t *testing.T) {
	a, b := new(int), new(int)
	cur := map[any]plan.Stats{}
	tally := newPlanTally()
	tally.track(a, plan.Stats{Hits: 10, Misses: 2, Evictions: 1})
	// Generation a serves 5 hits and 1 miss more, then is swapped out for
	// b, which starts at zero and serves 7 hits and 1 miss.
	tally.retire(a, plan.Stats{Hits: 15, Misses: 3, Evictions: 1})
	tally.track(b, plan.Stats{})
	tally.retire(new(int), plan.Stats{Hits: 99}) // never tracked: ignored
	cur[b] = plan.Stats{Hits: 7, Misses: 1, Evictions: 2}
	got := tally.total(func(k any) plan.Stats { return cur[k] })
	want := plan.Stats{Hits: 12, Misses: 2, Evictions: 2}
	if got != want {
		t.Errorf("tally total = %+v, want %+v", got, want)
	}
	if r := hitRatio(got); r != 12.0/14 {
		t.Errorf("hitRatio = %v, want %v", r, 12.0/14)
	}
	if !math.IsNaN(hitRatio(plan.Stats{})) {
		t.Error("hitRatio with no lookups should be NaN")
	}
}

func TestRouterCounterDeltas(t *testing.T) {
	before := `# HELP xrouter_retry_total Proxy attempts re-sent.
# TYPE xrouter_retry_total counter
xrouter_retry_total 2
xrouter_retry_total_extra 50
xrouter_shard_requests_total{shard="http://a"} 100
xrouter_shard_requests_total{shard="http://b"} 40
`
	after := `xrouter_retry_total 5
xrouter_shard_requests_total{shard="http://a"} 160
xrouter_shard_requests_total{shard="http://b"} 120
`
	retries := seriesDelta(promSeries(before, "xrouter_retry_total"), promSeries(after, "xrouter_retry_total"))
	if got := sumValues(retries); got != 3 {
		t.Errorf("retry delta = %v, want 3", got)
	}
	shards := seriesDelta(promSeries(before, "xrouter_shard_requests_total"), promSeries(after, "xrouter_shard_requests_total"))
	if shards[`shard="http://a"`] != 60 || shards[`shard="http://b"`] != 80 {
		t.Errorf("shard deltas = %v", shards)
	}
	if got := maxShare(shards); got != 80.0/140 {
		t.Errorf("maxShare = %v, want %v", got, 80.0/140)
	}
	if !math.IsNaN(maxShare(map[string]float64{})) {
		t.Error("maxShare of nothing should be NaN")
	}
}

func TestVerify(t *testing.T) {
	r := &request{name: "s", texts: []string{"q"}, want: []uint64{math.Float64bits(2.5)}}
	if mismatch, err := verify(r, http.StatusOK, []byte(`{"estimate":2.5}`)); err != nil || mismatch {
		t.Errorf("matching answer: mismatch=%v err=%v", mismatch, err)
	}
	if mismatch, err := verify(r, http.StatusOK, []byte(`{"estimate":2.5000000000000004}`)); err == nil || !mismatch {
		t.Errorf("answer one ulp off: mismatch=%v err=%v", mismatch, err)
	}
	if mismatch, err := verify(r, http.StatusTooManyRequests, []byte(`{}`)); err == nil || mismatch {
		t.Errorf("429: mismatch=%v err=%v", mismatch, err)
	}
	b := &request{name: "s", texts: []string{"a", "b"}, want: []uint64{math.Float64bits(1), math.Float64bits(2)}}
	if _, err := verify(b, http.StatusOK, []byte(`{"results":[{"estimate":1}]}`)); err == nil {
		t.Error("short batch accepted")
	}
	if mismatch, err := verify(b, http.StatusOK, []byte(`{"results":[{"estimate":1},{"estimate":2}]}`)); err != nil || mismatch {
		t.Errorf("matching batch: mismatch=%v err=%v", mismatch, err)
	}

	var c checker
	c.record(nil, false)
	c.compare(b, []core.EstimateResult{{Estimate: 1}, {Estimate: 3}})
	if c.attempted.Load() != 2 || c.failed.Load() != 1 || c.mismatched.Load() != 1 || c.first == "" {
		t.Errorf("checker counts: attempted %d failed %d mismatched %d first %q",
			c.attempted.Load(), c.failed.Load(), c.mismatched.Load(), c.first)
	}
}

// TestCoprimeStrideCoversCycle walks a request cycle from each client's
// starting offset, samples every stride-th request, and checks that the
// samples visit every request of the cycle.
func TestCoprimeStrideCoversCycle(t *testing.T) {
	for _, c := range []struct{ every, cycle, want int }{
		{16, 16, 17}, {16, 32, 17}, {4, 30, 7}, {4, 29, 4}, {5, 1, 5}, {0, 8, 1},
	} {
		s := coprimeStride(c.every, c.cycle)
		if s != c.want {
			t.Errorf("coprimeStride(%d, %d) = %d, want %d", c.every, c.cycle, s, c.want)
		}
		for _, start := range []int{0, c.cycle / 2} {
			seen := make(map[int]bool)
			for seq := 0; seq < s*c.cycle; seq++ {
				if seq%s == 0 {
					seen[(start+seq)%c.cycle] = true
				}
			}
			if len(seen) != c.cycle {
				t.Errorf("stride %d over a cycle of %d from %d visits %d requests", s, c.cycle, start, len(seen))
			}
		}
	}
}
