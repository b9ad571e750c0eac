package xsketch

import (
	"context"
	"math"
	"sync"
	"testing"

	"xsketch/internal/pathexpr"
	"xsketch/internal/twig"
	"xsketch/internal/workload"
	"xsketch/internal/xmlgen"
	"xsketch/internal/xmltree"
)

// xmarkQueries samples a mixed P+V workload over a small XMark document.
func xmarkQueries(n int) (*xmltree.Document, []*twig.Query) {
	d := xmlgen.XMark(xmlgen.Config{Seed: 1, Scale: 0.02})
	cfg := workload.DefaultConfig(workload.KindPV)
	cfg.NumQueries = n
	cfg.Seed = 3
	w := workload.Generate(d, cfg)
	qs := make([]*twig.Query, len(w.Queries))
	for i, q := range w.Queries {
		qs[i] = q.Twig
	}
	return d, qs
}

func TestEstimateBatchMatchesSequential(t *testing.T) {
	d, qs := xmarkQueries(50)
	for _, workers := range []int{2, 4, 8} {
		seq := New(d, DefaultConfig())
		par := New(d, DefaultConfig())
		batch := par.EstimateBatch(qs, workers)
		if len(batch) != len(qs) {
			t.Fatalf("batch returned %d results for %d queries", len(batch), len(qs))
		}
		for i, q := range qs {
			want := seq.EstimateQueryResult(q)
			got := batch[i]
			if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) {
				t.Errorf("workers=%d query %d: batch %v != sequential %v", workers, i, got.Estimate, want.Estimate)
			}
			if got.Truncated != want.Truncated {
				t.Errorf("workers=%d query %d: truncated %v != %v", workers, i, got.Truncated, want.Truncated)
			}
		}
	}
}

// TestRunBatch is the table test of the shared batch worker pool: the
// batch entry points, interpreted, planned and planned from text, return
// results in input
// order, Float64bits-identical to sequential estimation, for any worker
// count (0 = GOMAXPROCS, 1 = inline, and more workers than queries).
func TestRunBatch(t *testing.T) {
	d, qs := xmarkQueries(40)
	oracle := New(d, DefaultConfig())
	want := make([]EstimateResult, len(qs))
	for i, q := range qs {
		want[i] = oracle.EstimateQueryResult(q)
	}
	paths := map[string]func(sk *Sketch, workers int) ([]EstimateResult, error){
		"interpreted": func(sk *Sketch, workers int) ([]EstimateResult, error) {
			return sk.EstimateBatch(qs, workers), nil
		},
		"planned": func(sk *Sketch, workers int) ([]EstimateResult, error) {
			return sk.EstimateBatchPlannedContext(context.Background(), qs, workers)
		},
		"text": func(sk *Sketch, workers int) ([]EstimateResult, error) {
			texts := make([]string, len(qs))
			for i, q := range qs {
				texts[i] = q.String()
			}
			items, err := sk.EstimateBatchTextContext(context.Background(), texts, nil, workers)
			out := make([]EstimateResult, len(items))
			for i, it := range items {
				if it.Err != nil || it.Plan == nil {
					t.Fatalf("text item %d: plan %v, err %v", i, it.Plan, it.Err)
				}
				out[i] = it.Result
			}
			return out, err
		},
	}
	for name, run := range paths {
		for _, workers := range []int{0, 1, 4, len(qs) + 3} {
			got, err := run(New(d, DefaultConfig()), workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if len(got) != len(qs) {
				t.Fatalf("%s workers=%d: %d results for %d queries", name, workers, len(got), len(qs))
			}
			for i := range got {
				if math.Float64bits(got[i].Estimate) != math.Float64bits(want[i].Estimate) || got[i].Truncated != want[i].Truncated {
					t.Errorf("%s workers=%d query %d: %+v != sequential %+v", name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunBatchCancelled cancels the pool part-way through: the call
// reports context.Canceled, and every entry is either its sequential value
// or, if it was never estimated, the zero value.
func TestRunBatchCancelled(t *testing.T) {
	const n, cancelAt = 64, 5
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		out, err := runBatch(ctx, n, workers, func(i int) (EstimateResult, error) {
			if i == cancelAt {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return EstimateResult{}, err
			}
			return EstimateResult{Estimate: float64(i + 1)}, nil
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(out), n)
		}
		estimated := 0
		for i, r := range out {
			switch r.Estimate {
			case 0:
			case float64(i + 1):
				estimated++
			default:
				t.Fatalf("workers=%d entry %d = %v, want 0 or %d", workers, i, r.Estimate, i+1)
			}
		}
		if out[cancelAt].Estimate != 0 {
			t.Errorf("workers=%d: the cancelling entry was kept", workers)
		}
		if estimated >= n-1 {
			t.Errorf("workers=%d: %d of %d entries estimated after cancellation", workers, estimated, n)
		}
		if workers == 1 && estimated != cancelAt {
			t.Errorf("inline pool estimated %d entries, want the %d before cancellation", estimated, cancelAt)
		}
	}
}

// TestEstimateBatchContextCancelled runs the context-aware batch entry
// point under an already-cancelled context: it reports context.Canceled
// and still returns one (zero) entry per query.
func TestEstimateBatchContextCancelled(t *testing.T) {
	d, qs := xmarkQueries(20)
	sk := New(d, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sk.EstimateBatchPlannedContext(ctx, qs, 4)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(res), len(qs))
	}
	for i, r := range res {
		if r != (EstimateResult{}) {
			t.Fatalf("query %d estimated under a cancelled context: %+v", i, r)
		}
	}
}

func TestEstimateBatchConcurrentWithStats(t *testing.T) {
	// Exercised under -race: several goroutines run batches on one sketch
	// while another polls the cache counters.
	d, qs := xmarkQueries(30)
	sk := New(d, DefaultConfig())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sk.EstimateBatch(qs, 4)
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			sk.EstimatorStats()
		}
	}()
	wg.Wait()
	<-done
	st := sk.EstimatorStats()
	if st.Misses == 0 {
		t.Fatalf("stats after batches: %+v, want misses > 0", st)
	}
}

func TestEstimatorStatsAndInvalidation(t *testing.T) {
	sk := bibSketch(t)
	q := twig.MustParse("t0 in author, t1 in t0//title, t2 in t0/name")
	before := sk.EstimateQuery(q)
	sk.EstimateQuery(q)
	st := sk.EstimatorStats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("stats after repeated estimation: %+v, want hits and misses", st)
	}
	// Refinement invalidates: the generation advances, the memo is dropped
	// (re-estimation misses again) and the same value is reproduced from
	// scratch. The counters survive invalidation.
	gen := sk.generation()
	sk.RebuildNode(synNode(t, sk, "author"))
	if g := sk.generation(); g != gen+1 {
		t.Fatalf("generation after RebuildNode = %d, want %d", g, gen+1)
	}
	if got := sk.EstimatorStats(); got != st {
		t.Fatalf("RebuildNode changed the counters: %+v -> %+v", st, got)
	}
	if got := sk.EstimateQuery(q); math.Float64bits(got) != math.Float64bits(before) {
		t.Fatalf("estimate after invalidation = %v, want %v", got, before)
	}
	if got := sk.EstimatorStats(); got.Misses <= st.Misses {
		t.Fatalf("re-estimation after RebuildNode did not miss: %+v -> %+v", st, got)
	}
}

// TestColdWarmEstimateParity checks that the memo never changes an
// estimate: on a P+V workload over every dataset, each query estimated on
// a fresh Clone (whose memo is empty) equals, bit for bit, the same query
// estimated on a sketch whose memo the whole workload has already warmed.
func TestColdWarmEstimateParity(t *testing.T) {
	for _, name := range xmlgen.AllNames() {
		t.Run(name, func(t *testing.T) {
			d := xmlgen.Generate(name, xmlgen.Config{Seed: 1, Scale: 0.02})
			cfg := workload.DefaultConfig(workload.KindPV)
			cfg.NumQueries = 25
			cfg.Seed = 3
			w := workload.Generate(d, cfg)
			warm := New(d, DefaultConfig())
			for _, q := range w.Queries {
				warm.EstimateQuery(q.Twig)
			}
			if st := warm.EstimatorStats(); st.Hits == 0 {
				t.Fatalf("warm-up recorded no hits: %+v", st)
			}
			for i, q := range w.Queries {
				got := warm.EstimateQuery(q.Twig)
				cold := warm.Clone()
				want := cold.EstimateQuery(q.Twig)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("query %d %q: warm %v != cold %v", i, q.Twig, got, want)
				}
				if st := cold.EstimatorStats(); st.Misses == 0 {
					t.Fatalf("query %d: clone's memo was not cold: %+v", i, st)
				}
			}
		})
	}
}

func TestExistsFractionDepthGuard(t *testing.T) {
	sk := bibSketch(t)
	id := synNode(t, sk, "author")
	steps := pathexpr.MustParse("paper/title").Steps
	if v, clean, _ := sk.existsFraction(id, steps, maxExistsDepth+1); v != 0 || clean {
		t.Fatalf("past guard: got (%v, %v), want (0, false)", v, clean)
	}
	// Guarded results must not be cached: the same lookup at depth 0 still
	// computes the real value.
	if v, clean, _ := sk.existsFraction(id, steps, 0); v <= 0 || !clean {
		t.Fatalf("after guarded call: got (%v, %v), want positive and clean", v, clean)
	}
}

func TestValueFractionEmptyExtent(t *testing.T) {
	d := xmltree.NewDocument("r")
	for i := 0; i < 3; i++ {
		d.AddValueChild(d.Root(), "v", int64(i))
	}
	sk := New(d, exactConfig())
	id := synNode(t, sk, "v")
	// Fabricate the stale-summary scenario: a node whose extent was emptied
	// by refinement but whose value histogram still holds mass.
	sk.Syn.Node(id).Extent = nil
	pred := &pathexpr.ValuePred{Lo: 0, Hi: 2}
	if got := sk.valueFraction(id, pred); got != 0 {
		t.Fatalf("valueFraction over empty extent = %v, want 0", got)
	}
}

func TestEstimateBatchDegenerateInputs(t *testing.T) {
	sk := bibSketch(t)
	if got := sk.EstimateBatch(nil, 4); len(got) != 0 {
		t.Fatalf("nil batch returned %d results", len(got))
	}
	qs := []*twig.Query{twig.MustParse("t0 in author")}
	for _, workers := range []int{-1, 0, 1, 16} {
		res := sk.EstimateBatch(qs, workers)
		if len(res) != 1 {
			t.Fatalf("workers=%d: %d results", workers, len(res))
		}
		approx(t, res[0].Estimate, 3, 1e-9, "author count")
	}
}

// TestEstimateBatchTextContextItems checks the per-item outcomes of a text
// batch: a malformed item carries its parse error and no plan without
// failing the batch, a skipped item is planned but not executed, and
// every plan's Query renders as its item's text.
func TestEstimateBatchTextContextItems(t *testing.T) {
	d, qs := xmarkQueries(6)
	sk := New(d, DefaultConfig())
	texts := []string{qs[0].String(), qs[1].String(), "t0 in", qs[2].String(), "t0 in in in"}
	skip := []bool{false, true, false, false, false}
	for _, workers := range []int{1, 3} {
		items, err := sk.EstimateBatchTextContext(context.Background(), texts, skip, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, it := range items {
			if i == 2 || i == 4 {
				if it.Err == nil || it.Plan != nil || it.Result != (EstimateResult{}) {
					t.Fatalf("workers=%d item %d: %+v, want only a parse error", workers, i, it)
				}
				continue
			}
			if it.Err != nil || it.Plan == nil || it.Plan.Query.String() != texts[i] {
				t.Fatalf("workers=%d item %d: %+v, want the plan of %q", workers, i, it, texts[i])
			}
			want := EstimateResult{}
			if !skip[i] {
				want = sk.EstimateQueryResult(twig.MustParse(texts[i]))
			}
			if math.Float64bits(it.Result.Estimate) != math.Float64bits(want.Estimate) || it.Result.Truncated != want.Truncated {
				t.Fatalf("workers=%d item %d: %+v, want %+v", workers, i, it.Result, want)
			}
		}
	}
}
