package xsketch

import (
	"bytes"
	"context"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xsketch/internal/trace"
	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
)

var traceTestQueries = []string{
	"t0 in author, t1 in t0//title, t2 in t0/name",
	"t0 in author, t1 in t0/paper, t2 in t1/title, t3 in t0/name",
	"t0 in //paper[/year=1], t1 in t0/title",
	"t0 in author[/name=2], t1 in t0/paper",
	"t0 in bib, t1 in t0/author",
}

// TestTracedBitIdentical asserts the tentpole invariant: estimating with a
// recorder attached produces bit-for-bit the same float as the untraced
// path, for every query shape the fixture exercises (factorized,
// enumerated, branch-predicated, root-self).
func TestTracedBitIdentical(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	for _, qs := range traceTestQueries {
		q := twig.MustParse(qs)
		want := sk.EstimateQuery(q)
		rec := trace.NewRecorder(trace.Options{})
		got, err := sk.EstimateQueryTraced(context.Background(), q, rec)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if math.Float64bits(got.Estimate) != math.Float64bits(want) {
			t.Fatalf("%s: traced %v != untraced %v", qs, got.Estimate, want)
		}
		tr := rec.Trace()
		if tr.Estimate != got.Estimate {
			t.Fatalf("%s: trace estimate %v != result %v", qs, tr.Estimate, got.Estimate)
		}
		sum := 0.0
		for _, em := range tr.Embeddings {
			sum += em.Estimate
		}
		if math.Float64bits(sum) != math.Float64bits(got.Estimate) {
			t.Fatalf("%s: embedding sum %v != estimate %v", qs, sum, got.Estimate)
		}
	}
}

// TestTracingDisabledZeroAllocs asserts the other half of the tentpole
// invariant: running the traced entry point with a nil recorder allocates
// exactly as much as the plain estimation path — the hooks reduce to nil
// checks.
func TestTracingDisabledZeroAllocs(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	q := twig.MustParse("t0 in author, t1 in t0/paper, t2 in t1/title")
	ctx := context.Background()
	sk.EstimateQuery(q) // warm the estimator cache so both runs hit
	plain := testing.AllocsPerRun(200, func() { sk.EstimateQuery(q) })
	nilTraced := testing.AllocsPerRun(200, func() {
		if _, err := sk.EstimateQueryTraced(ctx, q, nil); err != nil {
			t.Fatal(err)
		}
	})
	if nilTraced != plain {
		t.Fatalf("nil-recorder estimation allocates %v/op vs %v/op untraced", nilTraced, plain)
	}
}

// TestTracedConcurrentBitIdentical runs traced estimates from many
// goroutines against one sketch (meaningful under -race): every estimate
// must equal the sequential value regardless of cache interleavings, and
// every recorder must capture a complete trace.
func TestTracedConcurrentBitIdentical(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	q := twig.MustParse("t0 in author, t1 in t0//title, t2 in t0/name")
	want := sk.EstimateQuery(q)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := trace.NewRecorder(trace.Options{})
			got, err := sk.EstimateQueryTraced(context.Background(), q, rec)
			if err != nil {
				errs <- err
				return
			}
			if math.Float64bits(got.Estimate) != math.Float64bits(want) {
				t.Errorf("concurrent traced estimate %v != %v", got.Estimate, want)
			}
			if len(rec.Trace().Embeddings) == 0 {
				t.Error("concurrent trace has no embeddings")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTracedTruncationEvent asserts the MaxEmbeddings soft floor is
// surfaced as a trace event exactly when the result reports truncation.
func TestTracedTruncationEvent(t *testing.T) {
	cfg := exactConfig()
	cfg.MaxEmbeddings = 1
	sk := New(xmltree.Bibliography(), cfg)
	q := twig.MustParse("t0 in author, t1 in t0//title")
	rec := trace.NewRecorder(trace.Options{})
	res, err := sk.EstimateQueryTraced(context.Background(), q, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expected truncation with MaxEmbeddings=1")
	}
	tr := rec.Trace()
	if !tr.Truncated {
		t.Fatal("trace did not record truncation")
	}
	found := false
	for _, e := range tr.Events {
		if e.Kind == trace.EventMaxEmbeddings {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s event in %+v", trace.EventMaxEmbeddings, tr.Events)
	}
}

// TestTracedCacheOutcomes asserts per-term cache attribution: a cold
// sketch's first trace records misses, a second identical run records hits
// on the memoized terms, a Clone starts cold again, and the unmemoized
// avg-count terms carry no outcome.
func TestTracedCacheOutcomes(t *testing.T) {
	outcomes := func(sk *Sketch) map[string]bool {
		q := twig.MustParse("t0 in author, t1 in t0//title, t2 in t0/name")
		rec := trace.NewRecorder(trace.Options{})
		if _, err := sk.EstimateQueryTraced(context.Background(), q, rec); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, e := range rec.Trace().Events {
			if e.Cache != "" {
				seen[e.Cache] = true
			}
		}
		var scan func(n *trace.Node)
		scan = func(n *trace.Node) {
			if n == nil {
				return
			}
			for _, tm := range n.Terms {
				if tm.Kind == trace.TermAvgCount && tm.Cache != "" {
					t.Errorf("avg-count term %s carries cache outcome %q", tm.Detail, tm.Cache)
				}
				if tm.Cache != "" {
					seen[tm.Cache] = true
				}
			}
			for _, c := range n.Children {
				scan(c)
			}
		}
		for _, em := range rec.Trace().Embeddings {
			scan(em.Root)
		}
		return seen
	}

	sk := New(xmltree.Bibliography(), exactConfig())
	first := outcomes(sk)
	if !first[trace.CacheMiss] {
		t.Fatalf("cold run saw no cache misses: %v", first)
	}
	second := outcomes(sk)
	if !second[trace.CacheHit] {
		t.Fatalf("warm run saw no cache hits: %v", second)
	}

	if cold := outcomes(sk.Clone()); !maps.Equal(cold, first) {
		t.Fatalf("clone's run saw %v, want the cold run's %v", cold, first)
	}
}

// TestExplainGoldenJSON pins the Explanation v2 JSON for a fixed query
// over the Bibliography fixture. Each run builds a fresh sketch so the
// recorded cache outcomes (cold cache: all misses, then hits) are
// reproducible; two in-process runs must be byte-identical, and the bytes
// must match the checked-in golden file. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/xsketch -run TestExplainGoldenJSON.
func TestExplainGoldenJSON(t *testing.T) {
	render := func() []byte {
		sk := New(xmltree.Bibliography(), exactConfig())
		q := twig.MustParse("t0 in author, t1 in t0//title, t2 in t0/name")
		b, err := sk.ExplainQuery(q).MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("explanation JSON differs across identical runs:\n%s\nvs\n%s", a, b)
	}
	golden := filepath.Join("testdata", "explain_bib.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(a, want) {
		t.Fatalf("explanation JSON deviates from golden file %s:\ngot:\n%s\nwant:\n%s", golden, a, want)
	}
}

// TestEstimateQueryTracedNilMatchesPlain asserts the context-aware
// interpreter entry point, run without a recorder under a live context,
// returns the plain interpreter's bits.
func TestEstimateQueryTracedNilMatchesPlain(t *testing.T) {
	d, qs := xmarkQueries(30)
	ctxSk := New(d, DefaultConfig())
	plain := New(d, DefaultConfig())
	for i, q := range qs {
		got, err := ctxSk.EstimateQueryTraced(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := plain.EstimateQueryResult(q)
		if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) || got.Truncated != want.Truncated {
			t.Errorf("query %d: context %+v != plain %+v", i, got, want)
		}
	}
}

// TestEstimateQueryTracedCancelled asserts the interpreter observes an
// already-cancelled context and returns the zero result.
func TestEstimateQueryTracedCancelled(t *testing.T) {
	sk := bibSketch(t)
	q := twig.MustParse("t0 in author, t1 in t0//title")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sk.EstimateQueryTraced(ctx, q, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != (EstimateResult{}) {
		t.Fatalf("cancelled estimate returned %+v, want zero", res)
	}
}
