package xsketch

import (
	"context"
	"math"
	"sync"
	"testing"

	"xsketch/internal/plan"
	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
)

// plannerFixtures returns named sketches covering every compiled execution
// mode: the Bibliography sketch exercises factorized and enumerated shapes
// (backward scope conditions, branch predicates), and the typed-movie
// sketches exercise value-dimension uses (self, branch, covered child).
func plannerFixtures(t *testing.T) map[string]*Sketch {
	t.Helper()
	bib := New(xmltree.Bibliography(), exactConfig())

	joint := New(typedDoc(), exactConfig())
	movie := synNode(t, joint, "movie")
	typ := synNode(t, joint, "type")
	if !joint.AddValueDim(movie, typ, 8) {
		t.Fatal("AddValueDim failed")
	}

	return map[string]*Sketch{"bib": bib, "movies": joint}
}

// plannerFixtureQueries lists the workload per fixture name.
var plannerFixtureQueries = map[string][]string{
	"bib": {
		"t0 in author, t1 in t0//title, t2 in t0/name",
		"t0 in author, t1 in t0/paper, t2 in t1/title, t3 in t0/name",
		"t0 in //paper[/year=1], t1 in t0/title",
		"t0 in author[/name=2], t1 in t0/paper",
		"t0 in bib, t1 in t0/author",
		"t0 in //nosuchtag",
	},
	"movies": {
		"t0 in movie[type=0], t1 in t0/actor",
		"t0 in movie[type=9], t1 in t0/actor",
		"t0 in movie, t1 in t0/type[=0], t2 in t0/actor",
		"t0 in movie, t1 in t0/actor",
	},
}

// TestPlannedBitIdentical asserts the tentpole invariant: the compiled-plan
// path produces bit-for-bit the interpreter's float for every fixture
// query, both on the cold (compile) call and on the warm (cache-hit) call.
func TestPlannedBitIdentical(t *testing.T) {
	for name, sk := range plannerFixtures(t) {
		for _, qs := range plannerFixtureQueries[name] {
			q := twig.MustParse(qs)
			want := sk.EstimateQueryResult(q)
			for pass, label := range []string{"cold", "warm"} {
				got, err := estimatePlanned(sk, qs)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, qs, err)
				}
				if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) {
					t.Fatalf("%s/%s (%s): planned %v != interpreted %v",
						name, qs, label, got.Estimate, want.Estimate)
				}
				if got.Truncated != want.Truncated {
					t.Fatalf("%s/%s (%s pass %d): truncated %v != %v",
						name, qs, label, pass, got.Truncated, want.Truncated)
				}
			}
		}
	}
}

// TestPlannedNormalizedSpellingsShareOnePlan asserts whitespace variants of
// one query resolve to the same cached program without reparsing.
func TestPlannedNormalizedSpellingsShareOnePlan(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	spellings := []string{
		"t0 in author, t1 in t0/paper",
		"for t0 in author, t1 in t0/paper",
		"t0  in\tauthor,\n t1 in t0/paper",
	}
	p0, err := sk.PlanQueryText(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	// The canonical spelling itself must hit too (it takes the
	// canonical-map fallback in Lookup rather than an alias slot).
	spellings = append(spellings, p0.Canonical)
	for _, s := range spellings[1:] {
		p, err := sk.PlanQueryText(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if p != p0 {
			t.Fatalf("%q compiled a second program", s)
		}
	}
	st := sk.PlanCacheStats()
	if st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 miss / size 1 across %d spellings", st, len(spellings))
	}
	if st.Hits < uint64(len(spellings)-1) {
		t.Fatalf("stats = %+v, want >= %d hits", st, len(spellings)-1)
	}
}

// estimatePlanned is the served text path: resolve the plan through
// PlanQueryText, then execute it.
func estimatePlanned(sk *Sketch, text string) (EstimateResult, error) {
	p, err := sk.PlanQueryText(text)
	if err != nil {
		return EstimateResult{}, err
	}
	return sk.EstimatePlanContext(context.Background(), p)
}

// TestPlannedZeroAllocsOnHit is the tentpole perf gate: once a query's plan
// is cached, estimating it allocates nothing — lookup, execution scratch,
// and histogram match buffers are all reused. The gate takes the fewest
// allocations of five passes: under -race, sync.Pool drops Puts at random,
// so a single pass can read 1 alloc/op, while a real per-call allocation
// shows in every pass.
func TestPlannedZeroAllocsOnHit(t *testing.T) {
	for name, sk := range plannerFixtures(t) {
		for _, qs := range plannerFixtureQueries[name] {
			p, err := sk.PlanQueryText(qs)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, qs, err)
			}
			if _, err := estimatePlanned(sk, qs); err != nil { // warm buffers
				t.Fatalf("%s/%s: %v", name, qs, err)
			}
			// Both the given spelling (alias hit) and the canonical one
			// (canonical-map fallback) must be allocation-free.
			for _, text := range []string{qs, p.Canonical} {
				allocs := math.Inf(1)
				for pass := 0; pass < 5; pass++ {
					allocs = min(allocs, testing.AllocsPerRun(200, func() {
						if _, err := estimatePlanned(sk, text); err != nil {
							t.Fatal(err)
						}
					}))
				}
				if allocs != 0 {
					t.Fatalf("%s/%s: %v allocs/op on the cache-hit path in the best of 5 passes, want 0", name, text, allocs)
				}
			}
		}
	}
}

// TestPlanCacheInvalidation is the satellite-4 regression test: mutating
// the sketch between planned estimates must retire the cached plan, and the
// replanned estimate must match a fresh interpreted estimate exactly.
func TestPlanCacheInvalidation(t *testing.T) {
	d := typedDoc()
	sk := New(d, exactConfig())
	qs := "t0 in movie, t1 in t0/actor"
	q := twig.MustParse(qs)

	before, err := estimatePlanned(sk, qs)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate: coarsen the movie histogram, then add a value dimension.
	// Both route through RebuildNode and advance the generation.
	movie := synNode(t, sk, "movie")
	if !sk.SetBuckets(movie, 1) {
		t.Fatal("SetBuckets failed")
	}
	typ := synNode(t, sk, "type")
	if !sk.AddValueDim(movie, typ, 8) {
		t.Fatal("AddValueDim failed")
	}

	after, err := estimatePlanned(sk, qs)
	if err != nil {
		t.Fatal(err)
	}
	want := sk.EstimateQueryResult(q)
	if math.Float64bits(after.Estimate) != math.Float64bits(want.Estimate) {
		t.Fatalf("replanned %v != interpreted %v after mutation", after.Estimate, want.Estimate)
	}
	// The coarsened histogram genuinely changes nothing here, but the value
	// dimension estimate must match an entirely fresh sketch too.
	fresh := New(d, exactConfig())
	if !fresh.SetBuckets(synNode(t, fresh, "movie"), 1) {
		t.Fatal("fresh SetBuckets failed")
	}
	if !fresh.AddValueDim(synNode(t, fresh, "movie"), synNode(t, fresh, "type"), 8) {
		t.Fatal("fresh AddValueDim failed")
	}
	freshWant := fresh.EstimateQueryResult(q)
	if math.Abs(after.Estimate-freshWant.Estimate) > 1e-12 {
		t.Fatalf("replanned %v deviates from fresh-sketch %v", after.Estimate, freshWant.Estimate)
	}
	_ = before

	// The stale entry must be gone from the cache: a plan held across the
	// mutation recompiles rather than executing stale state.
	stale, err := sk.PlanQueryText(qs)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Generation != sk.generation() {
		t.Fatalf("post-mutation plan carries generation %d, sketch at %d", stale.Generation, sk.generation())
	}
}

// TestEstimatePlanHeldAcrossMutation asserts a caller-held *Program from
// before a mutation is transparently recompiled by EstimatePlanContext.
func TestEstimatePlanHeldAcrossMutation(t *testing.T) {
	sk := New(typedDoc(), exactConfig())
	qs := "t0 in movie, t1 in t0/actor"
	p, err := sk.PlanQueryText(qs)
	if err != nil {
		t.Fatal(err)
	}
	movie := synNode(t, sk, "movie")
	typ := synNode(t, sk, "type")
	if !sk.AddValueDim(movie, typ, 8) {
		t.Fatal("AddValueDim failed")
	}
	got, err := sk.EstimatePlanContext(context.Background(), p) // p is stale now
	if err != nil {
		t.Fatal(err)
	}
	want := sk.EstimateQueryResult(twig.MustParse(qs))
	if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) {
		t.Fatalf("stale-plan estimate %v != interpreted %v", got.Estimate, want.Estimate)
	}
}

// TestPlanCacheDisabled asserts PlanCacheSize < 0 still estimates correctly
// (compiling every call) and reports zero stats.
func TestPlanCacheDisabled(t *testing.T) {
	cfg := exactConfig()
	cfg.PlanCacheSize = -1
	sk := New(xmltree.Bibliography(), cfg)
	qs := "t0 in author, t1 in t0/paper"
	want := sk.EstimateQueryResult(twig.MustParse(qs))
	for i := 0; i < 2; i++ {
		got, err := estimatePlanned(sk, qs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) {
			t.Fatalf("uncached planned %v != interpreted %v", got.Estimate, want.Estimate)
		}
	}
	if st := sk.PlanCacheStats(); st != (plan.Stats{}) {
		t.Fatalf("disabled cache reported stats %+v", st)
	}
}

// TestPlannedTruncation asserts the MaxEmbeddings flag survives
// compilation.
func TestPlannedTruncation(t *testing.T) {
	cfg := exactConfig()
	cfg.MaxEmbeddings = 1
	sk := New(xmltree.Bibliography(), cfg)
	got, err := estimatePlanned(sk, "t0 in author, t1 in t0//title")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Fatal("planned estimate lost the truncation flag")
	}
}

// TestPlannedParseError asserts invalid query text surfaces the parser's
// error rather than a plan.
func TestPlannedParseError(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	if _, err := estimatePlanned(sk, "t0 in"); err == nil {
		t.Fatal("expected a parse error")
	}
}

// TestPlannedConcurrent hammers one sketch's planned path from many
// goroutines (meaningful under -race): the shared plan cache and scratch
// pool must never change a result.
func TestPlannedConcurrent(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	queries := plannerFixtureQueries["bib"]
	want := make([]EstimateResult, len(queries))
	for i, qs := range queries {
		want[i] = sk.EstimateQueryResult(twig.MustParse(qs))
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j := (w + i) % len(queries)
				got, err := estimatePlanned(sk, queries[j])
				if err != nil {
					t.Errorf("%s: %v", queries[j], err)
					return
				}
				if math.Float64bits(got.Estimate) != math.Float64bits(want[j].Estimate) {
					t.Errorf("%s: concurrent planned %v != %v", queries[j], got.Estimate, want[j].Estimate)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPlannedBatchBitIdentical asserts the planned batch entry point
// matches the interpreted batch for every worker count.
func TestPlannedBatchBitIdentical(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	var queries []*twig.Query
	for _, qs := range plannerFixtureQueries["bib"] {
		queries = append(queries, twig.MustParse(qs))
	}
	want := sk.EstimateBatch(queries, 1)
	for _, workers := range []int{0, 1, 2, 8} {
		got, err := sk.EstimateBatchPlannedContext(context.Background(), queries, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i].Estimate) != math.Float64bits(want[i].Estimate) ||
				got[i].Truncated != want[i].Truncated {
				t.Fatalf("workers=%d query %d: planned %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPlannedContextCancellation asserts the planned context entry points
// observe cancellation up front and return zero results.
func TestPlannedContextCancellation(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var queries []*twig.Query
	for _, qs := range plannerFixtureQueries["bib"] {
		queries = append(queries, twig.MustParse(qs))
	}
	if res, err := sk.EstimatePlanContext(ctx, sk.PlanQuery(queries[0])); err != context.Canceled || res != (EstimateResult{}) {
		t.Fatalf("planned estimate under a cancelled context = (%+v, %v), want zero and context.Canceled", res, err)
	}
	for _, workers := range []int{1, 4} {
		res, err := sk.EstimateBatchPlannedContext(ctx, queries, workers)
		if err != context.Canceled {
			t.Fatalf("workers=%d: planned batch err = %v, want context.Canceled", workers, err)
		}
		if len(res) != len(queries) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(res), len(queries))
		}
		for i, r := range res {
			if r != (EstimateResult{}) {
				t.Fatalf("workers=%d query %d estimated under a cancelled context: %+v", workers, i, r)
			}
		}
	}
}

// TestPlanCacheLRUInSketch asserts the sketch-level cache honors
// Config.PlanCacheSize.
func TestPlanCacheLRUInSketch(t *testing.T) {
	cfg := exactConfig()
	cfg.PlanCacheSize = 2
	sk := New(xmltree.Bibliography(), cfg)
	for _, qs := range []string{"t0 in author", "t0 in bib", "t0 in paper"} {
		if _, err := estimatePlanned(sk, qs); err != nil {
			t.Fatal(err)
		}
	}
	st := sk.PlanCacheStats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want size 2 / 1 eviction", st)
	}
}

// TestProgramTagsInterned asserts compilation interns every step label of
// the query, including branch predicates, resolving document tags.
func TestProgramTagsInterned(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	p, err := sk.PlanQueryText("t0 in author[/name=2], t1 in t0/paper, t2 in t1/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]int{}
	for _, tag := range p.Tags {
		byLabel[tag.Label] = tag.ID
	}
	for _, label := range []string{"author", "name", "paper", "nosuch"} {
		id, ok := byLabel[label]
		if !ok {
			t.Fatalf("label %q not interned (tags: %v)", label, p.Tags)
		}
		if label == "nosuch" {
			if id != -1 {
				t.Fatalf("unknown label %q resolved to %d", label, id)
			}
		} else if id < 0 {
			t.Fatalf("document label %q unresolved", label)
		}
	}
}

// TestProgramsShareScratchPool runs compiled programs of different sizes
// interleaved on several goroutines. All programs draw their Scratch from
// one pool, so a Scratch last grown for one program is handed to programs
// with other NumNodes and NumSlots; every result must stay Float64bits-
// equal to EstimateQuery. Meaningful under -race.
func TestProgramsShareScratchPool(t *testing.T) {
	type job struct {
		sk   *Sketch
		p    *plan.Program
		want EstimateResult
	}
	var jobs []job
	add := func(sk *Sketch, q *twig.Query) {
		jobs = append(jobs, job{sk: sk, p: sk.PlanQuery(q), want: sk.EstimateQueryResult(q)})
	}
	for name, sk := range plannerFixtures(t) {
		for _, qs := range plannerFixtureQueries[name] {
			add(sk, twig.MustParse(qs))
		}
	}
	d, qs := xmarkQueries(30)
	xm := New(d, DefaultConfig())
	for _, q := range qs {
		add(xm, q)
	}
	nodes, slots := map[int]bool{}, map[int]bool{}
	for _, j := range jobs {
		nodes[j.p.NumNodes] = true
		slots[j.p.NumSlots] = true
	}
	if len(nodes) < 3 || len(slots) < 2 {
		t.Fatalf("programs span %d node counts and %d slot counts; the test needs varied sizes", len(nodes), len(slots))
	}
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range jobs {
					// Each goroutine walks the programs from its own
					// offset and stride, so sizes interleave differently.
					j := jobs[(w+k*(2*w+1))%len(jobs)]
					got, err := j.sk.EstimatePlanContext(context.Background(), j.p)
					if err != nil {
						t.Error(err)
						return
					}
					if math.Float64bits(got.Estimate) != math.Float64bits(j.want.Estimate) || got.Truncated != j.want.Truncated {
						t.Errorf("%s: shared-scratch estimate %+v != EstimateQuery %+v", j.p.Canonical, got, j.want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
