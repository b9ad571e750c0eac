package build

import (
	"math"
	"slices"
	"sync"

	"xsketch/internal/graphsyn"
	"xsketch/internal/metrics"
	"xsketch/internal/twig"
	"xsketch/internal/workload"
	core "xsketch/internal/xsketch"
)

// scoredQuery is one scoring-workload query with its truth: the exact
// selectivity, or the reference synopsis's estimate under
// Options.ReferenceScoring.
type scoredQuery struct {
	q     *twig.Query
	truth int64
}

// scoreResult is one candidate's outcome: the refined synopsis, its size,
// and its scoring-workload error.
type scoreResult struct {
	sk   *core.Sketch
	size int
	err  float64
}

// initScoring prepares the scoring workload and, when requested, the
// reference synopsis whose estimates stand in for true counts.
func (b *Builder) initScoring() {
	if b.opts.ReferenceScoring {
		// The reference summary is a large coarsest synopsis: label-split
		// structure with generous histogram budgets (the paper's "large
		// reference synopsis", cheap to build, far more accurate than the
		// budgeted synopsis being constructed).
		cfg := b.opts.Sketch
		if cfg.InitialEdgeBuckets < 16 {
			cfg.InitialEdgeBuckets = 16
		}
		if cfg.InitialValueBuckets < 16 {
			cfg.InitialValueBuckets = 16
		}
		b.ref = core.New(b.doc, cfg)
	}
	if w := b.opts.ScoringWorkload; w != nil {
		b.sampled = b.scoredQueries(w)
		b.queries = b.sampled
		return
	}
	// Sample a P+V workload so value predicates exercise the value
	// refinements. Queries are kept smaller than the paper's 4-8
	// evaluation twigs: scoring runs per candidate per step, and small
	// twigs localize the gain signal.
	cfg := workload.DefaultConfig(workload.KindPV)
	cfg.NumQueries = b.opts.ScoringQueries
	cfg.MinNodes, cfg.MaxNodes = 2, 6
	cfg.Seed = b.opts.Seed
	b.sampled = b.scoredQueries(workload.Generate(b.doc, cfg))
	b.queries = b.sampled
}

// resampleAnchored refreshes the anchored share of the scoring workload
// with queries rooted in the extent of the refined node (the paper samples
// queries "around the regions transformed by the candidate operations").
// A fixed ScoringWorkload disables this.
func (b *Builder) resampleAnchored(node graphsyn.NodeID) {
	if b.opts.ScoringWorkload != nil {
		return
	}
	cfg := workload.DefaultConfig(workload.KindPV)
	cfg.NumQueries = b.opts.ScoringQueries / 3
	cfg.MinNodes, cfg.MaxNodes = 2, 6
	cfg.Seed = b.rng.Int63()
	cfg.Anchors = b.sk.Syn.Node(node).Extent
	if cfg.NumQueries > 0 {
		b.anchored = b.scoredQueries(workload.Generate(b.doc, cfg))
	}
	b.queries = append(append([]scoredQuery(nil), b.sampled...), b.anchored...)
}

// scoredQueries converts a generated workload into scoring queries,
// substituting reference-synopsis estimates for the exact truths under
// ReferenceScoring. Reference estimates run on the batch path: the
// reference synopsis is never refined, so its estimation cache persists
// across every resampling and build step.
func (b *Builder) scoredQueries(w *workload.Workload) []scoredQuery {
	out := make([]scoredQuery, 0, len(w.Queries))
	if b.ref != nil {
		qs := make([]*twig.Query, len(w.Queries))
		for i, q := range w.Queries {
			qs[i] = q.Twig
		}
		ests := b.ref.EstimateBatch(qs, b.opts.Parallelism)
		for i, q := range w.Queries {
			out = append(out, scoredQuery{q: q.Twig, truth: int64(math.Round(ests[i].Estimate))})
		}
		return out
	}
	for _, q := range w.Queries {
		out = append(out, scoredQuery{q: q.Twig, truth: q.Truth})
	}
	return out
}

// baseScores is the current synopsis's scoring state for one step: each
// scoring query's estimate, the synopsis nodes that estimate read, and
// the workload error.
type baseScores struct {
	ests  []float64
	reads []core.Reads
	err   float64
}

// scoreBase estimates every scoring query on the current synopsis,
// recording what each estimate read, on the worker pool.
func (b *Builder) scoreBase() {
	n := len(b.queries)
	bs := baseScores{ests: make([]float64, n), reads: make([]core.Reads, n)}
	parallel(n, b.opts.Parallelism, func(i int) {
		r, reads := b.sk.EstimateReads(b.queries[i].q)
		bs.ests[i], bs.reads[i] = r.Estimate, reads
	})
	bs.err = b.errorFrom(bs.ests)
	b.scores = bs
}

// candidateEstimates returns the scoring-query estimates on sk, a
// refined clone of the current synopsis. Only the queries whose recorded
// reads meet what the refinement changed are estimated again; every other
// estimate read only state sk shares with the current synopsis, so the
// base estimate is its estimate on sk too. A split typically changes the
// split node, the new node and their neighbors; a budget or scope change
// changes one node's summary.
func (b *Builder) candidateEstimates(sk *core.Sketch) []float64 {
	changed := sk.ChangedFrom(b.sk)
	ests := slices.Clone(b.scores.ests)
	var idx []int
	var qs []*twig.Query
	for i, r := range b.scores.reads {
		if r.Meets(changed) {
			idx = append(idx, i)
			qs = append(qs, b.queries[i].q)
		}
	}
	// One worker: candidate scoring already saturates the worker pool
	// one level up, and the candidate's cache is shared across its
	// queries.
	for j, r := range sk.EstimateBatch(qs, 1) {
		ests[idx[j]] = r.Estimate
	}
	return ests
}

// errorFrom is the paper's sanity-bounded average relative error of the
// given scoring-query estimates.
func (b *Builder) errorFrom(ests []float64) float64 {
	if len(b.queries) == 0 {
		return 0
	}
	results := make([]metrics.Result, len(b.queries))
	for i, sq := range b.queries {
		results[i] = metrics.Result{Truth: sq.truth, Estimate: ests[i]}
	}
	return metrics.Evaluate(results, 0).AvgError
}

// scoreOne clones the current synopsis, applies the candidate and scores
// it. Returns nil when the candidate is inapplicable.
func (b *Builder) scoreOne(c candidate) *scoreResult {
	sk := b.sk.Clone()
	if !b.apply(sk, c.ref) {
		return nil
	}
	return &scoreResult{sk: sk, size: sk.SizeBytes(), err: b.errorFrom(b.candidateEstimates(sk))}
}

// scoreAll scores every candidate on a worker pool. Results land at their
// candidate's index, and each candidate's score is independent of the
// others, so the outcome is deterministic regardless of worker count or
// scheduling order.
func (b *Builder) scoreAll(cands []candidate) []*scoreResult {
	out := make([]*scoreResult, len(cands))
	parallel(len(cands), b.opts.Parallelism, func(i int) { out[i] = b.scoreOne(cands[i]) })
	return out
}

// parallel calls fn(i) for every i in [0, n) on up to workers goroutines.
func parallel(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ch := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}
