package xsketch

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"xsketch/internal/twig"
)

// EstimateResult is one query's outcome from the estimation engine.
type EstimateResult struct {
	// Estimate is the estimated number of binding tuples (the value
	// EstimateQuery returns).
	Estimate float64
	// Truncated reports that embedding enumeration exhausted
	// Config.MaxEmbeddings, so the estimate was computed from a truncated
	// (but non-empty, when any embedding exists) embedding set.
	Truncated bool
}

// EstimateQueryResult estimates a twig query and reports whether the
// embedding enumeration was truncated by Config.MaxEmbeddings.
func (sk *Sketch) EstimateQueryResult(q *twig.Query) EstimateResult {
	ems, truncated := sk.EmbeddingsTruncated(q)
	total := 0.0
	for _, em := range ems {
		total += sk.estimateEmbedding(em)
	}
	return EstimateResult{Estimate: total, Truncated: truncated}
}

// EstimateBatch estimates a workload of twig queries on a worker pool,
// returning one result per query in input order. workers <= 0 selects
// GOMAXPROCS. Results are bit-identical to calling EstimateQuery on each
// query sequentially, for any worker count: every memoized sub-result is a
// pure function of the (unchanging) sketch, so cache interleaving cannot
// alter values. The batch shares the sketch's estimation cache, which is
// where the speedup comes from — workload queries overlap heavily in the
// structural sub-results they need.
func (sk *Sketch) EstimateBatch(queries []*twig.Query, workers int) []EstimateResult {
	out, _ := runBatch(context.Background(), len(queries), workers, func(i int) (EstimateResult, error) {
		return sk.EstimateQueryResult(queries[i]), nil
	})
	return out
}

// runBatch is the one batch worker pool: it fills out[i] = est(i) for
// every i in [0, n) on up to workers goroutines (<= 0 selects GOMAXPROCS)
// and returns the slice in input order. Items that can fail on their own
// carry the failure in T. est must fail only by observing
// ctx's cancellation. Workers claim indices from a shared counter and stop
// claiming once ctx is done; runBatch then returns ctx.Err() with the
// partially filled slice, whose never-estimated entries stay at their zero
// value. Each index is written by exactly one worker, so results do not
// depend on the worker count. The counter, rather than a channel feed,
// keeps the per-query hand-off cost far below a warm-cache estimate.
func runBatch[T any](ctx context.Context, n, workers int, est func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			r, err := est(i)
			if err != nil {
				return out, err
			}
			out[i] = r
		}
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r, err := est(i)
				if err != nil {
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}
