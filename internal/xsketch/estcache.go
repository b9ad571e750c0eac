package xsketch

import (
	"strconv"
	"sync"
	"sync/atomic"

	"xsketch/internal/graphsyn"
	"xsketch/internal/pathexpr"
	"xsketch/internal/trace"
)

// This file implements the per-sketch estimation memo: tables for the two
// structural sub-results that estimation recomputes constantly —
// expandStep realizations and existsFraction probabilities. Both are pure
// functions of the synopsis and the stored summaries, so memoized values
// are bit-identical to recomputed ones and estimation stays deterministic
// under any mix of hits, misses and worker interleavings. The memo is
// shared by every estimate and plan compile on the sketch; a Clone starts
// with an empty one.
//
// Concurrency contract: any number of goroutines may estimate against one
// sketch concurrently (EstimateQuery, EstimateBatch, EstimatorStats).
// Mutating the sketch — refinements, RebuildNode, AddValueDim — requires
// exclusive access; every mutator calls invalidateEstimatorCache so stale
// sub-results never leak into post-refinement estimates.

// EstimatorStats reports the estimation memo's lookup counters: Hits and
// Misses count memo-table lookups, cumulative over the sketch's lifetime.
type EstimatorStats struct {
	Hits, Misses uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 when nothing was looked up.
func (st EstimatorStats) HitRate() float64 {
	n := st.Hits + st.Misses
	if n == 0 {
		return 0
	}
	return float64(st.Hits) / float64(n)
}

// estEngine is the per-sketch memo state: the live tables (dropped
// wholesale on invalidation), lifetime lookup counters that survive
// invalidation, and gen, the sketch's mutation generation. gen advances
// once per invalidation and tags compiled plans, so a stale plan is never
// served (see planner.go).
type estEngine struct {
	cache        atomic.Pointer[estimatorCache]
	hits, misses atomic.Uint64
	gen          atomic.Uint64
}

// expandKey identifies one expandStep realization set. expandStep depends
// only on the context node and the step's axis and label (predicates are
// applied later, per realization).
type expandKey struct {
	ctx   graphsyn.NodeID
	axis  pathexpr.Axis
	label string
}

// estimatorCache holds the memo tables behind one RWMutex. Lookups take
// the read lock; inserts take the write lock. Two goroutines missing on
// the same key both compute the (identical) value and the second store
// overwrites the first — wasted work, never wrong results.
type estimatorCache struct {
	mu     sync.RWMutex
	expand map[expandKey][][]graphsyn.NodeID
	// exists is keyed by appendExistsKey.
	exists map[string]float64
}

// estCache returns the sketch's live memo, creating it on first use.
func (sk *Sketch) estCache() *estimatorCache {
	if c := sk.est.cache.Load(); c != nil {
		return c
	}
	c := &estimatorCache{
		expand: make(map[expandKey][][]graphsyn.NodeID),
		exists: make(map[string]float64),
	}
	if sk.est.cache.CompareAndSwap(nil, c) {
		return c
	}
	return sk.est.cache.Load()
}

// invalidateEstimatorCache drops every memoized sub-result and advances
// the generation. Every mutator of the synopsis or the summaries calls it.
func (sk *Sketch) invalidateEstimatorCache() {
	sk.est.cache.Store(nil)
	sk.est.gen.Add(1)
}

// EstimatorStats samples the cumulative memo counters. It is safe to call
// concurrently with estimation — the xserve /metrics endpoint polls it on
// every scrape. Each counter is monotonic; a concurrent estimate may land
// between the two loads, which only shifts a lookup between adjacent
// samples.
func (sk *Sketch) EstimatorStats() EstimatorStats {
	return EstimatorStats{Hits: sk.est.hits.Load(), Misses: sk.est.misses.Load()}
}

// expandStep enumerates the synopsis-node sequences realizing one step
// from ctx, memoized per (ctx, axis, label), and reports the memo outcome
// (trace.CacheHit or CacheMiss) for trace recording. The cached slices are
// shared and must not be mutated by callers.
func (sk *Sketch) expandStep(ctx graphsyn.NodeID, step *pathexpr.Step) ([][]graphsyn.NodeID, string) {
	c := sk.estCache()
	k := expandKey{ctx: ctx, axis: step.Axis, label: step.Label}
	c.mu.RLock()
	v, ok := c.expand[k]
	c.mu.RUnlock()
	if ok {
		sk.est.hits.Add(1)
		return v, trace.CacheHit
	}
	sk.est.misses.Add(1)
	v = sk.expandStepUncached(ctx, step)
	c.mu.Lock()
	c.expand[k] = v
	c.mu.Unlock()
	return v, trace.CacheMiss
}

// maxExistsDepth bounds the existsFraction recursion. The recursion already
// terminates structurally — every recursive call strictly shrinks the
// remaining step list, even over cyclic synopsis graphs, because
// expandStep returns bounded simple paths — so the guard is purely
// defensive against pathological hand-built queries.
const maxExistsDepth = 64

// appendExistsKey appends the memo key of one existsFraction result to b:
// the context node in decimal, a space, then the remaining branch steps in
// their canonical parseable path syntax. The syntax is injective over step
// lists and the digits end at the space, so keys never collide.
func appendExistsKey(b []byte, id graphsyn.NodeID, steps []*pathexpr.Step) []byte {
	b = append(strconv.AppendInt(b, int64(id), 10), ' ')
	return (&pathexpr.Path{Steps: steps}).AppendTo(b)
}

// existsFraction estimates P(an element of node id has >= 1 match of the
// remaining branch steps), memoized per (node, canonical steps). The
// second return reports whether the value was computed entirely below the
// recursion-depth guard; guarded (non-clean) values are never cached, so
// cached contents are independent of evaluation order. The third is the
// memo outcome for trace recording: trace.CacheOff for an empty branch or
// a guarded call, which bypass the memo.
func (sk *Sketch) existsFraction(id graphsyn.NodeID, steps []*pathexpr.Step, depth int) (float64, bool, string) {
	if len(steps) == 0 {
		return 1, true, trace.CacheOff
	}
	if depth > maxExistsDepth {
		return 0, false, trace.CacheOff
	}
	c := sk.estCache()
	// The key is rendered into a stack buffer: the lookup converts it
	// without allocating, and only a miss copies it into the table.
	var kb [128]byte
	k := appendExistsKey(kb[:0], id, steps)
	c.mu.RLock()
	v, ok := c.exists[string(k)]
	c.mu.RUnlock()
	if ok {
		sk.est.hits.Add(1)
		return v, true, trace.CacheHit
	}
	sk.est.misses.Add(1)
	v, clean := sk.existsFractionUncached(id, steps, depth)
	if clean {
		c.mu.Lock()
		c.exists[string(k)] = v
		c.mu.Unlock()
	}
	return v, clean, trace.CacheMiss
}
