package xsketch

import (
	"strconv"
	"sync"
	"sync/atomic"

	"xsketch/internal/graphsyn"
	"xsketch/internal/pathexpr"
	"xsketch/internal/trace"
)

// This file implements the per-sketch estimation cache: memo tables for the
// structural sub-results that EstimateQuery recomputes constantly —
// expandStep realizations, estimated edge counts, and existsFraction
// probabilities. All three are pure functions of the synopsis and the
// stored summaries, so memoized values are bit-identical to recomputed
// ones and estimation stays deterministic under any mix of cache hits,
// misses and worker interleavings.
//
// Concurrency contract: any number of goroutines may estimate against one
// sketch concurrently (EstimateQuery, EstimateBatch, EstimatorStats).
// Mutating the sketch — refinements, RebuildNode, AddValueDim — requires
// exclusive access, exactly as it did before the cache existed; every
// rebuild path invalidates the cache so stale sub-results never leak into
// post-refinement estimates.

// EstimatorStats reports the estimation cache counters of a sketch.
// Hits and Misses count memo-table lookups; Evictions counts entries
// dropped by cache invalidation (every synopsis refinement invalidates).
// All counters are cumulative over the sketch's lifetime and are zero when
// Config.DisableEstimatorCache is set. Generation is the sketch's mutation
// epoch: it advances by two on every invalidation (RebuildNode, SetBuckets,
// AddScopeEdge, ...), is always even in a snapshot, and tags compiled query
// plans so stale plans can never survive a mutation (see planner.go).
type EstimatorStats struct {
	Hits, Misses, Evictions uint64
	Generation              uint64
}

// estEngine is the per-sketch estimation cache state: an atomically
// swappable memo table (swapped out wholesale on invalidation) plus
// lifetime counters that survive invalidation. gen is a seqlock-style
// generation counter: odd while an invalidation is in flight, advanced to
// the next even value once the swap and its eviction accounting are done.
// Snapshot readers retry around odd values, so a snapshot can never pair a
// pre-invalidation counter with a post-invalidation one.
type estEngine struct {
	cache                   atomic.Pointer[estimatorCache]
	hits, misses, evictions atomic.Uint64
	gen                     atomic.Uint64
}

// expandKey identifies one expandStep realization set. expandStep depends
// only on the context node and the step's axis and label (predicates are
// applied later, per realization).
type expandKey struct {
	ctx   graphsyn.NodeID
	axis  pathexpr.Axis
	label string
}

// edgeKey identifies one estEdgeCount lookup.
type edgeKey struct{ u, v graphsyn.NodeID }

// estimatorCache holds the three memo tables behind one RWMutex. Lookups
// take the read lock; inserts take the write lock. Two goroutines missing
// on the same key both compute the (identical) value and the second store
// overwrites the first — wasted work, never wrong results.
type estimatorCache struct {
	mu     sync.RWMutex
	expand map[expandKey][][]graphsyn.NodeID
	edge   map[edgeKey]float64
	// exists is keyed by appendExistsKey.
	exists map[string]float64
}

func newEstimatorCache() *estimatorCache {
	return &estimatorCache{
		expand: make(map[expandKey][][]graphsyn.NodeID),
		edge:   make(map[edgeKey]float64),
		exists: make(map[string]float64),
	}
}

// size returns the total entry count (used to account evictions).
func (c *estimatorCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.expand) + len(c.edge) + len(c.exists)
}

// estCache returns the sketch's live memo table, creating it on first use.
func (sk *Sketch) estCache() *estimatorCache {
	if c := sk.est.cache.Load(); c != nil {
		return c
	}
	c := newEstimatorCache()
	if sk.est.cache.CompareAndSwap(nil, c) {
		return c
	}
	return sk.est.cache.Load()
}

// InvalidateEstimatorCache drops every memoized estimation sub-result.
// All rebuild paths call it automatically; callers that mutate the synopsis
// or the summaries directly (without RebuildNode) must call it themselves.
func (sk *Sketch) InvalidateEstimatorCache() {
	sk.est.gen.Add(1) // odd: invalidation in flight, snapshots retry
	old := sk.est.cache.Swap(nil)
	if old != nil {
		sk.est.evictions.Add(uint64(old.size()))
	}
	sk.est.gen.Add(1) // even: next epoch, eviction accounting visible
}

// EstimatorStats samples the cumulative estimation cache counters. It is
// safe to call concurrently with estimation — the xserve /metrics
// endpoint polls it on every scrape — and consistent with respect to cache
// invalidation: the generation counter is read before and after the
// individual loads, and the sample is retried while an invalidation is in
// flight (odd generation) or completed in between (generation changed).
// A sample therefore never mixes a pre-RebuildNode counter with a
// post-RebuildNode one, so a poller racing a rebuild cannot see the
// eviction total without the hits/misses that produced it. Concurrent
// *estimates* may still land between two loads within one generation;
// that only shifts work between adjacent intervals and can never make a
// delta go backwards (counters are monotonic).
func (sk *Sketch) EstimatorStats() EstimatorStats {
	eng := &sk.est
	for {
		g := eng.gen.Load()
		st := EstimatorStats{
			Hits:       eng.hits.Load(),
			Misses:     eng.misses.Load(),
			Evictions:  eng.evictions.Load(),
			Generation: g,
		}
		if g&1 == 0 && eng.gen.Load() == g {
			return st
		}
		// An invalidation was in flight; invalidations are short (one
		// pointer swap plus a size read), so the retry converges quickly.
	}
}

// Lookups returns the total memo-table lookups (hits + misses).
func (st EstimatorStats) Lookups() uint64 { return st.Hits + st.Misses }

// HitRate returns Hits / (Hits + Misses), or 0 when nothing was looked up.
func (st EstimatorStats) HitRate() float64 {
	n := st.Lookups()
	if n == 0 {
		return 0
	}
	return float64(st.Hits) / float64(n)
}

// Sub returns the counter deltas st - prev, for pollers converting
// cumulative counters into per-interval rates. Deltas are clamped at zero:
// with consistent snapshots the counters are monotonic, so a would-be
// negative delta can only mean prev came from a different sketch (or a
// hand-built value) and a huge wrapped uint64 would be strictly worse than
// zero. The Generation of the newer snapshot is carried through so callers
// can tell whether the interval crossed a mutation.
func (st EstimatorStats) Sub(prev EstimatorStats) EstimatorStats {
	return EstimatorStats{
		Hits:       monoDelta(st.Hits, prev.Hits),
		Misses:     monoDelta(st.Misses, prev.Misses),
		Evictions:  monoDelta(st.Evictions, prev.Evictions),
		Generation: st.Generation,
	}
}

// monoDelta is cur - prev clamped at zero for monotonic counters.
func monoDelta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// expandStep enumerates the synopsis-node sequences realizing one step from
// ctx, memoized per (ctx, axis, label). The cached slices are shared and
// must not be mutated by callers.
func (sk *Sketch) expandStep(ctx graphsyn.NodeID, step *pathexpr.Step) [][]graphsyn.NodeID {
	v, _ := sk.expandStepOutcome(ctx, step)
	return v
}

// expandStepOutcome is expandStep plus the estimator-cache outcome
// (trace.CacheHit / CacheMiss / CacheOff) for trace recording.
func (sk *Sketch) expandStepOutcome(ctx graphsyn.NodeID, step *pathexpr.Step) ([][]graphsyn.NodeID, string) {
	if sk.Cfg.DisableEstimatorCache {
		return sk.expandStepUncached(ctx, step), trace.CacheOff
	}
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

// estEdgeCount estimates |u -> v| (see estEdgeCountUncached), memoized per
// edge.
func (sk *Sketch) estEdgeCount(u, v graphsyn.NodeID) float64 {
	val, _ := sk.estEdgeCountOutcome(u, v)
	return val
}

// estEdgeCountOutcome is estEdgeCount plus the estimator-cache outcome for
// trace recording.
func (sk *Sketch) estEdgeCountOutcome(u, v graphsyn.NodeID) (float64, string) {
	if sk.Cfg.DisableEstimatorCache {
		return sk.estEdgeCountUncached(u, v), trace.CacheOff
	}
	c := sk.estCache()
	k := edgeKey{u, v}
	c.mu.RLock()
	val, ok := c.edge[k]
	c.mu.RUnlock()
	if ok {
		sk.est.hits.Add(1)
		return val, trace.CacheHit
	}
	sk.est.misses.Add(1)
	val = sk.estEdgeCountUncached(u, v)
	c.mu.Lock()
	c.edge[k] = val
	c.mu.Unlock()
	return val, trace.CacheMiss
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
// cached contents are independent of evaluation order.
func (sk *Sketch) existsFraction(id graphsyn.NodeID, steps []*pathexpr.Step, depth int) (float64, bool) {
	v, clean, _ := sk.existsFractionOutcome(id, steps, depth)
	return v, clean
}

// existsFractionOutcome is existsFraction plus the estimator-cache outcome
// for trace recording.
func (sk *Sketch) existsFractionOutcome(id graphsyn.NodeID, steps []*pathexpr.Step, depth int) (float64, bool, string) {
	if len(steps) == 0 {
		return 1, true, trace.CacheOff
	}
	if depth > maxExistsDepth {
		return 0, false, trace.CacheOff
	}
	if sk.Cfg.DisableEstimatorCache {
		v, clean := sk.existsFractionUncached(id, steps, depth)
		return v, clean, trace.CacheOff
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
