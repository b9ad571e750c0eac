// Package plan holds compiled query plans for the Twig XSKETCH estimator
// and the bounded LRU cache that stores them per sketch.
//
// EstimateQuery recomputes the maximal-twig expansion, the embedding
// enumeration and the TREEPARSE decomposition (paper Section 4) on every
// call, although all of it depends only on the query shape and the sketch
// state — not on any per-call input. A Program freezes that work once: it
// holds the deduplicated embedding list with, per embedding node, the
// precomputed TREEPARSE split (covered/uncovered children, ancestor-
// assigned dimensions), the constant factors (value/existence fractions,
// Forward Uniformity count products), and a direct reference to the
// node's edge histogram. The layout is flat: the nodes live in one array,
// each node's children in one contiguous run of it, and every node list
// is an int32 span into one of the program's three arrays (Nodes, Ints,
// Uses), so a node holds no slices. Executing a Program then performs
// only histogram lookups and float multiplications — in the identical
// order as the interpreter, so planned estimates are bit-identical to
// EstimateQuery (asserted in internal/xsketch's planner tests).
//
// The runtime assignment map of the interpreter (ancestor bucket choices
// keyed by scope edge) is compiled away into slots: a node evaluated under
// bucket enumeration binds each expanded dimension to a fixed slot index,
// and every descendant that conditions on that dimension reads the slot.
// Scratch state (slots, conditioning values, histogram match buffers) lives
// in one sync.Pool shared by every Program; a checked-out Scratch grows to
// the program's sizing counters, so steady-state execution allocates
// nothing (asserted via testing.AllocsPerRun) and a freshly compiled
// program pays for no pool of its own.
//
// Cache is a bounded LRU over Programs keyed by the query's canonical form
// (twig.Query.String), with a bounded set of normalized-text aliases per
// entry so equivalent spellings share one plan. Every Program carries the
// sketch generation it was compiled under; lookups discard entries whose
// generation no longer matches, which makes RebuildNode-style mutations
// invalidate plans without the cache ever observing the mutation directly.
//
// The package sits below internal/xsketch (which owns the compiler) and
// depends only on the query/histogram layers, keeping the dependency
// direction acyclic.
package plan
