// Package graphsyn implements the generic graph-synopsis model underlying
// XSKETCHes (paper Section 3.1): a partition of document elements into
// synopsis nodes of equal tag, with edges between nodes whose extents are
// linked by document edges, annotated with backward/forward stability.
//
// An edge u -> v is Backward-stable when every element of extent(v) has its
// parent in extent(u), and Forward-stable when every element of extent(u)
// has at least one child in extent(v).
//
// The synopsis keeps the full element-to-node assignment so construction
// refinements (node splits) and distribution computations can consult
// extents; the *stored* summary that the size model charges for consists
// only of node tags, extent counts and per-edge stability bits, as in the
// paper.
//
// Synopses are copy-on-write: Clone is O(1), and a split copies only the
// nodes and assignment pages it changes, so XBUILD's many candidate clones
// share almost all of one synopsis.
package graphsyn
