package xsketch

import (
	"fmt"

	"xsketch/internal/graphsyn"
	"xsketch/internal/histogram"
	"xsketch/internal/xmltree"
)

// ScopeEdge identifies one count dimension of a node's edge histogram: the
// synopsis edge From -> To. For a forward count, From is the histogram's
// own node; for a backward count, From is a strict B-stable ancestor of it
// (paper Section 3.2).
type ScopeEdge struct {
	From, To graphsyn.NodeID
}

// NodeSummary holds the distribution information stored for one synopsis
// node: the edge-histogram scope, its bucket budget and compressed
// histogram, and the value histogram for nodes whose elements carry values.
type NodeSummary struct {
	// Scope lists the histogram dimensions in deterministic order: forward
	// counts first (ascending To), then backward counts (ascending
	// ancestor-distance, then To).
	Scope []ScopeEdge
	// Buckets is the bucket budget for the edge histogram.
	Buckets int
	// Hist is the compressed edge histogram over Scope.
	Hist *histogram.Histogram
	// ValueBuckets is the unit budget (buckets or wavelet coefficients) for
	// the value summary; 0 disables it.
	ValueBuckets int
	// VHist approximates the distribution of element values under the node
	// (an equi-depth histogram or a Haar wavelet synopsis, per
	// Config.WaveletValues); nil when the node has no valued elements or
	// ValueBuckets is 0.
	VHist histogram.ValueSummary
	// ExtraScope records scope edges added by edge-expand refinements, so
	// rebuilds after structural splits can try to preserve them.
	ExtraScope []ScopeEdge
	// ValueDims are the value dimensions of the extended histogram H^v
	// (paper Section 3.2), appended after the Scope count dimensions.
	// They are inserted by the value-expand refinement.
	ValueDims []*ValueDim
	// ValuedCount is the number of extent elements carrying a value
	// (maintained on rebuild; used by construction to find value-expand
	// candidates).
	ValuedCount int
}

// Config controls synopsis construction and estimation behaviour.
type Config struct {
	// InitialEdgeBuckets is the bucket budget of each node's edge histogram
	// in the coarsest synopsis.
	InitialEdgeBuckets int
	// InitialValueBuckets is the unit budget of each node's value summary
	// in the coarsest synopsis (0 disables value summaries).
	InitialValueBuckets int
	// WaveletValues selects Haar wavelet synopses instead of equi-depth
	// histograms for the per-node value summaries (the paper's "histograms
	// or wavelets").
	WaveletValues bool
	// StoreEdgeCounts stores the exact per-edge element count |u -> v| in
	// the synopsis (charged by the size model) instead of estimating
	// unstable edges by distributing |v| across v's parents. The paper's
	// XSKETCH model stores only stability bits; this option is a measured
	// design alternative (see the ablation benches).
	StoreEdgeCounts bool
	// MaxDescendantPathLen bounds the synopsis-path length used to expand
	// the '//' axis during embedding enumeration.
	MaxDescendantPathLen int
	// MaxEmbeddings bounds the number of embeddings enumerated per query
	// (safety valve for pathological synopses); 0 means no bound. When the
	// bound is hit, enumeration returns the (truncated) embeddings found so
	// far and flags the result (see EmbeddingsTruncated, EstimateResult).
	MaxEmbeddings int
	// DisableEstimatorCache turns off the per-sketch memo tables for
	// estimation sub-results (expandStep, estEdgeCount, existsFraction).
	// Estimates are identical either way; the switch exists for measuring
	// the cache's effect and as a safety valve.
	DisableEstimatorCache bool
	// PlanCacheSize bounds the number of compiled query plans the sketch
	// retains in its LRU plan cache (see PlanQueryText). 0 selects
	// DefaultPlanCacheSize; a negative value disables the plan cache, so
	// every planned call compiles afresh. Estimates are identical either
	// way.
	PlanCacheSize int
	// SizeModel prices the stored summary.
	SizeModel graphsyn.SizeModel
}

// DefaultConfig mirrors the paper's prototype: forward-only scopes over
// F-stable child edges, minimal initial budgets.
func DefaultConfig() Config {
	return Config{
		InitialEdgeBuckets:   1,
		InitialValueBuckets:  1,
		MaxDescendantPathLen: 10,
		MaxEmbeddings:        100000,
		SizeModel:            graphsyn.DefaultSizeModel(),
	}
}

// Sketch is a Twig XSKETCH synopsis. Estimation methods are safe for
// concurrent use; mutation (refinements, rebuilds) requires exclusive
// access and invalidates the estimation cache (see estcache.go).
type Sketch struct {
	Syn       *graphsyn.Synopsis
	Summaries map[graphsyn.NodeID]*NodeSummary
	Cfg       Config

	// est holds the estimation memo tables and their counters. Its zero
	// value is ready to use, so the struct-literal constructors (New,
	// FromSynopsis, FromStored, Clone) need no extra setup; clones start
	// with an empty cache.
	est estEngine

	// plans holds the lazily created compiled-plan cache (planner.go).
	// Like est, its zero value is ready, keeping the struct-literal
	// constructors valid; clones start with an empty plan cache.
	plans planHandle
}

// New builds the coarsest Twig XSKETCH for a document: the label split
// graph with, per node, an edge histogram over its forward-stable child
// edges (paper Section 5, initial synopsis S0) and a value histogram when
// the node's elements carry values.
func New(d *xmltree.Document, cfg Config) *Sketch {
	sk := &Sketch{
		Syn:       graphsyn.LabelSplit(d),
		Summaries: make(map[graphsyn.NodeID]*NodeSummary),
		Cfg:       cfg,
	}
	sk.RebuildAll()
	return sk
}

// FromSynopsis wraps an existing graph synopsis (used by the construction
// algorithm after structural refinements and by tests).
func FromSynopsis(s *graphsyn.Synopsis, cfg Config) *Sketch {
	sk := &Sketch{Syn: s, Summaries: make(map[graphsyn.NodeID]*NodeSummary), Cfg: cfg}
	sk.RebuildAll()
	return sk
}

// Clone returns a deep copy. Histograms are immutable and shared.
func (sk *Sketch) Clone() *Sketch {
	c := &Sketch{
		Syn:       sk.Syn.Clone(),
		Summaries: make(map[graphsyn.NodeID]*NodeSummary, len(sk.Summaries)),
		Cfg:       sk.Cfg,
	}
	for id, s := range sk.Summaries {
		cs := *s
		cs.Scope = append([]ScopeEdge(nil), s.Scope...)
		cs.ExtraScope = append([]ScopeEdge(nil), s.ExtraScope...)
		// ValueDims are immutable after construction; sharing them is safe.
		cs.ValueDims = append([]*ValueDim(nil), s.ValueDims...)
		c.Summaries[id] = &cs
	}
	return c
}

// RebuildAll recomputes every node's scope and histograms from the current
// partition, preserving per-node bucket budgets and previously expanded
// scope edges where they remain valid.
func (sk *Sketch) RebuildAll() {
	for _, n := range sk.Syn.Nodes() {
		sk.RebuildNode(n.ID)
	}
	// Drop summaries of nodes that no longer exist (IDs only grow in
	// graphsyn, so this only matters for maps carried across documents).
	for id := range sk.Summaries {
		if int(id) >= sk.Syn.NumNodes() {
			delete(sk.Summaries, id)
		}
	}
}

// RebuildNode recomputes the scope and histograms of one node. The default
// scope is the node's F-stable child edges; surviving ExtraScope edges
// (still existing and still inside TSN) are appended. Any rebuild
// invalidates the estimation cache: memoized sub-results reference the
// synopsis structure and the summaries, both of which may have changed.
func (sk *Sketch) RebuildNode(id graphsyn.NodeID) {
	if sk.Syn.Detached() {
		panic("xsketch: cannot rebuild a detached sketch (loaded without its document)")
	}
	sk.InvalidateEstimatorCache()
	s := sk.Summaries[id]
	if s == nil {
		s = &NodeSummary{
			Buckets:      sk.Cfg.InitialEdgeBuckets,
			ValueBuckets: sk.Cfg.InitialValueBuckets,
		}
		sk.Summaries[id] = s
	}
	s.Scope = sk.defaultScope(id)
	var kept []ScopeEdge
	for _, e := range s.ExtraScope {
		if sk.scopeEdgeValid(id, e) && !containsScope(s.Scope, e) {
			s.Scope = append(s.Scope, e)
			kept = append(kept, e)
		}
	}
	s.ExtraScope = kept
	var keptDims []*ValueDim
	for _, vd := range s.ValueDims {
		if sk.valueDimValid(id, vd) {
			keptDims = append(keptDims, vd)
		}
	}
	s.ValueDims = keptDims
	sk.rebuildHistograms(id, s)
}

// SetBuckets changes a node's edge-histogram bucket budget and rebuilds the
// node so the new resolution takes effect and the estimator cache is
// invalidated. It reports whether the node has a summary. Callers must not
// set NodeSummary.Buckets directly (the sketchmutate analyzer enforces
// this): a bare field write leaves the histogram and cache stale.
func (sk *Sketch) SetBuckets(id graphsyn.NodeID, buckets int) bool {
	s := sk.Summaries[id]
	if s == nil {
		return false
	}
	s.Buckets = buckets
	sk.RebuildNode(id)
	return true
}

// AddScopeEdge appends an extra scope edge to a node's summary and rebuilds
// the node, reporting whether the edge survived scope validation. Like
// SetBuckets, this is the approved route: appending to ExtraScope directly
// bypasses histogram rebuild and cache invalidation.
func (sk *Sketch) AddScopeEdge(id graphsyn.NodeID, e ScopeEdge) bool {
	s := sk.Summaries[id]
	if s == nil {
		return false
	}
	s.ExtraScope = append(s.ExtraScope, e)
	sk.RebuildNode(id)
	for _, kept := range sk.Summaries[id].ExtraScope {
		if kept == e {
			return true
		}
	}
	return false
}

// defaultScope returns the forward counts to F-stable children, the
// paper's initial-synopsis scope, in ascending child-ID order.
func (sk *Sketch) defaultScope(id graphsyn.NodeID) []ScopeEdge {
	n := sk.Syn.Node(id)
	var scope []ScopeEdge
	for _, c := range n.Children {
		if e := sk.Syn.Edge(id, c); e != nil && e.FStable {
			scope = append(scope, ScopeEdge{From: id, To: c})
		}
	}
	return scope
}

// scopeEdgeValid reports whether a scope edge may appear in node id's
// histogram: the edge must exist and lie within TSN(id) (Definition 3.1).
func (sk *Sketch) scopeEdgeValid(id graphsyn.NodeID, e ScopeEdge) bool {
	if e.From == id {
		return sk.Syn.Edge(e.From, e.To) != nil
	}
	return sk.Syn.InTSN(id, e.From, e.To)
}

// rebuildHistograms recomputes the edge and value histograms of a node from
// its extent under the current scope, value dimensions and budgets.
func (sk *Sketch) rebuildHistograms(id graphsyn.NodeID, s *NodeSummary) {
	sparse, err := sk.jointDistribution(id, s.Scope, s.ValueDims)
	if err != nil {
		// Scope invalid (should not happen after validation); degrade to an
		// empty scope rather than panicking mid-build.
		s.Scope = nil
		s.ValueDims = nil
		sparse, _ = sk.jointDistribution(id, nil, nil)
	}
	s.Hist = histogram.Compress(sparse, s.Buckets)

	s.VHist = nil
	var vals []int64
	d := sk.Syn.Doc
	for _, e := range sk.Syn.Node(id).Extent {
		if n := d.Node(e); n.HasValue {
			vals = append(vals, n.Value)
		}
	}
	s.ValuedCount = len(vals)
	if s.ValueBuckets > 0 && len(vals) > 0 {
		if sk.Cfg.WaveletValues {
			s.VHist = histogram.NewWavelet(vals, s.ValueBuckets)
		} else {
			s.VHist = histogram.NewValueHistogram(vals, s.ValueBuckets)
		}
	}
}

// EdgeDistribution computes the exact edge distribution f_id over the given
// scope: for every element of the node's extent, the vector of (a) child
// counts into each forward-scope target and (b) for backward scope edges
// (a -> z), the number of children in z of the element's unique B-stable
// ancestor in a. Frequencies are normalized fractions of the extent.
func (sk *Sketch) EdgeDistribution(id graphsyn.NodeID, scope []ScopeEdge) (*histogram.Sparse, error) {
	return sk.jointDistribution(id, scope, nil)
}

// jointDistribution extends EdgeDistribution with value dimensions: each
// element additionally contributes the bucketized value coordinates of the
// given ValueDims (0 meaning "no value"), yielding the paper's extended
// histogram H^v over counts and values jointly.
func (sk *Sketch) jointDistribution(id graphsyn.NodeID, scope []ScopeEdge, vdims []*ValueDim) (*histogram.Sparse, error) {
	n := sk.Syn.Node(id)
	d := sk.Syn.Doc
	anc := sk.Syn.BStableAncestors(id)
	ancDepth := make(map[graphsyn.NodeID]int, len(anc))
	for depth, a := range anc {
		ancDepth[a] = depth
	}
	type dimSpec struct {
		depth int // 0 = the node itself
		to    graphsyn.NodeID
	}
	specs := make([]dimSpec, len(scope))
	for i, e := range scope {
		depth, ok := ancDepth[e.From]
		if !ok {
			return nil, fmt.Errorf("xsketch: scope edge %d->%d not on the B-stable ancestor chain of node %d", e.From, e.To, id)
		}
		specs[i] = dimSpec{depth: depth, to: e.To}
	}
	dims := len(scope) + len(vdims)
	sparse := histogram.NewSparse(dims)
	coords := make([]int32, dims)
	for _, e := range n.Extent {
		for i, spec := range specs {
			anchor := e
			for k := 0; k < spec.depth; k++ {
				anchor = d.Node(anchor).Parent
				if anchor == xmltree.NilNode {
					break
				}
			}
			count := int32(0)
			if anchor != xmltree.NilNode {
				for _, c := range d.Node(anchor).Children {
					if sk.Syn.NodeOf(c) == spec.to {
						count++
					}
				}
			}
			coords[i] = count
		}
		for k, vd := range vdims {
			coords[len(scope)+k] = sk.valueCoord(e, id, vd)
		}
		sparse.Add(coords, 1)
	}
	sparse.Normalize()
	return sparse, nil
}

// Summary returns the stored summary of a node (never nil after
// construction).
func (sk *Sketch) Summary(id graphsyn.NodeID) *NodeSummary { return sk.Summaries[id] }

// Document returns the source document the synopsis summarizes, or nil
// for detached sketches (loaded from a standalone catalog), which carry
// only a structural stub — consumers needing exact ground truth (the
// accuracy auditor) must treat those as unauditable online.
func (sk *Sketch) Document() *xmltree.Document {
	if sk.Syn == nil || sk.Syn.Detached() {
		return nil
	}
	return sk.Syn.Doc
}

// SizeBytes prices the stored synopsis under the size model: structural
// summary + per-node scope descriptors and histogram buckets + value
// histogram buckets (each value bucket charged as two bounds plus a count).
func (sk *Sketch) SizeBytes() int {
	m := sk.Cfg.SizeModel
	total := m.StructureBytes(sk.Syn)
	if sk.Cfg.StoreEdgeCounts {
		// One stored count per edge.
		total += sk.Syn.NumEdges() * m.BucketFreqBytes
	}
	for _, s := range sk.Summaries {
		total += len(s.Scope) * m.BucketDimBytes // scope edge references
		for _, vd := range s.ValueDims {
			// A value dimension stores its source reference and bin bounds.
			total += m.BucketDimBytes + len(vd.Bounds)*m.BucketDimBytes
		}
		if s.Hist != nil {
			total += s.Hist.NumBuckets() * m.BucketBytes(len(s.Scope)+len(s.ValueDims))
		}
		if s.VHist != nil {
			total += s.VHist.SizeUnits() * (2*m.BucketDimBytes + m.BucketFreqBytes)
		}
	}
	return total
}

// Validate cross-checks the synopsis invariants plus summary consistency:
// every node has a summary, every scope edge is valid, and histogram
// dimensionalities match scope sizes.
func (sk *Sketch) Validate() error {
	if err := sk.Syn.Validate(); err != nil {
		return err
	}
	for _, n := range sk.Syn.Nodes() {
		s := sk.Summaries[n.ID]
		if s == nil {
			return fmt.Errorf("xsketch: node %d lacks a summary", n.ID)
		}
		for _, e := range s.Scope {
			if !sk.scopeEdgeValid(n.ID, e) {
				return fmt.Errorf("xsketch: node %d scope edge %d->%d invalid", n.ID, e.From, e.To)
			}
		}
		for _, vd := range s.ValueDims {
			if !sk.valueDimValid(n.ID, vd) {
				return fmt.Errorf("xsketch: node %d value dim %s invalid", n.ID, vd)
			}
		}
		if s.Hist == nil {
			return fmt.Errorf("xsketch: node %d lacks an edge histogram", n.ID)
		}
		if want := len(s.Scope) + len(s.ValueDims); s.Hist.Dims() != want {
			return fmt.Errorf("xsketch: node %d histogram dims %d != scope+vdims %d", n.ID, s.Hist.Dims(), want)
		}
	}
	return nil
}

// String summarizes the sketch for diagnostics.
func (sk *Sketch) String() string {
	return fmt.Sprintf("xsketch{%s, %d bytes}", sk.Syn, sk.SizeBytes())
}

// scopeIndex returns the index of edge within scope, or -1.
func scopeIndex(scope []ScopeEdge, e ScopeEdge) int {
	for i, s := range scope {
		if s == e {
			return i
		}
	}
	return -1
}

func containsScope(scope []ScopeEdge, e ScopeEdge) bool { return scopeIndex(scope, e) >= 0 }
