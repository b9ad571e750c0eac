package xsketch

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"xsketch/internal/graphsyn"
	"xsketch/internal/pathexpr"
	"xsketch/internal/xmltree"
)

// This file implements the paper's extended value histograms H^v (Section
// 3.2): joint distributions over element values and edge counts within the
// twig stable neighborhood. Structurally, a node's edge histogram gains
// *value dimensions*: bucketized values of the node's own elements or of a
// child node's elements. The value-expand refinement (Section 5) inserts
// such a dimension, capturing correlations like "movies whose type is
// Action have many actors" that the independent per-node value histograms
// miss.

// ValueDim is one value dimension of a node's extended histogram.
type ValueDim struct {
	// Source is the synopsis node providing the value: the histogram's own
	// node (the element's value) or one of its children (the value of the
	// element's first valued child in Source — exact when elements have a
	// single such child, e.g. a movie's type).
	Source graphsyn.NodeID
	// Bounds are the inclusive upper bounds of the value bins (ascending);
	// Los are the corresponding smallest observed values, so each bin's
	// span is tight around the data (a point predicate on a bin holding a
	// single distinct value estimates exactly). Bin coordinates are
	// 1-based; coordinate 0 means "no value present".
	Bounds []int64
	Los    []int64
	// Lo is the minimum observed value (equals Los[0]).
	Lo int64
}

// bins returns the number of value bins.
func (vd *ValueDim) bins() int { return len(vd.Bounds) }

// binOf maps a value to its 1-based bin coordinate.
func (vd *ValueDim) binOf(v int64) int32 {
	idx := sort.Search(len(vd.Bounds), func(i int) bool { return vd.Bounds[i] >= v })
	if idx >= len(vd.Bounds) {
		idx = len(vd.Bounds) - 1
	}
	return int32(idx + 1)
}

// binRange returns the tight inclusive value range of a 1-based bin
// coordinate.
func (vd *ValueDim) binRange(bin int32) (lo, hi int64) {
	i := int(bin) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vd.Bounds) {
		i = len(vd.Bounds) - 1
	}
	return vd.Los[i], vd.Bounds[i]
}

// overlap estimates the fraction of a bin's values satisfying the
// predicate, assuming values spread uniformly over the bin's range.
// Coordinate 0 ("no value") never satisfies a predicate.
func (vd *ValueDim) overlap(coord float64, pred *pathexpr.ValuePred) float64 {
	bin := int32(coord + 0.5)
	if bin <= 0 {
		return 0
	}
	lo, hi := vd.binRange(bin)
	olo, ohi := lo, hi
	if pred.Lo > olo {
		olo = pred.Lo
	}
	if pred.Hi < ohi {
		ohi = pred.Hi
	}
	if ohi < olo {
		return 0
	}
	// A dimension whose bin range is inverted (possible only through a
	// corrupt serialized sketch) must not turn into a NaN or negative
	// selectivity here.
	den := hi - lo + 1
	if den <= 0 {
		return 0
	}
	return float64(ohi-olo+1) / float64(den)
}

// Overlap is the exported form of overlap. It implements the plan
// package's Overlapper interface, so compiled query plans evaluate
// value-dimension uses with the identical arithmetic as the interpreter.
func (vd *ValueDim) Overlap(coord float64, pred *pathexpr.ValuePred) float64 {
	return vd.overlap(coord, pred)
}

// valueDimKey identifies one value dimension's inputs: the source node,
// its extent (by identity: extents are immutable, so the same backing
// array and length is the same element set) and the bin count.
type valueDimKey struct {
	source graphsyn.NodeID
	first  *xmltree.NodeID
	n      int
	bins   int
}

// valueDimMemo caches newValueDim results for a sketch and all its clones,
// so value-expand candidates on an unchanged source do not sort its values
// again at every build step. ValueDims are immutable, so sharing them is
// safe; the mutex makes the memo safe for clones refined concurrently.
type valueDimMemo struct {
	mu sync.Mutex
	m  map[valueDimKey]*ValueDim
}

func newValueDimMemo() *valueDimMemo {
	return &valueDimMemo{m: make(map[valueDimKey]*ValueDim)}
}

// valueDim returns the memoized value dimension for source with the given
// bin count, building it on first use. A nil memo builds directly.
func (sk *Sketch) valueDim(source graphsyn.NodeID, bins int) *ValueDim {
	m := sk.valueDims
	extent := sk.Syn.Node(source).Extent
	if m == nil || len(extent) == 0 {
		return sk.newValueDim(source, bins)
	}
	k := valueDimKey{source: source, first: &extent[0], n: len(extent), bins: bins}
	m.mu.Lock()
	vd, ok := m.m[k]
	m.mu.Unlock()
	if ok {
		return vd
	}
	vd = sk.newValueDim(source, bins)
	m.mu.Lock()
	m.m[k] = vd
	m.mu.Unlock()
	return vd
}

// newValueDim builds a ValueDim with equi-depth bins over the values
// observed at source (its elements' own values). It returns nil when
// source has no values.
func (sk *Sketch) newValueDim(source graphsyn.NodeID, bins int) *ValueDim {
	if bins < 1 {
		bins = 1
	}
	d := sk.Syn.Doc
	var vals []int64
	for _, e := range sk.Syn.Node(source).Extent {
		if n := d.Node(e); n.HasValue {
			vals = append(vals, n.Value)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	slices.Sort(vals)
	vd := &ValueDim{Source: source, Lo: vals[0]}
	per := (len(vals) + bins - 1) / bins
	lo := vals[0]
	prev := int64(0)
	for i := per - 1; i < len(vals); i += per {
		ub := vals[i]
		if n := len(vd.Bounds); n == 0 || prev < ub {
			vd.Bounds = append(vd.Bounds, ub)
			vd.Los = append(vd.Los, lo)
			prev = ub
			// The next bin's tight lower bound is the first value above ub.
			j := sort.Search(len(vals), func(k int) bool { return vals[k] > ub })
			if j < len(vals) {
				lo = vals[j]
			}
		}
	}
	if last := vals[len(vals)-1]; len(vd.Bounds) == 0 || vd.Bounds[len(vd.Bounds)-1] < last {
		vd.Bounds = append(vd.Bounds, last)
		vd.Los = append(vd.Los, lo)
	}
	return vd
}

// valueDimValid reports whether a value dimension may appear on node id:
// its source must be the node itself or one of its children, and must
// still carry values.
func (sk *Sketch) valueDimValid(id graphsyn.NodeID, vd *ValueDim) bool {
	if len(vd.Bounds) == 0 || len(vd.Los) != len(vd.Bounds) {
		return false
	}
	// Bin shape invariants: each bin is a non-empty range and bounds grow
	// strictly, so binRange/overlap never see an inverted bin. Serialized
	// sketches are the only source of shapes that violate this.
	for i := range vd.Bounds {
		if vd.Los[i] > vd.Bounds[i] {
			return false
		}
		if i > 0 && vd.Bounds[i-1] >= vd.Bounds[i] {
			return false
		}
	}
	if vd.Source != id {
		found := false
		for _, c := range sk.Syn.Node(id).Children {
			if c == vd.Source {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if sk.Syn.Detached() {
		// No extents to consult; the bin-shape and source checks above are
		// the full detached validation (a stored dimension was valid when
		// the sketch was built, and detached sketches never rebuild).
		return true
	}
	d := sk.Syn.Doc
	for _, e := range sk.Syn.Node(vd.Source).Extent {
		if d.Node(e).HasValue {
			return true
		}
	}
	return false
}

// valueCoord computes the value-dimension coordinate of element e of the
// histogram's node: the bin of e's own value (self source) or of e's first
// valued child in the source node; 0 when no value is present.
func (sk *Sketch) valueCoord(e xmltree.NodeID, id graphsyn.NodeID, vd *ValueDim) int32 {
	d := sk.Syn.Doc
	if vd.Source == id {
		if n := d.Node(e); n.HasValue {
			return vd.binOf(n.Value)
		}
		return 0
	}
	for _, c := range d.Node(e).Children {
		if sk.Syn.NodeOf(c) == vd.Source {
			if n := d.Node(c); n.HasValue {
				return vd.binOf(n.Value)
			}
		}
	}
	return 0
}

// AddValueDim appends a value dimension for source to node id's extended
// histogram and rebuilds it. It reports whether the dimension was added
// (false when invalid or already present).
func (sk *Sketch) AddValueDim(id, source graphsyn.NodeID, bins int) bool {
	s := sk.Summaries[id]
	if s == nil {
		return false
	}
	for _, vd := range s.ValueDims {
		if vd.Source == source {
			return false
		}
	}
	vd := sk.valueDim(source, bins)
	if vd == nil || !sk.valueDimValid(id, vd) {
		return false
	}
	s = sk.ownSummary(id)
	s.ValueDims = append(slices.Clip(s.ValueDims), vd)
	sk.RebuildNode(id)
	// Rebuild may drop an invalid dimension; confirm it survived.
	for _, kept := range sk.Summaries[id].ValueDims {
		if kept.Source == source {
			return true
		}
	}
	return false
}

// valueDimIndex returns the histogram dimension index of the value dim with
// the given source, or -1. Value dimensions follow the scope edges.
func (s *NodeSummary) valueDimIndex(source graphsyn.NodeID) int {
	for k, vd := range s.ValueDims {
		if vd.Source == source {
			return len(s.Scope) + k
		}
	}
	return -1
}

// describeValueDim renders a value dimension for diagnostics.
func (vd *ValueDim) String() string {
	return fmt.Sprintf("vdim{source %d, %d bins, [%d..%d]}", vd.Source, vd.bins(), vd.Lo, vd.Bounds[len(vd.Bounds)-1])
}
