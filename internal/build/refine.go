package build

import (
	"fmt"
	"slices"

	"xsketch/internal/graphsyn"
	core "xsketch/internal/xsketch"
)

// Op identifies one of the paper's six refinement operations (Section 5).
type Op int

const (
	// OpBStabilize splits a node so an incoming edge becomes B-stable.
	OpBStabilize Op = iota
	// OpFStabilize splits a node so an outgoing edge becomes F-stable.
	OpFStabilize
	// OpEdgeRefine grows a node's edge-histogram bucket budget.
	OpEdgeRefine
	// OpEdgeExpand adds a count dimension to a node's edge histogram.
	OpEdgeExpand
	// OpValueRefine grows a node's value-summary unit budget.
	OpValueRefine
	// OpValueExpand adds a value dimension to a node's extended histogram.
	OpValueExpand
)

// String names the operation the way experiment logs print it.
func (o Op) String() string {
	switch o {
	case OpBStabilize:
		return "b-stabilize"
	case OpFStabilize:
		return "f-stabilize"
	case OpEdgeRefine:
		return "edge-refine"
	case OpEdgeExpand:
		return "edge-expand"
	case OpValueRefine:
		return "value-refine"
	case OpValueExpand:
		return "value-expand"
	}
	return "?"
}

// Refinement describes one candidate operation, fully determined by its
// fields so it can be applied to any clone of the synopsis it was
// generated from.
type Refinement struct {
	Op Op
	// Node is the node whose summary is refined (all ops except the
	// structural splits, which identify their target via From/To).
	Node graphsyn.NodeID
	// From, To identify the synopsis edge: the stabilized edge for the
	// structural ops, or the added scope edge for edge-expand.
	From, To graphsyn.NodeID
	// Source is the node providing the values of a value-expand dimension.
	Source graphsyn.NodeID
	// Buckets is the new bucket/unit budget for the refine ops and the bin
	// count for value-expand.
	Buckets int
}

// target returns the node whose neighborhood the operation transforms,
// used to anchor the per-step workload resampling.
func (r Refinement) target() graphsyn.NodeID {
	switch r.Op {
	case OpBStabilize:
		return r.To
	case OpFStabilize:
		return r.From
	}
	return r.Node
}

// String renders the operation compactly, e.g. "b-stabilize(3->7)" or
// "edge-expand(n4 += 4->9)".
func (r Refinement) String() string {
	switch r.Op {
	case OpBStabilize, OpFStabilize:
		return fmt.Sprintf("%s(%d->%d)", r.Op, r.From, r.To)
	case OpEdgeRefine:
		return fmt.Sprintf("%s(n%d, %d buckets)", r.Op, r.Node, r.Buckets)
	case OpValueRefine:
		return fmt.Sprintf("%s(n%d, %d units)", r.Op, r.Node, r.Buckets)
	case OpEdgeExpand:
		return fmt.Sprintf("%s(n%d += %d->%d)", r.Op, r.Node, r.From, r.To)
	case OpValueExpand:
		return fmt.Sprintf("%s(n%d += values(n%d))", r.Op, r.Node, r.Source)
	}
	return r.Op.String()
}

// candidate pairs a refinement with nothing else today; the indirection
// keeps room for per-candidate scoring hints.
type candidate struct {
	ref Refinement
}

// candidates generates the full candidate set over the current synopsis in
// a fixed, deterministic order: structural splits over the sorted edge
// list, then per-node (ascending ID) budget growth, scope expansion and
// value expansion.
func (b *Builder) candidates() []candidate {
	sk := b.sk
	var out []candidate
	edges := sk.Syn.Edges()
	for _, e := range edges {
		if !e.BStable {
			out = append(out, candidate{Refinement{Op: OpBStabilize, From: e.From, To: e.To}})
		}
	}
	for _, e := range edges {
		if !e.FStable {
			out = append(out, candidate{Refinement{Op: OpFStabilize, From: e.From, To: e.To}})
		}
	}
	for _, n := range sk.Syn.Nodes() {
		s := sk.Summary(n.ID)
		if s == nil {
			continue
		}
		// edge-refine: only when compression saturated the budget (an
		// unsaturated histogram is already exact).
		if s.Hist != nil && s.Hist.Dims() > 0 && s.Hist.NumBuckets() >= s.Buckets {
			out = append(out, candidate{Refinement{Op: OpEdgeRefine, Node: n.ID, Buckets: s.Buckets * 2}})
		}
		// value-refine: only when the node stores a saturated value summary.
		// A zero ValueBuckets config means value summaries are deliberately
		// disabled (e.g. the value-free CST comparison), so no candidate.
		if s.ValueBuckets > 0 && s.VHist != nil && s.VHist.SizeUnits() >= s.ValueBuckets {
			out = append(out, candidate{Refinement{Op: OpValueRefine, Node: n.ID, Buckets: s.ValueBuckets * 2}})
		}
		// edge-expand, forward: any child edge not yet in scope (the
		// default scope holds only F-stable child edges).
		for _, c := range n.Children {
			e := core.ScopeEdge{From: n.ID, To: c}
			if !inScope(s.Scope, e) {
				out = append(out, candidate{Refinement{Op: OpEdgeExpand, Node: n.ID, From: e.From, To: e.To}})
			}
		}
		// edge-expand, backward: counts from strict B-stable ancestors
		// within TSN (the full model; gated because the paper's prototype
		// is forward-only).
		if b.opts.EnableBackwardExpand {
			anc := sk.Syn.BStableAncestors(n.ID)
			for _, a := range anc[1:] {
				for _, z := range sk.Syn.Node(a).Children {
					e := core.ScopeEdge{From: a, To: z}
					if !inScope(s.Scope, e) && sk.Syn.InTSN(n.ID, a, z) {
						out = append(out, candidate{Refinement{Op: OpEdgeExpand, Node: n.ID, From: a, To: z}})
					}
				}
			}
		}
		// value-expand: a dimension over the node's own values or a
		// child's values (paper Section 3.2, H^v).
		if s.ValuedCount > 0 && !hasValueDim(s, n.ID) {
			out = append(out, candidate{Refinement{Op: OpValueExpand, Node: n.ID, Source: n.ID, Buckets: b.opts.ValueExpandBins}})
		}
		for _, c := range n.Children {
			if cs := sk.Summary(c); cs != nil && cs.ValuedCount > 0 && !hasValueDim(s, c) {
				out = append(out, candidate{Refinement{Op: OpValueExpand, Node: n.ID, Source: c, Buckets: b.opts.ValueExpandBins}})
			}
		}
	}
	return out
}

func inScope(scope []core.ScopeEdge, e core.ScopeEdge) bool {
	for _, s := range scope {
		if s == e {
			return true
		}
	}
	return false
}

func hasValueDim(s *core.NodeSummary, source graphsyn.NodeID) bool {
	for _, vd := range s.ValueDims {
		if vd.Source == source {
			return true
		}
	}
	return false
}

// apply executes the refinement on the given sketch (typically a clone of
// the one it was generated from). It reports false when the operation
// turns out to be a no-op there — e.g. the split predicate does not
// partition the extent, or the expanded dimension does not survive
// validation.
func (b *Builder) apply(sk *core.Sketch, r Refinement) bool {
	switch r.Op {
	case OpBStabilize:
		newID, ok := sk.Syn.BStabilize(r.From, r.To)
		if !ok {
			return false
		}
		inheritSummary(sk, r.To, newID)
		b.rebuildAfterSplit(sk, r.To, newID)
	case OpFStabilize:
		newID, ok := sk.Syn.FStabilize(r.From, r.To)
		if !ok {
			return false
		}
		inheritSummary(sk, r.From, newID)
		b.rebuildAfterSplit(sk, r.From, newID)
	case OpEdgeRefine:
		s := sk.Summary(r.Node)
		if s == nil || r.Buckets <= s.Buckets {
			return false
		}
		sk.SetBuckets(r.Node, r.Buckets)
	case OpValueRefine:
		s := sk.Summary(r.Node)
		if s == nil || r.Buckets <= s.ValueBuckets {
			return false
		}
		sk.SetValueBuckets(r.Node, r.Buckets)
	case OpEdgeExpand:
		s := sk.Summary(r.Node)
		e := core.ScopeEdge{From: r.From, To: r.To}
		if s == nil || inScope(s.Scope, e) {
			return false
		}
		// The edge is not in the default scope (it is not in the scope
		// at all), so it survives the rebuild exactly when it stays in
		// ExtraScope; otherwise the candidate is inapplicable.
		return sk.AddScopeEdge(r.Node, e)
	case OpValueExpand:
		return sk.AddValueDim(r.Node, r.Source, r.Buckets)
	default:
		return false
	}
	return true
}

// inheritSummary seeds the summary of a node split off from `from` with
// the parent node's budgets, expanded scope and value dimensions (its
// extent is a subset of the old one, so the old construction decisions are
// the best available prior). Forward extra-scope edges are rewritten to
// originate from the new node; everything is revalidated on rebuild.
func inheritSummary(sk *core.Sketch, from, to graphsyn.NodeID) {
	src := sk.Summaries[from]
	if src == nil {
		return
	}
	dst := &core.NodeSummary{
		Buckets:      src.Buckets,
		ValueBuckets: src.ValueBuckets,
		ValueDims:    append([]*core.ValueDim(nil), src.ValueDims...),
	}
	for _, e := range src.ExtraScope {
		if e.From == from {
			e.From = to
		}
		dst.ExtraScope = append(dst.ExtraScope, e)
	}
	sk.Summaries[to] = dst
}

// rebuildAfterSplit recomputes the summaries invalidated by splitting v
// into (v, w). With backward expand enabled, scope edges can reference
// arbitrary B-stable ancestors, whose chains a split may change, so
// everything is rebuilt. Forward-only, a summary reads its own extent,
// its elements' children and the F-stable edges out of its node. So only
// these change:
//   - v and w, whose extents changed;
//   - a parent whose scope, extra scope or value dimensions name v, or
//     whose edge to v or w is now F-stable: its counts or value
//     coordinates for v are split between v and w.
//
// A child keeps its extent, its children and its out-edges, and with
// forward-only scopes its B-stable chain is never read, so its summary
// is unchanged. The other parents have neither v nor w in scope, so their
// histograms count nothing that moved.
func (b *Builder) rebuildAfterSplit(sk *core.Sketch, v, w graphsyn.NodeID) {
	if b.opts.EnableBackwardExpand {
		sk.RebuildAll()
		return
	}
	sk.RebuildNode(v)
	sk.RebuildNode(w)
	parents := append(slices.Clone(sk.Syn.Node(v).Parents), sk.Syn.Node(w).Parents...)
	slices.Sort(parents)
	for _, p := range slices.Compact(parents) {
		if p != v && p != w && readsSplit(sk, p, v, w) {
			sk.RebuildNode(p)
		}
	}
}

// readsSplit reports whether node p's summary must be rebuilt after v
// split into (v, w): its scope, extra scope or value dimensions name v
// or w, or one of its edges to them is F-stable and so joins its default
// scope.
func readsSplit(sk *core.Sketch, p, v, w graphsyn.NodeID) bool {
	split := func(x graphsyn.NodeID) bool { return x == v || x == w }
	s := sk.Summary(p)
	for _, e := range s.Scope {
		if split(e.To) {
			return true
		}
	}
	for _, e := range s.ExtraScope {
		if split(e.To) {
			return true
		}
	}
	for _, vd := range s.ValueDims {
		if split(vd.Source) {
			return true
		}
	}
	for _, x := range [2]graphsyn.NodeID{v, w} {
		if e := sk.Syn.Edge(p, x); e != nil && e.FStable {
			return true
		}
	}
	return false
}
