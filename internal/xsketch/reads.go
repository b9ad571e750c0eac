package xsketch

import (
	"xsketch/internal/graphsyn"
	"xsketch/internal/twig"
)

// Reads records what an estimate depends on, by synopsis node: Structure
// holds the nodes whose adjacency, extent count or outgoing edges it read,
// Summary the nodes whose stored summary it read. XBUILD uses it to score
// a candidate refinement by re-estimating only the queries whose reads
// meet what the refinement changed (see ChangedFrom).
type Reads struct {
	Structure, Summary graphsyn.NodeSet
}

// Meets reports whether r and o share a node in either set.
func (r Reads) Meets(o Reads) bool {
	return r.Structure.Meets(o.Structure) || r.Summary.Meets(o.Summary)
}

// EstimateReads estimates q like EstimateQueryResult and also returns the
// nodes the estimate read. It runs on a private, initially empty
// estimation cache, so every memoized sub-result the query uses is
// computed, and its reads recorded, for this query; memoized values equal
// recomputed ones, so the estimate is Float64bits-equal to
// EstimateQueryResult's.
func (sk *Sketch) EstimateReads(q *twig.Query) (EstimateResult, Reads) {
	var r Reads
	view := &Sketch{Syn: sk.Syn, Summaries: sk.Summaries, Cfg: sk.Cfg, reads: &r}
	return view.EstimateQueryResult(q), r
}

// ChangedFrom returns what sk changed relative to base, the sketch it was
// cloned from: Structure holds every node sk's synopsis replaced or added
// (a split replaces exactly the nodes whose extent, adjacency or outgoing
// edges it changes), Summary every node whose summary sk replaced or
// added (every summary mutator installs a fresh summary). An estimate
// whose Reads do not meet the result reads only state the two sketches
// share, so it is the same on both.
func (sk *Sketch) ChangedFrom(base *Sketch) Reads {
	var r Reads
	for _, n := range sk.Syn.Nodes() {
		if int(n.ID) >= base.Syn.NumNodes() || n != base.Syn.Node(n.ID) {
			r.Structure.Add(n.ID)
		}
	}
	for _, n := range sk.Syn.Nodes() {
		if sk.Summaries[n.ID] != base.Summaries[n.ID] {
			r.Summary.Add(n.ID)
		}
	}
	return r
}

// readStructure records that the estimate in progress read node id's
// adjacency, count or outgoing edges (a no-op outside EstimateReads).
func (sk *Sketch) readStructure(id graphsyn.NodeID) {
	if sk.reads != nil {
		sk.reads.Structure.Add(id)
	}
}

// readSummary records that the estimate in progress read node id's
// summary (a no-op outside EstimateReads).
func (sk *Sketch) readSummary(id graphsyn.NodeID) {
	if sk.reads != nil {
		sk.reads.Summary.Add(id)
	}
}
