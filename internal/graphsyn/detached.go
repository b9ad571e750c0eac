package graphsyn

import (
	"fmt"

	"xsketch/internal/xmltree"
)

// Detached synopses: graph summaries reconstructed from a standalone
// stored form (internal/catalog) with no document behind them. A detached
// synopsis carries per-node extent *counts* instead of extents, so every
// estimation read — Count, Edge, TSN, adjacency — behaves exactly as on
// the original synopsis, while repartitioning operations (Split,
// RecomputeEdges) are unavailable: they need element-level data that was
// deliberately left out of the stored form.

// DetachedNodeSpec describes one node of a detached synopsis.
type DetachedNodeSpec struct {
	// Tag is the node's tag in the stub document's tag table.
	Tag xmltree.TagID
	// Count is the extent size |u| of the original node.
	Count int
}

// DetachedEdgeSpec describes one edge of a detached synopsis. Stability
// flags are not part of the spec: they are derived from the counts exactly
// as RecomputeEdges derives them, so a stored synopsis can never carry
// flags inconsistent with its own counts.
type DetachedEdgeSpec struct {
	From, To NodeID
	// ChildCount is the number of elements of To whose parent lies in From.
	ChildCount int
	// ParentCount is the number of elements of From with >= 1 child in To.
	ParentCount int
}

// FromDetached reconstructs a synopsis from its stored structural form:
// a stub document carrying the tag table (see xmltree.NewStubDocument),
// the synopsis node containing the document root, and flat node/edge
// specs. The result is read-only in the repartitioning sense — Split and
// RecomputeEdges panic — but fully supports estimation.
func FromDetached(doc *xmltree.Document, root NodeID, nodes []DetachedNodeSpec, edges []DetachedEdgeSpec) (*Synopsis, error) {
	if doc == nil {
		return nil, fmt.Errorf("graphsyn: detached synopsis needs a stub document")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("graphsyn: detached synopsis has no nodes")
	}
	if root < 0 || int(root) >= len(nodes) {
		return nil, fmt.Errorf("graphsyn: root node %d outside %d nodes", root, len(nodes))
	}
	s := &Synopsis{
		Doc:      doc,
		detached: true,
		nodes:    make([]*Node, len(nodes)),
		// The stub document has exactly one element, the root; its
		// assignment makes NodeOf(doc.Root()) resolve to the root node.
		assign: [][]NodeID{{root}},
	}
	for i, spec := range nodes {
		if spec.Count <= 0 {
			return nil, fmt.Errorf("graphsyn: detached node %d has non-positive count %d", i, spec.Count)
		}
		if spec.Tag < 0 || int(spec.Tag) >= doc.TagCount() {
			return nil, fmt.Errorf("graphsyn: detached node %d tag %d outside table of %d tags", i, spec.Tag, doc.TagCount())
		}
		s.nodes[i] = &Node{ID: NodeID(i), Tag: spec.Tag, storedCount: spec.Count}
	}
	if s.nodes[root].Tag != doc.Node(doc.Root()).Tag {
		return nil, fmt.Errorf("graphsyn: root node tag %d disagrees with stub root tag %d",
			s.nodes[root].Tag, doc.Node(doc.Root()).Tag)
	}
	sorted := make([]Edge, len(edges))
	for i, e := range edges {
		if e.From < 0 || int(e.From) >= len(nodes) || e.To < 0 || int(e.To) >= len(nodes) {
			return nil, fmt.Errorf("graphsyn: detached edge %d (%d->%d) references missing node", i, e.From, e.To)
		}
		cf, ct := s.nodes[e.From].Count(), s.nodes[e.To].Count()
		if e.ChildCount < 1 || e.ChildCount > ct {
			return nil, fmt.Errorf("graphsyn: detached edge %d->%d child count %d outside [1, %d]", e.From, e.To, e.ChildCount, ct)
		}
		if e.ParentCount < 1 || e.ParentCount > cf {
			return nil, fmt.Errorf("graphsyn: detached edge %d->%d parent count %d outside [1, %d]", e.From, e.To, e.ParentCount, cf)
		}
		sorted[i] = Edge{
			From:        e.From,
			To:          e.To,
			ChildCount:  e.ChildCount,
			ParentCount: e.ParentCount,
			// Stability derived exactly as RecomputeEdges derives it.
			BStable: e.ChildCount == ct,
			FStable: e.ParentCount == cf,
		}
	}
	sortEdges(sorted)
	for i := 1; i < len(sorted); i++ {
		if a, b := sorted[i-1], sorted[i]; a.From == b.From && a.To == b.To {
			return nil, fmt.Errorf("graphsyn: duplicate detached edge %d->%d", a.From, a.To)
		}
	}
	s.setEdges(sorted)
	return s, nil
}

// Detached reports whether the synopsis was reconstructed from a
// standalone stored form and therefore has no extents or document tree
// behind it.
func (s *Synopsis) Detached() bool { return s.detached }

// validateDetached is the detached half of Validate: with no document to
// cross-check against, it verifies internal consistency — positive counts,
// edge endpoints, count bounds, stability flags agreeing with the counts
// they are derived from, and adjacency lists matching the edge set.
func (s *Synopsis) validateDetached() error {
	for i, n := range s.nodes {
		if n == nil {
			return fmt.Errorf("graphsyn: detached node %d missing", i)
		}
		if n.ID != NodeID(i) {
			return fmt.Errorf("graphsyn: detached node %d carries ID %d", i, n.ID)
		}
		if n.Count() <= 0 {
			return fmt.Errorf("graphsyn: detached node %d has non-positive count", i)
		}
	}
	if err := s.validateAdjacency(); err != nil {
		return err
	}
	for _, e := range s.Edges() {
		cf, ct := s.nodes[e.From].Count(), s.nodes[e.To].Count()
		if e.ChildCount < 1 || e.ChildCount > ct || e.ParentCount < 1 || e.ParentCount > cf {
			return fmt.Errorf("graphsyn: detached edge %d->%d counts (%d, %d) out of range", e.From, e.To, e.ChildCount, e.ParentCount)
		}
		if e.BStable != (e.ChildCount == ct) || e.FStable != (e.ParentCount == cf) {
			return fmt.Errorf("graphsyn: detached edge %d->%d stability flags disagree with counts", e.From, e.To)
		}
	}
	return nil
}
