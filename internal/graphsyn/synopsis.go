package graphsyn

import (
	"cmp"
	"fmt"
	"slices"

	"xsketch/internal/xmltree"
)

// NodeID identifies a synopsis node.
type NodeID int32

// Edge connects two synopsis nodes and carries the stability flags plus the
// build-time statistics used to derive them.
type Edge struct {
	From, To NodeID
	// ChildCount is the number of elements of To whose parent lies in From.
	// (On tree data every element has one parent, so this equals the number
	// of document edges represented by this synopsis edge.)
	ChildCount int
	// ParentCount is the number of elements of From with at least one child
	// in To.
	ParentCount int
	// BStable: every element of To has its parent in From.
	BStable bool
	// FStable: every element of From has at least one child in To.
	FStable bool
}

// Node is one synopsis node: a set of same-tag elements.
type Node struct {
	ID  NodeID
	Tag xmltree.TagID
	// Extent lists the member elements in ascending order. Extents are
	// treated as immutable: splits build new slices, so clones may share
	// them. Detached nodes (FromDetached) have a nil extent and carry only
	// the stored count.
	Extent []xmltree.NodeID
	// Children and Parents list neighbor node IDs in ascending order.
	Children []NodeID
	Parents  []NodeID
	// storedCount is the extent size of a detached node; 0 when the node
	// has a live extent.
	storedCount int
}

// Count returns the extent size |u|.
func (n *Node) Count() int {
	if n.Extent == nil {
		return n.storedCount
	}
	return len(n.Extent)
}

// Synopsis is a graph synopsis over a document. A detached synopsis
// (FromDetached) holds a stub document and per-node counts instead of
// extents; it supports every estimation read but no repartitioning.
type Synopsis struct {
	Doc   *xmltree.Document
	nodes []*Node
	// assign maps each element to its synopsis node.
	assign []NodeID
	edges  map[[2]NodeID]*Edge
	// detached marks a synopsis reconstructed from the standalone stored
	// form (no extents, stub document).
	detached bool
}

// LabelSplit builds the coarsest synopsis: one node per distinct tag (the
// paper's label split graph S0(G)).
func LabelSplit(d *xmltree.Document) *Synopsis {
	s := &Synopsis{
		Doc:    d,
		assign: make([]NodeID, d.Len()),
		edges:  map[[2]NodeID]*Edge{},
	}
	byTag := make(map[xmltree.TagID]NodeID)
	for i := 0; i < d.Len(); i++ {
		tag := d.Node(xmltree.NodeID(i)).Tag
		id, ok := byTag[tag]
		if !ok {
			id = NodeID(len(s.nodes))
			s.nodes = append(s.nodes, &Node{ID: id, Tag: tag})
			byTag[tag] = id
		}
		s.assign[i] = id
		n := s.nodes[id]
		n.Extent = append(n.Extent, xmltree.NodeID(i))
	}
	s.RecomputeEdges()
	return s
}

// Assignment returns a copy of the element-to-node assignment.
func (s *Synopsis) Assignment() []NodeID {
	return append([]NodeID(nil), s.assign...)
}

// Nodes returns the synopsis nodes in ID order. The slice must not be
// modified.
func (s *Synopsis) Nodes() []*Node { return s.nodes }

// NumNodes returns the number of synopsis nodes.
func (s *Synopsis) NumNodes() int { return len(s.nodes) }

// Node returns the node with the given ID.
func (s *Synopsis) Node(id NodeID) *Node { return s.nodes[id] }

// NodeOf returns the synopsis node containing element e.
func (s *Synopsis) NodeOf(e xmltree.NodeID) NodeID { return s.assign[e] }

// Edge returns the edge from u to v, or nil when absent.
func (s *Synopsis) Edge(u, v NodeID) *Edge { return s.edges[[2]NodeID{u, v}] }

// Edges returns all edges in deterministic (From, To) order.
func (s *Synopsis) Edges() []*Edge {
	out := make([]*Edge, 0, len(s.edges))
	for _, e := range s.edges {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b *Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return out
}

// NumEdges returns the number of synopsis edges.
func (s *Synopsis) NumEdges() int { return len(s.edges) }

// NodesByTag returns the IDs of all nodes carrying tag, ascending.
func (s *Synopsis) NodesByTag(tag xmltree.TagID) []NodeID {
	var out []NodeID
	for _, n := range s.nodes {
		if n.Tag == tag {
			out = append(out, n.ID)
		}
	}
	return out
}

// RecomputeEdges rebuilds the edge set, adjacency lists, counts and
// stability flags from scratch from the current assignment, in
// O(|document| + |edges|). LabelSplit builds the first edge set with it,
// and Validate uses it as the oracle that Split's local update must match;
// Split itself never calls it.
func (s *Synopsis) RecomputeEdges() {
	if s.detached {
		panic("graphsyn: cannot recompute edges of a detached synopsis (loaded without its document)")
	}
	d := s.Doc
	s.edges = make(map[[2]NodeID]*Edge, len(s.edges))
	// Child counts: one pass over document edges.
	for i := 0; i < d.Len(); i++ {
		p := d.Node(xmltree.NodeID(i)).Parent
		if p == xmltree.NilNode {
			continue
		}
		key := [2]NodeID{s.assign[p], s.assign[i]}
		e := s.edges[key]
		if e == nil {
			e = &Edge{From: key[0], To: key[1]}
			s.edges[key] = e
		}
		e.ChildCount++
	}
	// Parent counts: for each element, the set of distinct child nodes.
	var childNodes []NodeID
	for i := 0; i < d.Len(); i++ {
		n := d.Node(xmltree.NodeID(i))
		if len(n.Children) == 0 {
			continue
		}
		childNodes = childNodes[:0]
		for _, c := range n.Children {
			childNodes = append(childNodes, s.assign[c])
		}
		sortNodeIDs(childNodes)
		prev := NodeID(-1)
		for _, v := range childNodes {
			if v == prev {
				continue
			}
			prev = v
			s.edges[[2]NodeID{s.assign[i], v}].ParentCount++
		}
	}
	// Stability flags and adjacency lists.
	for _, n := range s.nodes {
		n.Children = n.Children[:0]
		n.Parents = n.Parents[:0]
	}
	for _, e := range s.edges {
		e.BStable = e.ChildCount == s.nodes[e.To].Count()
		e.FStable = e.ParentCount == s.nodes[e.From].Count()
		//lint:allow maporder adjacency lists are sorted by sortNodeIDs immediately below
		s.nodes[e.From].Children = append(s.nodes[e.From].Children, e.To)
		//lint:allow maporder adjacency lists are sorted by sortNodeIDs immediately below
		s.nodes[e.To].Parents = append(s.nodes[e.To].Parents, e.From)
	}
	for _, n := range s.nodes {
		sortNodeIDs(n.Children)
		sortNodeIDs(n.Parents)
	}
}

// Split partitions node v into two nodes: elements satisfying pred stay in
// v (with a fresh extent), the rest move to a new node whose ID is
// returned. It returns (newID, true) on success, or (0, false) when the
// predicate does not actually split the extent (all or none satisfy it), in
// which case the synopsis is unchanged. Only the edges incident to v and
// the new node are recounted (see splitEdges), so a split costs time in
// v's extent and its neighbors, not in the document.
func (s *Synopsis) Split(v NodeID, pred func(e xmltree.NodeID) bool) (NodeID, bool) {
	if s.detached {
		panic("graphsyn: cannot split a detached synopsis (loaded without its document)")
	}
	old := s.nodes[v]
	var keep, move []xmltree.NodeID
	for _, e := range old.Extent {
		if pred(e) {
			keep = append(keep, e)
		} else {
			move = append(move, e)
		}
	}
	if len(keep) == 0 || len(move) == 0 {
		return 0, false
	}
	w := NodeID(len(s.nodes))
	s.nodes = append(s.nodes, &Node{ID: w, Tag: old.Tag, Extent: move})
	old.Extent = keep
	for _, e := range move {
		s.assign[e] = w
	}
	s.splitEdges(v, w)
	return w, true
}

// splitEdges updates the edge set after node v was split into v and w. An
// edge between two other nodes keeps its counts and flags, because neither
// its endpoints' extents nor their elements' parents and children changed
// node. So the edges incident to v or w are recounted from the two
// extents, the elements' parents and the elements' children, replace v's
// old edges, and v's old neighbors swap v for v, w or both in their
// sorted adjacency lists.
func (s *Synopsis) splitEdges(v, w NodeID) {
	d := s.Doc
	inSplit := func(x NodeID) bool { return x == v || x == w }
	fresh := make(map[[2]NodeID]*Edge)
	var order []*Edge // fresh edges in creation order, for deterministic walks
	edge := func(from, to NodeID) *Edge {
		key := [2]NodeID{from, to}
		e := fresh[key]
		if e == nil {
			e = &Edge{From: from, To: to}
			fresh[key] = e
			order = append(order, e)
		}
		return e
	}
	// outside holds (parent element, half) pairs for parent elements
	// outside v and w, as element<<1 | (1 if the child is in w); deduped
	// below, each pair is one parent element for ParentCount.
	var outside []uint64
	var kids []NodeID
	for _, x := range [2]NodeID{v, w} {
		half := uint64(0)
		if x == w {
			half = 1
		}
		for _, el := range s.nodes[x].Extent {
			n := d.Node(el)
			if p := n.Parent; p != xmltree.NilNode {
				px := s.assign[p]
				edge(px, x).ChildCount++
				if !inSplit(px) {
					outside = append(outside, uint64(p)<<1|half)
				}
			}
			kids = kids[:0]
			for _, c := range n.Children {
				kids = append(kids, s.assign[c])
			}
			sortNodeIDs(kids)
			for i := 0; i < len(kids); {
				cx, j := kids[i], i+1
				for j < len(kids) && kids[j] == cx {
					j++
				}
				e := edge(x, cx)
				e.ParentCount++
				// A child inside v or w was counted from its own parent
				// link above.
				if !inSplit(cx) {
					e.ChildCount += j - i
				}
				i = j
			}
		}
	}
	slices.Sort(outside)
	for i, k := range outside {
		if i > 0 && k == outside[i-1] {
			continue
		}
		x := v
		if k&1 == 1 {
			x = w
		}
		fresh[[2]NodeID{s.assign[xmltree.NodeID(k>>1)], x}].ParentCount++
	}

	// Swap the fresh edges in. Every old edge of v survives as at least
	// one of its v/w variants, and no other node gains a neighbor.
	nv, nw := s.nodes[v], s.nodes[w]
	for _, c := range nv.Children {
		if key := [2]NodeID{v, c}; fresh[key] == nil {
			delete(s.edges, key)
		}
	}
	for _, p := range nv.Parents {
		if key := [2]NodeID{p, v}; fresh[key] == nil {
			delete(s.edges, key)
		}
	}
	for _, e := range order {
		e.BStable = e.ChildCount == s.nodes[e.To].Count()
		e.FStable = e.ParentCount == s.nodes[e.From].Count()
		s.edges[[2]NodeID{e.From, e.To}] = e
	}
	for _, c := range nv.Children {
		if !inSplit(c) {
			n := s.nodes[c]
			n.Parents = replaceSplitNeighbor(n.Parents, v, w, fresh[[2]NodeID{v, c}] != nil, fresh[[2]NodeID{w, c}] != nil)
		}
	}
	for _, p := range nv.Parents {
		if !inSplit(p) {
			n := s.nodes[p]
			n.Children = replaceSplitNeighbor(n.Children, v, w, fresh[[2]NodeID{p, v}] != nil, fresh[[2]NodeID{p, w}] != nil)
		}
	}
	nv.Children, nv.Parents = nv.Children[:0], nv.Parents[:0]
	for _, e := range order {
		if inSplit(e.From) {
			s.nodes[e.From].Children = append(s.nodes[e.From].Children, e.To)
		}
		if inSplit(e.To) {
			s.nodes[e.To].Parents = append(s.nodes[e.To].Parents, e.From)
		}
	}
	for _, n := range [2]*Node{nv, nw} {
		sortNodeIDs(n.Children)
		sortNodeIDs(n.Parents)
	}
}

// replaceSplitNeighbor rewrites the sorted neighbor list of a node that
// was adjacent to v before v split into v and w: v stays only while still
// adjacent, and w, the largest node ID, is appended when adjacent.
func replaceSplitNeighbor(ids []NodeID, v, w NodeID, hasV, hasW bool) []NodeID {
	if !hasV {
		i, _ := slices.BinarySearch(ids, v)
		ids = slices.Delete(ids, i, i+1)
	}
	if hasW {
		ids = append(ids, w)
	}
	return ids
}

// BStabilize splits node v so that the edge u -> v becomes backward-stable:
// elements of v whose parent lies in u remain in v, the rest move to a new
// node. Returns the new node's ID and whether a split occurred.
func (s *Synopsis) BStabilize(u, v NodeID) (NodeID, bool) {
	d := s.Doc
	return s.Split(v, func(e xmltree.NodeID) bool {
		p := d.Node(e).Parent
		return p != xmltree.NilNode && s.assign[p] == u
	})
}

// FStabilize splits node u so that the edge u -> v becomes forward-stable:
// elements of u with at least one child in v remain in u, the rest move to
// a new node. Returns the new node's ID and whether a split occurred.
func (s *Synopsis) FStabilize(u, v NodeID) (NodeID, bool) {
	d := s.Doc
	return s.Split(u, func(e xmltree.NodeID) bool {
		for _, c := range d.Node(e).Children {
			if s.assign[c] == v {
				return true
			}
		}
		return false
	})
}

// Clone returns a deep copy sharing the document and extent backing arrays
// (extents are immutable by convention).
func (s *Synopsis) Clone() *Synopsis {
	c := &Synopsis{
		Doc:      s.Doc,
		detached: s.detached,
		nodes:    make([]*Node, len(s.nodes)),
		assign:   make([]NodeID, len(s.assign)),
		edges:    make(map[[2]NodeID]*Edge, len(s.edges)),
	}
	copy(c.assign, s.assign)
	for i, n := range s.nodes {
		cn := *n
		cn.Children = append([]NodeID(nil), n.Children...)
		cn.Parents = append([]NodeID(nil), n.Parents...)
		c.nodes[i] = &cn
	}
	for k, e := range s.edges {
		ce := *e
		c.edges[k] = &ce
	}
	return c
}

// Validate checks the synopsis invariants: the extents partition the
// document, tags are uniform within nodes, the assignment is consistent
// with extents, edge counts/stabilities match a from-scratch
// recomputation, and the adjacency lists match the edge set.
func (s *Synopsis) Validate() error {
	if s.detached {
		return s.validateDetached()
	}
	seen := make([]bool, s.Doc.Len())
	total := 0
	for _, n := range s.nodes {
		if n.Count() == 0 {
			return fmt.Errorf("graphsyn: node %d has empty extent", n.ID)
		}
		for _, e := range n.Extent {
			if seen[e] {
				return fmt.Errorf("graphsyn: element %d in two extents", e)
			}
			seen[e] = true
			total++
			if s.Doc.Node(e).Tag != n.Tag {
				return fmt.Errorf("graphsyn: node %d mixes tags", n.ID)
			}
			if s.assign[e] != n.ID {
				return fmt.Errorf("graphsyn: element %d assigned to %d but in extent of %d", e, s.assign[e], n.ID)
			}
		}
	}
	if total != s.Doc.Len() {
		return fmt.Errorf("graphsyn: extents cover %d of %d elements", total, s.Doc.Len())
	}
	// Cross-check edges by recomputing on a clone.
	c := s.Clone()
	c.RecomputeEdges()
	if len(c.edges) != len(s.edges) {
		return fmt.Errorf("graphsyn: edge set stale: %d vs recomputed %d", len(s.edges), len(c.edges))
	}
	for k, e := range s.edges {
		ce := c.edges[k]
		if ce == nil {
			//lint:allow maporder any stale edge fails validation; which one the error names is diagnostic only
			return fmt.Errorf("graphsyn: stale edge %v", k)
		}
		if *ce != *e {
			//lint:allow maporder any stale edge fails validation; which one the error names is diagnostic only
			return fmt.Errorf("graphsyn: edge %v stale: %+v vs recomputed %+v", k, e, ce)
		}
	}
	return s.validateAdjacency()
}

// validateAdjacency checks that every node's Children and Parents are
// strictly ascending and list exactly the endpoints of the edge set: each
// entry names an existing edge, and there are as many entries as edges.
func (s *Synopsis) validateAdjacency() error {
	children, parents := 0, 0
	for _, n := range s.nodes {
		for i, c := range n.Children {
			if i > 0 && c <= n.Children[i-1] {
				return fmt.Errorf("graphsyn: node %d children not strictly ascending: %v", n.ID, n.Children)
			}
			if s.edges[[2]NodeID{n.ID, c}] == nil {
				return fmt.Errorf("graphsyn: node %d lists child %d without an edge", n.ID, c)
			}
		}
		for i, p := range n.Parents {
			if i > 0 && p <= n.Parents[i-1] {
				return fmt.Errorf("graphsyn: node %d parents not strictly ascending: %v", n.ID, n.Parents)
			}
			if s.edges[[2]NodeID{p, n.ID}] == nil {
				return fmt.Errorf("graphsyn: node %d lists parent %d without an edge", n.ID, p)
			}
		}
		children += len(n.Children)
		parents += len(n.Parents)
	}
	if children != len(s.edges) || parents != len(s.edges) {
		return fmt.Errorf("graphsyn: adjacency lists hold %d child and %d parent entries for %d edges", children, parents, len(s.edges))
	}
	return nil
}

// String renders a compact description for diagnostics.
func (s *Synopsis) String() string {
	if s.detached {
		total := 0
		for _, n := range s.nodes {
			total += n.Count()
		}
		return fmt.Sprintf("synopsis{%d nodes, %d edges over %d elements, detached}", len(s.nodes), len(s.edges), total)
	}
	return fmt.Sprintf("synopsis{%d nodes, %d edges over %d elements}", len(s.nodes), len(s.edges), s.Doc.Len())
}

func sortNodeIDs(ids []NodeID) { slices.Sort(ids) }
