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
//
// Nodes are immutable once they belong to a synopsis: Split replaces every
// node it changes with a fresh copy, so clones share all the nodes a split
// does not touch. Callers must not modify a node's fields or slices.
type Node struct {
	ID  NodeID
	Tag xmltree.TagID
	// Extent lists the member elements in ascending order. Detached nodes
	// (FromDetached) have a nil extent and carry only the stored count.
	Extent []xmltree.NodeID
	// Children and Parents list neighbor node IDs in ascending order.
	Children []NodeID
	Parents  []NodeID
	// out[i] is the edge to Children[i]: a node owns its outgoing edges,
	// so replacing a node replaces them too.
	out []Edge
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

// pageBits sets the size of one assignment page (1<<pageBits elements).
// Split copies only the pages holding elements it moves.
const pageBits = 10

// Synopsis is a graph synopsis over a document. A detached synopsis
// (FromDetached) holds a stub document and per-node counts instead of
// extents; it supports every estimation read but no repartitioning.
//
// A synopsis is copy-on-write: Clone copies the struct only, and Split
// never writes to a slice, page or node that a clone may share. It copies
// the node table and the assignment page table, the pages holding moved
// elements, and the nodes whose adjacency changes, then writes the copies.
type Synopsis struct {
	Doc   *xmltree.Document
	nodes []*Node
	// assign maps each element to its synopsis node, in pages of
	// 1<<pageBits elements: element e lives at
	// assign[e>>pageBits][e&(1<<pageBits-1)].
	assign   [][]NodeID
	numEdges int
	// detached marks a synopsis reconstructed from the standalone stored
	// form (no extents, stub document).
	detached bool
}

// LabelSplit builds the coarsest synopsis: one node per distinct tag (the
// paper's label split graph S0(G)).
func LabelSplit(d *xmltree.Document) *Synopsis {
	s := &Synopsis{Doc: d}
	for i := 0; i < d.Len(); i += 1 << pageBits {
		s.assign = append(s.assign, make([]NodeID, min(1<<pageBits, d.Len()-i)))
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
		s.assign[i>>pageBits][i&(1<<pageBits-1)] = id
		n := s.nodes[id]
		n.Extent = append(n.Extent, xmltree.NodeID(i))
	}
	s.RecomputeEdges()
	return s
}

// Assignment returns a copy of the element-to-node assignment.
func (s *Synopsis) Assignment() []NodeID {
	out := make([]NodeID, 0, len(s.assign)<<pageBits)
	for _, p := range s.assign {
		out = append(out, p...)
	}
	return out
}

// Nodes returns the synopsis nodes in ID order. The slice must not be
// modified.
func (s *Synopsis) Nodes() []*Node { return s.nodes }

// NumNodes returns the number of synopsis nodes.
func (s *Synopsis) NumNodes() int { return len(s.nodes) }

// Node returns the node with the given ID.
func (s *Synopsis) Node(id NodeID) *Node { return s.nodes[id] }

// NodeOf returns the synopsis node containing element e.
func (s *Synopsis) NodeOf(e xmltree.NodeID) NodeID {
	return s.assign[e>>pageBits][e&(1<<pageBits-1)]
}

// Edge returns the edge from u to v, or nil when absent (including when
// u is not a node of the synopsis). The edge belongs to u's node and must
// not be modified.
func (s *Synopsis) Edge(u, v NodeID) *Edge {
	if u < 0 || int(u) >= len(s.nodes) {
		return nil
	}
	n := s.nodes[u]
	i, ok := slices.BinarySearch(n.Children, v)
	if !ok || i >= len(n.out) {
		return nil
	}
	return &n.out[i]
}

// Edges returns all edges in deterministic (From, To) order. The edges
// must not be modified.
func (s *Synopsis) Edges() []*Edge {
	out := make([]*Edge, 0, s.numEdges)
	for _, n := range s.nodes {
		for i := range n.out {
			out = append(out, &n.out[i])
		}
	}
	return out
}

// NumEdges returns the number of synopsis edges.
func (s *Synopsis) NumEdges() int { return s.numEdges }

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
// Split itself never calls it. Every node is replaced by a fresh copy, so
// clones sharing the old nodes are unaffected.
func (s *Synopsis) RecomputeEdges() {
	if s.detached {
		panic("graphsyn: cannot recompute edges of a detached synopsis (loaded without its document)")
	}
	d := s.Doc
	edges := make(map[[2]NodeID]*Edge, s.numEdges)
	// Child counts: one pass over document edges.
	for i := 0; i < d.Len(); i++ {
		p := d.Node(xmltree.NodeID(i)).Parent
		if p == xmltree.NilNode {
			continue
		}
		key := [2]NodeID{s.NodeOf(p), s.NodeOf(xmltree.NodeID(i))}
		e := edges[key]
		if e == nil {
			e = &Edge{From: key[0], To: key[1]}
			edges[key] = e
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
			childNodes = append(childNodes, s.NodeOf(c))
		}
		sortNodeIDs(childNodes)
		prev := NodeID(-1)
		for _, v := range childNodes {
			if v == prev {
				continue
			}
			prev = v
			edges[[2]NodeID{s.NodeOf(xmltree.NodeID(i)), v}].ParentCount++
		}
	}
	sorted := make([]Edge, 0, len(edges))
	for _, e := range edges {
		e.BStable = e.ChildCount == s.nodes[e.To].Count()
		e.FStable = e.ParentCount == s.nodes[e.From].Count()
		//lint:allow maporder sorted by (From, To) immediately below
		sorted = append(sorted, *e)
	}
	sortEdges(sorted)
	nodes := make([]*Node, len(s.nodes))
	for i, n := range s.nodes {
		nodes[i] = &Node{ID: n.ID, Tag: n.Tag, Extent: n.Extent, storedCount: n.storedCount}
	}
	s.nodes = nodes
	s.setEdges(sorted)
}

// setEdges installs the edge set, sorted by (From, To), as the adjacency
// of the synopsis's nodes, which must be fresh (no adjacency yet). Each
// node's children, outgoing edges and parents are windows of three
// shared arrays; a window's capacity ends where it does, and Split
// copies a node's lists before changing them, so no node ever writes
// into another's window. Parents come out ascending because the edges
// are sorted by From.
func (s *Synopsis) setEdges(sorted []Edge) {
	outDeg := make([]int, len(s.nodes))
	inDeg := make([]int, len(s.nodes))
	for _, e := range sorted {
		outDeg[e.From]++
		inDeg[e.To]++
	}
	children := make([]NodeID, len(sorted))
	parents := make([]NodeID, len(sorted))
	out := make([]Edge, len(sorted))
	co, po := 0, 0
	for i, n := range s.nodes {
		n.Children, n.out = children[co:co:co+outDeg[i]], out[co:co:co+outDeg[i]]
		n.Parents = parents[po : po : po+inDeg[i]]
		co += outDeg[i]
		po += inDeg[i]
	}
	for _, e := range sorted {
		from := s.nodes[e.From]
		from.Children = append(from.Children, e.To)
		from.out = append(from.out, e)
		to := s.nodes[e.To]
		to.Parents = append(to.Parents, e.From)
	}
	s.numEdges = len(sorted)
}

// sortEdges orders edges by (From, To).
func sortEdges(es []Edge) {
	slices.SortFunc(es, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
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
	// One buffer holds both halves: kept elements fill it from the front,
	// moved ones from the back, whose order is then restored.
	buf := make([]xmltree.NodeID, len(old.Extent))
	k, m := 0, len(buf)
	for _, e := range old.Extent {
		if pred(e) {
			buf[k] = e
			k++
		} else {
			m--
			buf[m] = e
		}
	}
	if k == 0 || k == len(buf) {
		return 0, false
	}
	keep, move := buf[:k:k], buf[k:]
	slices.Reverse(move)
	w := NodeID(len(s.nodes))
	s.nodes = append(slices.Clip(s.nodes), &Node{ID: w, Tag: old.Tag, Extent: move})
	s.nodes[v] = &Node{ID: v, Tag: old.Tag, Extent: keep}
	// Moved elements are ascending, so each page is copied once, on its
	// first write.
	s.assign = slices.Clone(s.assign)
	page := -1
	for _, e := range move {
		if p := int(e >> pageBits); p != page {
			page = p
			s.assign[p] = slices.Clone(s.assign[p])
		}
		s.assign[page][e&(1<<pageBits-1)] = w
	}
	s.splitEdges(old, w)
	return w, true
}

// splitEdges updates the edge set after node v (old is its node before
// the split) was split into v and w, whose fresh nodes carry no adjacency
// yet. An edge between two other nodes keeps its counts and flags, because
// neither its endpoints' extents nor their elements' parents and children
// changed node. So the edges incident to v or w are recounted from the two
// extents, the elements' parents and the elements' children, and v's old
// neighbors are replaced by copies that swap v for v, w or both in their
// adjacency.
func (s *Synopsis) splitEdges(old *Node, w NodeID) {
	d := s.Doc
	v := old.ID
	inSplit := func(x NodeID) bool { return x == v || x == w }
	// Per half (0: v, 1: w), counters indexed by the neighbor node:
	//   in[p]:     elements of the half whose parent lies in p (ChildCount
	//              of p -> half);
	//   inPar[p]:  distinct parent elements in p, p outside the split, with
	//              a child in the half (ParentCount of p -> half);
	//   outPar[c]: elements of the half with a child in c (ParentCount of
	//              half -> c);
	//   outKid[c]: children in c, c outside the split, of the half's
	//              elements (ChildCount of half -> c).
	// last[c] is the last element that counted toward outPar[c].
	type counts struct{ in, inPar, outPar, outKid []int32 }
	n := len(s.nodes)
	buf := make([]int32, 9*n)
	var halves [2]counts
	for h := range halves {
		b := buf[4*n*h:]
		halves[h] = counts{in: b[:n], inPar: b[n : 2*n], outPar: b[2*n : 3*n], outKid: b[3*n : 4*n]}
	}
	last := buf[8*n:]
	for i := range last {
		last[i] = -1
	}
	// outside holds (parent element, half) pairs for parent elements
	// outside v and w, as element<<1 | half; deduped below, each pair is
	// one parent element for inPar.
	outside := make([]uint64, 0, len(old.Extent))
	for h, x := range [2]NodeID{v, w} {
		c := &halves[h]
		for _, el := range s.nodes[x].Extent {
			en := d.Node(el)
			if p := en.Parent; p != xmltree.NilNode {
				px := s.NodeOf(p)
				c.in[px]++
				if !inSplit(px) {
					outside = append(outside, uint64(p)<<1|uint64(h))
				}
			}
			for _, k := range en.Children {
				kx := s.NodeOf(k)
				if last[kx] != int32(el) {
					last[kx] = int32(el)
					c.outPar[kx]++
				}
				// A child inside v or w is counted from its own parent
				// link above.
				if !inSplit(kx) {
					c.outKid[kx]++
				}
			}
		}
	}
	slices.Sort(outside)
	for i, k := range outside {
		if i == 0 || k != outside[i-1] {
			halves[k&1].inPar[s.NodeOf(xmltree.NodeID(k>>1))]++
		}
	}
	halfOf := func(x NodeID) *counts { return &halves[int(x-v)/int(w-v)] }
	// edge builds the fresh edge from -> to, one of them in the split.
	edge := func(from, to NodeID) Edge {
		e := Edge{From: from, To: to}
		switch {
		case inSplit(to) && inSplit(from):
			e.ChildCount, e.ParentCount = int(halfOf(to).in[from]), int(halfOf(from).outPar[to])
		case inSplit(to):
			e.ChildCount, e.ParentCount = int(halfOf(to).in[from]), int(halfOf(to).inPar[from])
		default:
			e.ChildCount, e.ParentCount = int(halfOf(from).outKid[to]), int(halfOf(from).outPar[to])
		}
		e.BStable = e.ChildCount == s.nodes[to].Count()
		e.FStable = e.ParentCount == s.nodes[from].Count()
		return e
	}

	// Replace v's old neighbors by copies with the new adjacency. Every
	// old edge of v survives as at least one of its v/w variants, and no
	// other node gains a neighbor; w, the largest ID, sorts last.
	s.numEdges -= len(old.Children) + len(old.Parents)
	if _, self := slices.BinarySearch(old.Children, v); self {
		s.numEdges++
	}
	copied := make(map[NodeID]*Node)
	own := func(id NodeID) *Node {
		c := copied[id]
		if c == nil {
			cp := *s.nodes[id]
			c = &cp
			copied[id] = c
			s.nodes[id] = c
		}
		return c
	}
	for _, c := range old.Children {
		if inSplit(c) {
			continue
		}
		nc := own(c)
		parents := slices.Clone(nc.Parents)
		if halves[0].outPar[c] == 0 {
			i, _ := slices.BinarySearch(parents, v)
			parents = slices.Delete(parents, i, i+1)
		}
		if halves[1].outPar[c] > 0 {
			parents = append(parents, w)
		}
		nc.Parents = parents
	}
	for _, p := range old.Parents {
		if inSplit(p) {
			continue
		}
		np := own(p)
		children, out := slices.Clone(np.Children), slices.Clone(np.out)
		i, _ := slices.BinarySearch(children, v)
		if halves[0].in[p] > 0 {
			out[i] = edge(p, v)
		} else {
			children, out = slices.Delete(children, i, i+1), slices.Delete(out, i, i+1)
		}
		if halves[1].in[p] > 0 {
			children, out = append(children, w), append(out, edge(p, w))
		}
		np.Children, np.out = children, out
	}
	// The adjacency of v and w themselves, ascending.
	for h, x := range [2]NodeID{v, w} {
		nx, c := s.nodes[x], &halves[h]
		for y := NodeID(0); int(y) < n; y++ {
			if c.outPar[y] > 0 {
				nx.Children = append(nx.Children, y)
				nx.out = append(nx.out, edge(x, y))
				s.numEdges++
			}
			if c.in[y] > 0 {
				nx.Parents = append(nx.Parents, y)
				if !inSplit(y) {
					s.numEdges++
				}
			}
		}
	}
}

// BStabilize splits node v so that the edge u -> v becomes backward-stable:
// elements of v whose parent lies in u remain in v, the rest move to a new
// node. Returns the new node's ID and whether a split occurred.
func (s *Synopsis) BStabilize(u, v NodeID) (NodeID, bool) {
	d := s.Doc
	return s.Split(v, func(e xmltree.NodeID) bool {
		p := d.Node(e).Parent
		return p != xmltree.NilNode && s.NodeOf(p) == u
	})
}

// FStabilize splits node u so that the edge u -> v becomes forward-stable:
// elements of u with at least one child in v remain in u, the rest move to
// a new node. Returns the new node's ID and whether a split occurred.
func (s *Synopsis) FStabilize(u, v NodeID) (NodeID, bool) {
	d := s.Doc
	return s.Split(u, func(e xmltree.NodeID) bool {
		for _, c := range d.Node(e).Children {
			if s.NodeOf(c) == v {
				return true
			}
		}
		return false
	})
}

// Clone returns an independent synopsis in O(1): it shares the document,
// the nodes and the assignment with s, and a later Split on either copies
// what it changes (see Synopsis).
func (s *Synopsis) Clone() *Synopsis {
	c := *s
	return &c
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
			if s.NodeOf(e) != n.ID {
				return fmt.Errorf("graphsyn: element %d assigned to %d but in extent of %d", e, s.NodeOf(e), n.ID)
			}
		}
	}
	if total != s.Doc.Len() {
		return fmt.Errorf("graphsyn: extents cover %d of %d elements", total, s.Doc.Len())
	}
	if err := s.validateAdjacency(); err != nil {
		return err
	}
	// Cross-check edges by recomputing on a clone.
	c := s.Clone()
	c.RecomputeEdges()
	if c.numEdges != s.numEdges {
		return fmt.Errorf("graphsyn: edge set stale: %d vs recomputed %d", s.numEdges, c.numEdges)
	}
	want := c.Edges()
	for i, e := range s.Edges() {
		if *want[i] != *e {
			return fmt.Errorf("graphsyn: edge %d->%d stale: %+v vs recomputed %+v", e.From, e.To, e, want[i])
		}
	}
	return nil
}

// validateAdjacency checks that every node's Children and Parents are
// strictly ascending and list exactly the endpoints of the edge set: each
// node holds one outgoing edge per child, naming it and the node, each
// parent entry names an existing edge, and the entries total the edge
// count.
func (s *Synopsis) validateAdjacency() error {
	children, parents := 0, 0
	for _, n := range s.nodes {
		if len(n.out) != len(n.Children) {
			return fmt.Errorf("graphsyn: node %d has %d outgoing edges for %d children", n.ID, len(n.out), len(n.Children))
		}
		for i, c := range n.Children {
			if i > 0 && c <= n.Children[i-1] {
				return fmt.Errorf("graphsyn: node %d children not strictly ascending: %v", n.ID, n.Children)
			}
			if e := n.out[i]; e.From != n.ID || e.To != c {
				return fmt.Errorf("graphsyn: node %d lists child %d with edge %d->%d", n.ID, c, e.From, e.To)
			}
		}
		for i, p := range n.Parents {
			if i > 0 && p <= n.Parents[i-1] {
				return fmt.Errorf("graphsyn: node %d parents not strictly ascending: %v", n.ID, n.Parents)
			}
			if s.Edge(p, n.ID) == nil {
				return fmt.Errorf("graphsyn: node %d lists parent %d without an edge", n.ID, p)
			}
		}
		children += len(n.Children)
		parents += len(n.Parents)
	}
	if children != s.numEdges || parents != s.numEdges {
		return fmt.Errorf("graphsyn: adjacency lists hold %d child and %d parent entries for %d edges", children, parents, s.numEdges)
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
		return fmt.Sprintf("synopsis{%d nodes, %d edges over %d elements, detached}", len(s.nodes), s.numEdges, total)
	}
	return fmt.Sprintf("synopsis{%d nodes, %d edges over %d elements}", len(s.nodes), s.numEdges, s.Doc.Len())
}

func sortNodeIDs(ids []NodeID) { slices.Sort(ids) }
