package graphsyn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"xsketch/internal/xmltree"
)

// bibSynopsis returns the label-split synopsis of the Figure-1 document,
// which is exactly the paper's Figure 3(a)/(b).
func bibSynopsis(t *testing.T) (*xmltree.Document, *Synopsis) {
	t.Helper()
	d := xmltree.Bibliography()
	s := LabelSplit(d)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d, s
}

func nodeByTag(t *testing.T, d *xmltree.Document, s *Synopsis, tag string) *Node {
	t.Helper()
	id, ok := d.LookupTag(tag)
	if !ok {
		t.Fatalf("unknown tag %q", tag)
	}
	ids := s.NodesByTag(id)
	if len(ids) != 1 {
		t.Fatalf("tag %q maps to %d nodes", tag, len(ids))
	}
	return s.Node(ids[0])
}

func TestLabelSplitCounts(t *testing.T) {
	d, s := bibSynopsis(t)
	if s.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", s.NumNodes())
	}
	want := map[string]int{"bib": 1, "author": 3, "name": 3, "paper": 4, "book": 1, "title": 5, "year": 4, "keyword": 5}
	for tag, count := range want {
		n := nodeByTag(t, d, s, tag)
		if n.Count() != count {
			t.Errorf("|%s| = %d, want %d", tag, n.Count(), count)
		}
	}
}

func TestFigure3Stabilities(t *testing.T) {
	d, s := bibSynopsis(t)
	A := nodeByTag(t, d, s, "author")
	P := nodeByTag(t, d, s, "paper")
	B := nodeByTag(t, d, s, "book")
	N := nodeByTag(t, d, s, "name")
	T := nodeByTag(t, d, s, "title")
	Y := nodeByTag(t, d, s, "year")
	K := nodeByTag(t, d, s, "keyword")

	// The paper: edge A -> P is both backward and forward stable (all
	// papers have an author parent, all authors have a paper child).
	ap := s.Edge(A.ID, P.ID)
	if ap == nil || !ap.BStable || !ap.FStable {
		t.Fatalf("A->P = %+v, want B+F stable", ap)
	}
	// A -> N: every author has a name and every name an author parent.
	an := s.Edge(A.ID, N.ID)
	if an == nil || !an.BStable || !an.FStable {
		t.Fatalf("A->N = %+v", an)
	}
	// A -> B: only one author has a book: B-stable but not F-stable.
	ab := s.Edge(A.ID, B.ID)
	if ab == nil || !ab.BStable || ab.FStable {
		t.Fatalf("A->B = %+v, want B-stable only", ab)
	}
	// P -> T: every paper has a title; T also has book parents, so the
	// edge is F-stable but NOT B-stable.
	pt := s.Edge(P.ID, T.ID)
	if pt == nil || pt.BStable || !pt.FStable {
		t.Fatalf("P->T = %+v, want F-stable only", pt)
	}
	// B -> T: F-stable (every book has a title), not B-stable.
	bt := s.Edge(B.ID, T.ID)
	if bt == nil || bt.BStable || !bt.FStable {
		t.Fatalf("B->T = %+v, want F-stable only", bt)
	}
	// P -> Y and P -> K: B+F stable.
	for _, to := range []*Node{Y, K} {
		e := s.Edge(P.ID, to.ID)
		if e == nil || !e.BStable || !e.FStable {
			t.Fatalf("P->%s = %+v, want B+F stable", d.Tag(to.Tag), e)
		}
	}
	// No edge between unrelated nodes.
	if s.Edge(N.ID, K.ID) != nil {
		t.Fatal("spurious edge N->K")
	}
}

func TestEdgeCounts(t *testing.T) {
	d, s := bibSynopsis(t)
	A := nodeByTag(t, d, s, "author")
	P := nodeByTag(t, d, s, "paper")
	T := nodeByTag(t, d, s, "title")
	ap := s.Edge(A.ID, P.ID)
	if ap.ChildCount != 4 || ap.ParentCount != 3 {
		t.Fatalf("A->P counts = %+v", ap)
	}
	pt := s.Edge(P.ID, T.ID)
	if pt.ChildCount != 4 || pt.ParentCount != 4 {
		t.Fatalf("P->T counts = %+v", pt)
	}
}

func TestAdjacencySorted(t *testing.T) {
	_, s := bibSynopsis(t)
	for _, n := range s.Nodes() {
		for i := 1; i < len(n.Children); i++ {
			if n.Children[i] <= n.Children[i-1] {
				t.Fatalf("node %d children unsorted: %v", n.ID, n.Children)
			}
		}
		for i := 1; i < len(n.Parents); i++ {
			if n.Parents[i] <= n.Parents[i-1] {
				t.Fatalf("node %d parents unsorted: %v", n.ID, n.Parents)
			}
		}
	}
}

func TestBStabilizeSplit(t *testing.T) {
	d, s := bibSynopsis(t)
	P := nodeByTag(t, d, s, "paper")
	T := nodeByTag(t, d, s, "title")
	// P -> T is not B-stable (book titles). B-stabilizing splits T into
	// paper-titles (4) and the book title (1).
	newID, ok := s.BStabilize(P.ID, T.ID)
	if !ok {
		t.Fatal("BStabilize did not split")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate after split: %v", err)
	}
	// Split replaces the nodes it changes, so T is re-read by ID.
	if s.Node(T.ID).Count() != 4 || s.Node(newID).Count() != 1 {
		t.Fatalf("split sizes = %d, %d", s.Node(T.ID).Count(), s.Node(newID).Count())
	}
	e := s.Edge(P.ID, T.ID)
	if e == nil || !e.BStable {
		t.Fatalf("P->T after split = %+v, want B-stable", e)
	}
	B := nodeByTag(t, d, s, "book")
	e2 := s.Edge(B.ID, newID)
	if e2 == nil || !e2.BStable || !e2.FStable {
		t.Fatalf("B->T' after split = %+v, want B+F stable", e2)
	}
	if s.Edge(B.ID, T.ID) != nil {
		t.Fatal("stale edge B->T survived the split")
	}
}

func TestFStabilizeSplit(t *testing.T) {
	d, s := bibSynopsis(t)
	A := nodeByTag(t, d, s, "author")
	B := nodeByTag(t, d, s, "book")
	// A -> B is not F-stable (only one author has a book). F-stabilizing
	// splits A into book-authors (1) and the rest (2).
	newID, ok := s.FStabilize(A.ID, B.ID)
	if !ok {
		t.Fatal("FStabilize did not split")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate after split: %v", err)
	}
	// Split replaces the nodes it changes, so A is re-read by ID.
	if s.Node(A.ID).Count() != 1 || s.Node(newID).Count() != 2 {
		t.Fatalf("split sizes = %d, %d", s.Node(A.ID).Count(), s.Node(newID).Count())
	}
	e := s.Edge(A.ID, B.ID)
	if e == nil || !e.FStable {
		t.Fatalf("A->B after split = %+v, want F-stable", e)
	}
	if s.Edge(newID, B.ID) != nil {
		t.Fatal("new author node still has a book edge")
	}
}

func TestSplitNoop(t *testing.T) {
	d, s := bibSynopsis(t)
	A := nodeByTag(t, d, s, "author")
	P := nodeByTag(t, d, s, "paper")
	// A -> P is already B-stable: splitting is a no-op.
	if _, ok := s.BStabilize(A.ID, P.ID); ok {
		t.Fatal("BStabilize split a stable edge")
	}
	if _, ok := s.FStabilize(A.ID, P.ID); ok {
		t.Fatal("FStabilize split a stable edge")
	}
	before := s.NumNodes()
	if _, ok := s.Split(A.ID, func(xmltree.NodeID) bool { return true }); ok {
		t.Fatal("degenerate split succeeded")
	}
	if s.NumNodes() != before {
		t.Fatal("node count changed on no-op split")
	}
}

func TestCloneIndependence(t *testing.T) {
	d, s := bibSynopsis(t)
	c := s.Clone()
	P := nodeByTag(t, d, s, "paper")
	T := nodeByTag(t, d, s, "title")
	if _, ok := c.BStabilize(P.ID, T.ID); !ok {
		t.Fatal("clone split failed")
	}
	// Original unchanged.
	if s.NumNodes() != 8 {
		t.Fatalf("original NumNodes = %d after clone split", s.NumNodes())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("original Validate: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
	if e := s.Edge(P.ID, T.ID); e.BStable {
		t.Fatal("original edge mutated by clone split")
	}
}

func TestTSNBibliography(t *testing.T) {
	d, s := bibSynopsis(t)
	P := nodeByTag(t, d, s, "paper")
	A := nodeByTag(t, d, s, "author")
	R := nodeByTag(t, d, s, "bib")
	N := nodeByTag(t, d, s, "name")
	Y := nodeByTag(t, d, s, "year")
	K := nodeByTag(t, d, s, "keyword")
	B := nodeByTag(t, d, s, "book")
	T := nodeByTag(t, d, s, "title")

	anc, fstable := s.TSN(P.ID)
	// B-stable chain from P: P -> A -> bib (A->P B-stable, bib->A B-stable).
	wantChain := []NodeID{P.ID, A.ID, R.ID}
	if !reflect.DeepEqual(anc, wantChain) {
		t.Fatalf("anc = %v, want %v", anc, wantChain)
	}
	// F-stable length-1 from A: P and N (not B: not all authors have books).
	fsA := fstable[A.ID]
	if !containsID(fsA, P.ID) || !containsID(fsA, N.ID) || containsID(fsA, B.ID) {
		t.Fatalf("fstable[A] = %v", fsA)
	}
	// F-stable from P: T, Y, K.
	fsP := fstable[P.ID]
	for _, want := range []NodeID{T.ID, Y.ID, K.ID} {
		if !containsID(fsP, want) {
			t.Fatalf("fstable[P] = %v missing %d", fsP, want)
		}
	}

	// InTSN: the dimensions of the paper's Example 3.1 histogram
	// f_P(C_Y, C_K, C_P, C_N) must all be within TSN(P).
	for _, e := range [][2]NodeID{{P.ID, Y.ID}, {P.ID, K.ID}, {A.ID, P.ID}, {A.ID, N.ID}} {
		if !s.InTSN(P.ID, e[0], e[1]) {
			t.Errorf("InTSN(P, %d->%d) = false", e[0], e[1])
		}
	}
	// A -> B is not F-stable, so C_B would not be provable: not in TSN.
	if s.InTSN(P.ID, A.ID, B.ID) {
		t.Error("InTSN(P, A->B) = true, want false")
	}
	// Nonexistent edge.
	if s.InTSN(P.ID, N.ID, K.ID) {
		t.Error("InTSN on nonexistent edge")
	}
}

func TestTSNAfterUnstableSplit(t *testing.T) {
	d, s := bibSynopsis(t)
	T := nodeByTag(t, d, s, "title")
	// T has two parent nodes; neither P->T nor B->T is B-stable, so the
	// chain from T is just {T}.
	anc, _ := s.TSN(T.ID)
	if len(anc) != 1 || anc[0] != T.ID {
		t.Fatalf("anc(T) = %v", anc)
	}
}

func TestSizeModel(t *testing.T) {
	_, s := bibSynopsis(t)
	m := DefaultSizeModel()
	got := m.StructureBytes(s)
	want := 8*m.NodeBytes + s.NumEdges()*m.EdgeBytes
	if got != want {
		t.Fatalf("StructureBytes = %d, want %d", got, want)
	}
	if m.BucketBytes(3) != 3*m.BucketDimBytes+m.BucketFreqBytes {
		t.Fatalf("BucketBytes = %d", m.BucketBytes(3))
	}
}

func containsID(ids []NodeID, id NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// randomDoc builds a random tree for property tests.
func randomDoc(rng *rand.Rand, n int) *xmltree.Document {
	tags := []string{"a", "b", "c", "d"}
	d := xmltree.NewDocument("r")
	for d.Len() < n {
		parent := xmltree.NodeID(rng.Intn(d.Len()))
		d.AddChild(parent, tags[rng.Intn(len(tags))])
	}
	return d
}

// recursiveDoc builds a random tree of mostly one recursive tag: each new
// element hangs below one of the last few elements, so chains are deep,
// "a" nests in "a" at every level, and splits of an "a" node leave
// self-loops and edges between the two halves in both directions.
func recursiveDoc(rng *rand.Rand, n int) *xmltree.Document {
	d := xmltree.NewDocument("a")
	for d.Len() < n {
		lo := d.Len() - 6
		if lo < 0 {
			lo = 0
		}
		parent := xmltree.NodeID(lo + rng.Intn(d.Len()-lo))
		tag := "a"
		if rng.Intn(4) == 0 {
			tag = "b"
		}
		d.AddChild(parent, tag)
	}
	return d
}

// TestRandomSplitsPreserveInvariants applies random B-/F-stabilizations
// and arbitrary two-way splits and validates after every one, so the
// local edge update in Split is checked against the from-scratch
// recount each time.
func TestRandomSplitsPreserveInvariants(t *testing.T) {
	docs := map[string]func(*rand.Rand, int) *xmltree.Document{
		"random":    randomDoc,
		"recursive": recursiveDoc,
	}
	for name, gen := range docs {
		t.Run(name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				d := gen(rng, 120)
				s := LabelSplit(d)
				for i := 0; i < 30; i++ {
					edges := s.Edges()
					if len(edges) == 0 {
						break
					}
					e := edges[rng.Intn(len(edges))]
					switch rng.Intn(3) {
					case 0:
						s.BStabilize(e.From, e.To)
					case 1:
						s.FStabilize(e.From, e.To)
					default:
						s.Split(e.To, func(xmltree.NodeID) bool { return rng.Intn(2) == 0 })
					}
					if err := s.Validate(); err != nil {
						t.Logf("seed %d, split %d: %v", seed, i, err)
						return false
					}
				}
				// Extent sizes sum to document size.
				total := 0
				for _, n := range s.Nodes() {
					total += n.Count()
				}
				return total == d.Len()
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestValidateCatchesStaleAdjacency corrupts one adjacency list at a time
// and expects Validate to notice, since Split maintains the lists itself.
func TestValidateCatchesStaleAdjacency(t *testing.T) {
	corruptions := map[string]func(n *Node, s *Synopsis){
		"unsorted children": func(n *Node, _ *Synopsis) {
			n.Children[0], n.Children[1] = n.Children[1], n.Children[0]
		},
		"missing child": func(n *Node, _ *Synopsis) {
			n.Children = n.Children[1:]
		},
		"extra parent": func(n *Node, s *Synopsis) {
			n.Parents = append(n.Parents, NodeID(s.NumNodes()-1))
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			d, s := bibSynopsis(t)
			// author has children name, paper and book, and parent bib.
			corrupt(nodeByTag(t, d, s, "author"), s)
			if err := s.Validate(); err == nil {
				t.Fatal("Validate accepted a corrupted adjacency list")
			}
		})
	}
}

// localityDoc builds a document with a fixed region around the node the
// locality test splits, plus bulk groups of distinct tags that grow the
// document and its synopsis without touching that node's neighborhood.
// The region: p and q elements (under the root) with 3 and 2 leaf x
// children. Each of the `groups` bulk groups is a g<i> element with 7 h
// children.
func localityDoc(groups int) *xmltree.Document {
	d := xmltree.NewDocument("r")
	p := d.AddChild(d.Root(), "p")
	q := d.AddChild(d.Root(), "q")
	for i := 0; i < 3; i++ {
		d.AddChild(p, "x")
	}
	for i := 0; i < 2; i++ {
		d.AddChild(q, "x")
	}
	for i := 0; i < groups; i++ {
		g := d.AddChild(d.Root(), fmt.Sprintf("g%d", i))
		for j := 0; j < 7; j++ {
			d.AddChild(g, "h")
		}
	}
	return d
}

// TestSplitAllocsIndependentOfDocumentSize is the split-locality gate:
// B-stabilizing the same small node allocates exactly as much in a
// document 8 times larger, with 8 times as many synopsis edges. A split
// that recounted the whole document or rebuilt every edge would allocate
// in proportion to the larger one.
func TestSplitAllocsIndependentOfDocumentSize(t *testing.T) {
	allocs := func(groups int) float64 {
		d := localityDoc(groups)
		base := LabelSplit(d)
		tag := func(name string) NodeID {
			id, _ := d.LookupTag(name)
			return base.NodesByTag(id)[0]
		}
		p, x := tag("p"), tag("x")
		const runs = 50
		// Splits mutate, so each run gets its own clone, made untimed.
		clones := make([]*Synopsis, runs+1)
		for i := range clones {
			clones[i] = base.Clone()
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			s := clones[next]
			next++
			if _, ok := s.BStabilize(p, x); !ok {
				t.Fatal("BStabilize(p, x) did not split")
			}
		})
		if err := clones[0].Validate(); err != nil {
			t.Fatalf("after split: %v", err)
		}
		return got
	}
	small, large := allocs(32), allocs(256)
	if small != large {
		t.Fatalf("split allocations grew with the document: %v with 32 bulk groups, %v with 256", small, large)
	}
}

func TestBStabilizeMakesEdgeStable(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDoc(rng, 100)
		s := LabelSplit(d)
		for _, e := range s.Edges() {
			if e.BStable {
				continue
			}
			if _, ok := s.BStabilize(e.From, e.To); ok {
				ne := s.Edge(e.From, e.To)
				if ne == nil || !ne.BStable {
					return false
				}
			}
			break
		}
		return s.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneCopyOnWrite: a clone shares the original's nodes and
// assignment pages until either side splits, and a split on either side
// never shows through to the other, in both directions.
func TestCloneCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDoc(rng, 5000)
	base := LabelSplit(d)
	snapshot := func(s *Synopsis) (string, []NodeID) {
		var edges []Edge
		for _, e := range s.Edges() {
			edges = append(edges, *e)
		}
		return fmt.Sprint(edges), s.Assignment()
	}
	baseEdges, baseAssign := snapshot(base)
	c := base.Clone()
	if c.Node(0) != base.Node(0) {
		t.Fatal("clone copied a node it did not change")
	}
	splits := 0
	for _, e := range c.Edges() {
		if !e.BStable {
			if _, ok := c.BStabilize(e.From, e.To); ok {
				splits++
			}
		}
	}
	if splits == 0 {
		t.Fatal("no split on the clone")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone after splits: %v", err)
	}
	if edges, assign := snapshot(base); edges != baseEdges || !slices.Equal(assign, baseAssign) {
		t.Fatal("splitting the clone changed the original")
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("original after the clone's splits: %v", err)
	}
	// The other direction: the original splits, an earlier clone stays.
	c2 := base.Clone()
	c2Edges, c2Assign := snapshot(c2)
	for _, e := range base.Edges() {
		if !e.FStable {
			base.FStabilize(e.From, e.To)
		}
	}
	if edges, assign := snapshot(c2); edges != c2Edges || !slices.Equal(assign, c2Assign) {
		t.Fatal("splitting the original changed its clone")
	}
	if err := c2.Validate(); err != nil {
		t.Fatalf("clone after the original's splits: %v", err)
	}
}
