package xsketch

import (
	"math"
	"testing"

	"xsketch/internal/graphsyn"
	"xsketch/internal/xmltree"
)

// exactConfig gives budgets large enough that histograms on the small
// fixtures are exact.
func exactConfig() Config {
	cfg := DefaultConfig()
	cfg.InitialEdgeBuckets = 64
	cfg.InitialValueBuckets = 64
	return cfg
}

func bibSketch(t *testing.T) *Sketch {
	t.Helper()
	sk := New(xmltree.Bibliography(), exactConfig())
	if err := sk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return sk
}

func synNode(t testing.TB, sk *Sketch, tag string) graphsyn.NodeID {
	t.Helper()
	id, ok := sk.Syn.Doc.LookupTag(tag)
	if !ok {
		t.Fatalf("unknown tag %q", tag)
	}
	ids := sk.Syn.NodesByTag(id)
	if len(ids) != 1 {
		t.Fatalf("tag %q maps to %d synopsis nodes", tag, len(ids))
	}
	return ids[0]
}

func TestNewBuildsSummariesForAllNodes(t *testing.T) {
	sk := bibSketch(t)
	for _, n := range sk.Syn.Nodes() {
		s := sk.Summary(n.ID)
		if s == nil {
			t.Fatalf("node %d lacks summary", n.ID)
		}
		if s.Hist == nil {
			t.Fatalf("node %d lacks histogram", n.ID)
		}
	}
}

func TestDefaultScopeIsFStableChildren(t *testing.T) {
	sk := bibSketch(t)
	author := synNode(t, sk, "author")
	s := sk.Summary(author)
	// F-stable children of author: name and paper (book is not F-stable).
	if len(s.Scope) != 2 {
		t.Fatalf("author scope = %v", s.Scope)
	}
	name, paper, book := synNode(t, sk, "name"), synNode(t, sk, "paper"), synNode(t, sk, "book")
	if !containsScope(s.Scope, ScopeEdge{author, name}) || !containsScope(s.Scope, ScopeEdge{author, paper}) {
		t.Fatalf("author scope = %v", s.Scope)
	}
	if containsScope(s.Scope, ScopeEdge{author, book}) {
		t.Fatal("author scope contains the non-F-stable book edge")
	}
}

func TestEdgeDistributionForwardCounts(t *testing.T) {
	sk := bibSketch(t)
	author := synNode(t, sk, "author")
	paper := synNode(t, sk, "paper")
	sparse, err := sk.EdgeDistribution(author, []ScopeEdge{{author, paper}})
	if err != nil {
		t.Fatalf("EdgeDistribution: %v", err)
	}
	// a1 has 2 papers, a2 and a3 one each.
	pts := sparse.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].Coords[0] != 1 || math.Abs(pts[0].Freq-2.0/3) > 1e-9 {
		t.Fatalf("point0 = %+v", pts[0])
	}
	if pts[1].Coords[0] != 2 || math.Abs(pts[1].Freq-1.0/3) > 1e-9 {
		t.Fatalf("point1 = %+v", pts[1])
	}
}

func TestEdgeDistributionExample31(t *testing.T) {
	// Paper Example 3.1: f_P(C_K, C_Y, C_P, C_N) with backward counts C_P,
	// C_N through the B-stable ancestor A.
	sk := bibSketch(t)
	author := synNode(t, sk, "author")
	paper := synNode(t, sk, "paper")
	keyword := synNode(t, sk, "keyword")
	year := synNode(t, sk, "year")
	name := synNode(t, sk, "name")
	scope := []ScopeEdge{
		{paper, keyword},
		{paper, year},
		{author, paper},
		{author, name},
	}
	sparse, err := sk.EdgeDistribution(paper, scope)
	if err != nil {
		t.Fatalf("EdgeDistribution: %v", err)
	}
	want := map[[4]int32]float64{
		{2, 1, 2, 1}: 0.25, // p4
		{1, 1, 2, 1}: 0.25, // p5
		{1, 1, 1, 1}: 0.50, // p8, p9
	}
	pts := sparse.Points()
	if len(pts) != len(want) {
		t.Fatalf("points = %+v", pts)
	}
	for _, p := range pts {
		k := [4]int32{p.Coords[0], p.Coords[1], p.Coords[2], p.Coords[3]}
		if math.Abs(p.Freq-want[k]) > 1e-9 {
			t.Fatalf("f_P%v = %v, want %v", k, p.Freq, want[k])
		}
	}
}

func TestEdgeDistributionRejectsBadScope(t *testing.T) {
	sk := bibSketch(t)
	paper := synNode(t, sk, "paper")
	book := synNode(t, sk, "book")
	title := synNode(t, sk, "title")
	// book is not a B-stable ancestor of paper.
	if _, err := sk.EdgeDistribution(paper, []ScopeEdge{{book, title}}); err == nil {
		t.Fatal("EdgeDistribution accepted a scope edge off the ancestor chain")
	}
}

func TestSizeBytesGrowsWithBudget(t *testing.T) {
	d := xmltree.Bibliography()
	small := New(d, DefaultConfig())
	big := New(d, exactConfig())
	if small.SizeBytes() >= big.SizeBytes() {
		t.Fatalf("size(small)=%d >= size(big)=%d", small.SizeBytes(), big.SizeBytes())
	}
}

func TestCloneIndependence(t *testing.T) {
	sk := bibSketch(t)
	c := sk.Clone()
	paper := synNode(t, sk, "paper")
	author := synNode(t, sk, "author")
	// Clones share summaries until a mutator installs a private copy.
	if !c.AddScopeEdge(paper, ScopeEdge{author, paper}) {
		t.Fatal("AddScopeEdge on the clone dropped the edge")
	}
	if len(sk.Summary(paper).Scope) == len(c.Summary(paper).Scope) {
		t.Fatal("clone scope change leaked into original")
	}
	if err := sk.Validate(); err != nil {
		t.Fatalf("original invalid after clone mutation: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestExtraScopeSurvivesRebuild(t *testing.T) {
	sk := bibSketch(t)
	paper := synNode(t, sk, "paper")
	author := synNode(t, sk, "author")
	s := sk.Summary(paper)
	s.ExtraScope = []ScopeEdge{{author, paper}}
	sk.RebuildNode(paper)
	if !containsScope(sk.Summary(paper).Scope, ScopeEdge{author, paper}) {
		t.Fatal("extra scope edge missing after rebuild")
	}
	sk.RebuildAll()
	if !containsScope(sk.Summary(paper).Scope, ScopeEdge{author, paper}) {
		t.Fatal("extra scope edge missing after RebuildAll")
	}
	if err := sk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValueHistogramsBuilt(t *testing.T) {
	sk := bibSketch(t)
	year := synNode(t, sk, "year")
	s := sk.Summary(year)
	if s.VHist == nil || s.VHist.Total() != 4 {
		t.Fatalf("year VHist = %+v", s.VHist)
	}
	name := synNode(t, sk, "name")
	if sk.Summary(name).VHist != nil {
		t.Fatal("valueless node got a value histogram")
	}
}

func TestValueHistogramsDisabled(t *testing.T) {
	cfg := exactConfig()
	cfg.InitialValueBuckets = 0
	sk := New(xmltree.Bibliography(), cfg)
	year := synNode(t, sk, "year")
	if sk.Summary(year).VHist != nil {
		t.Fatal("value histogram built despite 0 budget")
	}
}

func TestFromSynopsis(t *testing.T) {
	d := xmltree.Bibliography()
	syn := graphsyn.LabelSplit(d)
	// Pre-split the synopsis, then wrap it.
	paperTag, _ := d.LookupTag("paper")
	titleTag, _ := d.LookupTag("title")
	syn.BStabilize(syn.NodesByTag(paperTag)[0], syn.NodesByTag(titleTag)[0])
	sk := FromSynopsis(syn, exactConfig())
	if err := sk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sk.Syn.NumNodes() != 9 {
		t.Fatalf("NumNodes = %d, want 9", sk.Syn.NumNodes())
	}
	if sk.String() == "" {
		t.Fatal("empty String")
	}
}
