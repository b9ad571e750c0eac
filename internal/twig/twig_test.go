package twig

import (
	"strings"
	"testing"

	"xsketch/internal/pathexpr"
)

func TestParsePaperMovieQuery(t *testing.T) {
	q, err := Parse("for t0 in //movie[/type=5], t1 in t0/actor, t2 in t0/producer")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.NodeCount() != 3 {
		t.Fatalf("NodeCount = %d, want 3", q.NodeCount())
	}
	if len(q.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(q.Root.Children))
	}
	if q.Root.Path.Steps[0].Label != "movie" || q.Root.Path.Steps[0].Axis != pathexpr.Descendant {
		t.Fatalf("root path = %s", q.Root.Path)
	}
	if len(q.Root.Path.Steps[0].Branches) != 1 {
		t.Fatalf("root branches = %d", len(q.Root.Path.Steps[0].Branches))
	}
	if q.Root.Children[0].Path.String() != "actor" {
		t.Fatalf("child0 = %s", q.Root.Children[0].Path)
	}
}

func TestParsePaperBibQuery(t *testing.T) {
	// The twig query of Figure 2(b): authors, their name, papers with
	// year > 2000, and the papers' title and keyword.
	q, err := Parse("for t0 in author, t1 in t0/name, t2 in t0/paper[year>2000], t3 in t2/title, t4 in t2/keyword")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.NodeCount() != 5 {
		t.Fatalf("NodeCount = %d, want 5", q.NodeCount())
	}
	if len(q.Root.Children) != 2 {
		t.Fatalf("root children = %d", len(q.Root.Children))
	}
	paper := q.Root.Children[1]
	if len(paper.Children) != 2 {
		t.Fatalf("paper children = %d", len(paper.Children))
	}
	if q.Leaves() != 3 {
		t.Fatalf("Leaves = %d, want 3", q.Leaves())
	}
	// Internal nodes: t0 (2 children), t2 (2 children) -> avg fanout 2.
	if got := q.AvgFanout(); got != 2 {
		t.Fatalf("AvgFanout = %v, want 2", got)
	}
}

func TestParseOptionalFor(t *testing.T) {
	q1 := MustParse("for t0 in a, t1 in t0/b")
	q2 := MustParse("t0 in a, t1 in t0/b")
	if q1.String() != q2.String() {
		t.Fatalf("%q vs %q", q1, q2)
	}
}

func TestParseDeepChains(t *testing.T) {
	q := MustParse("x in a/b/c, y in x/d/e")
	if q.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d", q.NodeCount())
	}
	if len(q.Root.Path.Steps) != 3 || len(q.Root.Children[0].Path.Steps) != 2 {
		t.Fatal("step counts wrong")
	}
	if !q.IsPathQuery() {
		t.Fatal("IsPathQuery = false")
	}
}

func TestParseCommaInsidePredicate(t *testing.T) {
	// Ensure bracket-nesting is respected when splitting bindings. We don't
	// have commas in predicates in the grammar, but brackets with slashes
	// must not confuse the splitter.
	q := MustParse("t0 in a[b/c]/d, t1 in t0/e")
	if q.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d", q.NodeCount())
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrorSeeds {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{
		"for t0 in //movie[/type=5], t1 in t0/actor, t2 in t0/producer",
		"for t0 in author, t1 in t0/name, t2 in t0/paper[year>2000], t3 in t2/title, t4 in t2/keyword",
		"for t0 in a/b/c",
	}
	for _, src := range cases {
		q := MustParse(src)
		q2 := MustParse(q.String())
		if q.String() != q2.String() {
			t.Errorf("round trip %q -> %q -> %q", src, q, q2)
		}
	}
}

func TestBuilderAPI(t *testing.T) {
	q := New(pathexpr.MustParse("author"))
	name := q.AddChild(q.Root, pathexpr.MustParse("name"))
	paper := q.AddChild(q.Root, pathexpr.MustParse("paper"))
	q.AddChild(paper, pathexpr.MustParse("keyword"))
	if q.NodeCount() != 4 {
		t.Fatalf("NodeCount = %d", q.NodeCount())
	}
	if name.Var != "t1" {
		t.Fatalf("name.Var = %q", name.Var)
	}
	nodes := q.Nodes()
	if len(nodes) != 4 || nodes[0] != q.Root {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestCloneIndependence(t *testing.T) {
	q := MustParse("t0 in a[>5], t1 in t0/b")
	c := q.Clone()
	c.Root.Path.Steps[0].Value.Lo = 99
	c.Root.Children[0].Path.Steps[0].Label = "zzz"
	if q.Root.Path.Steps[0].Value.Lo == 99 || q.Root.Children[0].Path.Steps[0].Label == "zzz" {
		t.Fatal("clone aliases original")
	}
	if c.NodeCount() != q.NodeCount() {
		t.Fatal("clone shape differs")
	}
}

func TestIsSimple(t *testing.T) {
	if !MustParse("t0 in a/b, t1 in t0/c").IsSimple() {
		t.Error("simple query reported non-simple")
	}
	if MustParse("t0 in a[>5]").IsSimple() {
		t.Error("value predicate reported simple")
	}
	if MustParse("t0 in a[b]").IsSimple() {
		t.Error("branch predicate reported simple")
	}
	if MustParse("t0 in //a").IsSimple() {
		t.Error("descendant axis reported simple")
	}
}

func TestCountValuePreds(t *testing.T) {
	q := MustParse("t0 in a[>5], t1 in t0/b[c=2]/d[<9]")
	if got := q.CountValuePreds(); got != 3 {
		t.Fatalf("CountValuePreds = %d, want 3", got)
	}
}

func TestStringRenumbersVars(t *testing.T) {
	q := MustParse("x in a, y in x/b")
	s := q.String()
	if !strings.Contains(s, "t0 in a") || !strings.Contains(s, "t1 in t0/b") {
		t.Fatalf("String = %q", s)
	}
}

func TestIsPathQueryFalseForBranching(t *testing.T) {
	q := MustParse("t0 in a, t1 in t0/b, t2 in t0/c")
	if q.IsPathQuery() {
		t.Fatal("branching twig reported as path query")
	}
}

// TestParseLabelUTF8 checks that twig bindings accept non-ASCII labels
// and reject invalid UTF-8 inside a path.
func TestParseLabelUTF8(t *testing.T) {
	q, err := Parse("t0 in //café, t1 in t0/prénom")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := q.String(); got != "for t0 in //café, t1 in t0/prénom" {
		t.Fatalf("String = %q", got)
	}
	if q.Root.Path.Steps[0].Label != "café" || q.Root.Children[0].Path.Steps[0].Label != "prénom" {
		t.Fatalf("labels = %q, %q", q.Root.Path.Steps[0].Label, q.Root.Children[0].Path.Steps[0].Label)
	}
	_, err = Parse("t0 in //a\xffb")
	want := `twig: binding "t0 in //a\xffb": pathexpr: at offset 3 of "//a\xffb": unexpected "\xffb"`
	if err == nil || err.Error() != want {
		t.Fatalf("Parse error = %v, want %s", err, want)
	}
}
