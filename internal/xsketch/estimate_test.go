package xsketch

import (
	"math"
	"testing"

	"xsketch/internal/eval"
	"xsketch/internal/pathexpr"
	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func TestEstimatePathExactOnStableChains(t *testing.T) {
	sk := bibSketch(t)
	cases := []struct {
		path string
		want float64
	}{
		{"author", 3},
		{"author/paper", 4},
		{"author/paper/keyword", 5},
		{"author/name", 3},
		{"author/paper/year", 4},
	}
	for _, c := range cases {
		got := sk.EstimateQuery(twig.New(pathexpr.MustParse(c.path)))
		approx(t, got, c.want, 1e-9, c.path)
	}
}

func TestEstimatePathDescendant(t *testing.T) {
	// Figure 5 of the paper: //title expands into the author/paper/title
	// and author/book/title maximal forms; their estimates sum to |title|.
	sk := bibSketch(t)
	ems := sk.Embeddings(twig.New(pathexpr.MustParse("//title")))
	if len(ems) != 2 {
		t.Fatalf("embeddings of //title = %d, want 2", len(ems))
	}
	got := sk.EstimateQuery(twig.New(pathexpr.MustParse("//title")))
	approx(t, got, 5, 1e-9, "//title")
}

func TestEstimateTwigFanout(t *testing.T) {
	sk := bibSketch(t)
	ev := eval.New(sk.Syn.Doc)
	q := twig.MustParse("t0 in author, t1 in t0/name, t2 in t0/paper, t3 in t2/title, t4 in t2/keyword")
	truth := float64(ev.Selectivity(q))
	got := sk.EstimateQuery(q)
	// With exact joint histograms over F-stable children, this query's
	// estimate is exact: each level's joint distribution is stored.
	approx(t, got, truth, 1e-9, "author{name, paper{title, keyword}}")
}

func TestEstimateValuePredicate(t *testing.T) {
	sk := bibSketch(t)
	q := twig.MustParse("t0 in author/paper/year[>2000]")
	// Exact value histogram: 2 of 4 years exceed 2000.
	approx(t, sk.EstimateQuery(q), 2, 1e-9, "year>2000")
	q2 := twig.MustParse("t0 in author/paper/year[=1998:1999]")
	approx(t, sk.EstimateQuery(q2), 2, 1e-9, "year in 1998..1999")
	q3 := twig.MustParse("t0 in author/paper/year[>2100]")
	approx(t, sk.EstimateQuery(q3), 0, 1e-9, "year>2100")
	// Value predicate on a node that never carries values.
	q4 := twig.MustParse("t0 in author/name[>0]")
	approx(t, sk.EstimateQuery(q4), 0, 1e-9, "name>0")
}

func TestEstimateBranchPredicate(t *testing.T) {
	sk := bibSketch(t)
	// author[book]: 1 of 3 authors; the A->book edge is B-stable so
	// |A->book| = |book| = 1 and the expected-count estimate is exact.
	q := twig.MustParse("t0 in author[book]")
	approx(t, sk.EstimateQuery(q), 1, 1e-9, "author[book]")
	// author[paper] is F-stable: every author qualifies.
	q2 := twig.MustParse("t0 in author[paper]")
	approx(t, sk.EstimateQuery(q2), 3, 1e-9, "author[paper]")
	// Nested branch with value predicate: author[paper/year>2000].
	q3 := twig.MustParse("t0 in author[paper/year>2000]")
	got := sk.EstimateQuery(q3)
	// Expected matches per author = E[papers] * P(year>2000) = 4/3 * 0.5 =
	// 2/3, clamped at 1 -> estimate 3 * 2/3 = 2. Truth is also 2 (a1, a2).
	approx(t, got, 2, 1e-9, "author[paper/year>2000]")
	// Branch that can never match.
	q4 := twig.MustParse("t0 in author[magazine]")
	approx(t, sk.EstimateQuery(q4), 0, 1e-9, "author[magazine]")
}

func TestEstimateMotivatingExample(t *testing.T) {
	// Paper Figure 4: both documents share the same zero-error single-path
	// XSKETCH, but the twig pairing b's and c's under the same a has true
	// selectivity 2000 vs 10100. With exact joint edge histograms the
	// estimates are exact; with a single bucket both documents estimate the
	// same (wrong) value, demonstrating why edge distributions are needed.
	q := twig.MustParse("t0 in a, t1 in t0/b, t2 in t0/c")
	exact := exactConfig()
	skU := New(xmltree.MotivatingUniform(), exact)
	skS := New(xmltree.MotivatingSkewed(), exact)
	approx(t, skU.EstimateQuery(q), 2000, 1e-6, "uniform doc, exact buckets")
	approx(t, skS.EstimateQuery(q), 10100, 1e-6, "skewed doc, exact buckets")

	coarse := DefaultConfig() // 1 bucket per histogram
	cU := New(xmltree.MotivatingUniform(), coarse)
	cS := New(xmltree.MotivatingSkewed(), coarse)
	eu, es := cU.EstimateQuery(q), cS.EstimateQuery(q)
	// One centroid bucket stores only mean counts (55, 55): both documents
	// produce the same estimate 2*55*55.
	approx(t, eu, 6050, 1e-6, "uniform doc, 1 bucket")
	approx(t, es, 6050, 1e-6, "skewed doc, 1 bucket")
}

// workedExampleDoc modifies the bibliography fixture so that author a3 owns
// two books, reproducing the |A->B| = 2 of the paper's Section 4 walk-through
// (which evaluates to s(T) = 10/3).
func workedExampleDoc() *xmltree.Document {
	d := xmltree.NewDocument("bib")
	root := d.Root()
	addPaper := func(a xmltree.NodeID, year int64, keywords int) {
		p := d.AddChild(a, "paper")
		d.AddChild(p, "title")
		d.AddValueChild(p, "year", year)
		for i := 0; i < keywords; i++ {
			d.AddChild(p, "keyword")
		}
	}
	a1 := d.AddChild(root, "author")
	d.AddChild(a1, "name")
	addPaper(a1, 1999, 2)
	addPaper(a1, 2002, 1)
	a2 := d.AddChild(root, "author")
	d.AddChild(a2, "name")
	addPaper(a2, 2001, 1)
	a3 := d.AddChild(root, "author")
	d.AddChild(a3, "name")
	addPaper(a3, 1998, 1)
	for i := 0; i < 2; i++ {
		b := d.AddChild(a3, "book")
		d.AddChild(b, "title")
	}
	return d
}

func TestEstimatePaperWorkedExample(t *testing.T) {
	// Section 4's walk-through: the embedding T = A{B, N, P{K, Y}} with
	// histograms H_A(p, n) and H_P(k, y, p) (backward count p) evaluates to
	//
	//   s(T) = |A->B| * Σ_{k,y,p,n} F_A(p,n) * F_P(k,y | p) = 10/3
	//
	// with |A->B| = 2, H_A = {(2,1): 1/3, (1,1): 2/3} and H_P = {(2,1,2):
	// .25, (1,1,2): .25, (1,1,1): .5}.
	d := workedExampleDoc()
	sk := New(d, exactConfig())
	if err := sk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	author := synNode(t, sk, "author")
	paper := synNode(t, sk, "paper")
	// Add the backward count C_P = (A -> P) to the paper histogram, as in
	// Figure 6(b).
	s := sk.Summary(paper)
	s.ExtraScope = append(s.ExtraScope, ScopeEdge{author, paper})
	sk.RebuildNode(paper)

	q := twig.MustParse("t0 in author, t1 in t0/book, t2 in t0/name, t3 in t0/paper, t4 in t3/keyword, t5 in t3/year")
	got := sk.EstimateQuery(q)
	approx(t, got, 10.0/3, 1e-9, "worked example s(T)")

	// Sanity: the true count is 2 (only a3 has books: 2 books * 1 name *
	// 1 keyword * 1 year).
	if truth := eval.New(d).Selectivity(q); truth != 2 {
		t.Fatalf("true selectivity = %d, want 2", truth)
	}
}

func TestBackwardCountConditioningImprovesEstimate(t *testing.T) {
	// Without the backward count the same query falls back to Correlation
	// Scope Independence with an unconditioned F_P, giving a different
	// (less informed) estimate. This pins the ablation the paper's
	// prototype discussion mentions (no backward counts).
	d := workedExampleDoc()
	skNoBack := New(d, exactConfig())
	q := twig.MustParse("t0 in author, t1 in t0/book, t2 in t0/name, t3 in t0/paper, t4 in t3/keyword, t5 in t3/year")
	got := skNoBack.EstimateQuery(q)
	// Unconditioned: |A->B| * Σ F_A(p,n) * Σ F_P(k,y) =
	// 2 * (1/3*2 + 2/3*1) * (0.25*2 + 0.25*1 + 0.5*1) = 2 * 4/3 * 1.25.
	approx(t, got, 2*(4.0/3)*1.25, 1e-9, "forward-only estimate")
}

func TestEstimateZeroForMissingStructure(t *testing.T) {
	sk := bibSketch(t)
	for _, src := range []string{
		"t0 in magazine",
		"t0 in author/magazine",
		"t0 in author, t1 in t0/paper, t2 in t1/book",
		"t0 in book/keyword",
	} {
		if got := sk.EstimateQuery(twig.MustParse(src)); got != 0 {
			t.Errorf("EstimateQuery(%q) = %v, want 0", src, got)
		}
	}
}

func TestEmbeddingsRespectBudget(t *testing.T) {
	cfg := exactConfig()
	cfg.MaxEmbeddings = 1
	sk := New(xmltree.Bibliography(), cfg)
	ems := sk.Embeddings(twig.New(pathexpr.MustParse("//title")))
	if len(ems) != 1 {
		t.Fatalf("embeddings = %d, want 1 (budget)", len(ems))
	}
}

func TestEmbeddingSizeAndWalk(t *testing.T) {
	sk := bibSketch(t)
	q := twig.MustParse("t0 in author, t1 in t0/paper, t2 in t1/keyword")
	ems := sk.Embeddings(q)
	if len(ems) != 1 {
		t.Fatalf("embeddings = %d", len(ems))
	}
	if got := ems[0].Size(); got != 3 {
		t.Fatalf("embedding size = %d, want 3", got)
	}
	var tags []string
	ems[0].Walk(func(n, parent *EmbNode) {
		tags = append(tags, sk.Syn.Doc.Tag(sk.Syn.Node(n.Syn).Tag))
	})
	if len(tags) != 3 || tags[0] != "author" || tags[1] != "paper" || tags[2] != "keyword" {
		t.Fatalf("walk tags = %v", tags)
	}
}

func TestEstimateMultiStepPathNode(t *testing.T) {
	// A twig node whose path has several steps expands into a chain of
	// maximal nodes (Section 4).
	sk := bibSketch(t)
	q := twig.MustParse("t0 in author/paper, t1 in t0/keyword")
	ev := eval.New(sk.Syn.Doc)
	approx(t, sk.EstimateQuery(q), float64(ev.Selectivity(q)), 1e-9, "multi-step")
}

func TestEstimateRepeatedChildEdge(t *testing.T) {
	// Two twig nodes over the same synopsis edge: pairs of keywords of the
	// same paper. Truth: papers have (2,1,1,1) keywords -> Σ k^2 = 4+1+1+1
	// = 7. The exact joint histogram captures E[k^2] across buckets.
	sk := bibSketch(t)
	q := twig.MustParse("t0 in author/paper, t1 in t0/keyword, t2 in t0/keyword")
	approx(t, sk.EstimateQuery(q), 7, 1e-9, "keyword pairs")
}

func TestEstimateDescendantBranch(t *testing.T) {
	sk := bibSketch(t)
	// author[//keyword]: every author has at least one paper keyword.
	q := twig.MustParse("t0 in author[//keyword]")
	got := sk.EstimateQuery(q)
	if got < 2.9 || got > 3.0+1e-9 {
		t.Fatalf("author[//keyword] = %v, want ~3", got)
	}
}

func TestStoreEdgeCountsImprovesUnstableEdges(t *testing.T) {
	// A node whose elements split unevenly across two parents: without
	// stored edge counts the estimator splits |v| proportionally to parent
	// extent sizes; with them, exactly.
	d := xmltree.NewDocument("r")
	a := d.AddChild(d.Root(), "a")
	b1 := d.AddChild(d.Root(), "b")
	d.AddChild(d.Root(), "b") // second b with no t child: b->t not F-stable
	// 9 of 10 t-elements under a, 1 under b1.
	for i := 0; i < 9; i++ {
		d.AddChild(a, "t")
	}
	d.AddChild(b1, "t")

	plain := New(d, exactConfig())
	exactCounts := exactConfig()
	exactCounts.StoreEdgeCounts = true
	stored := New(d, exactCounts)

	q := twig.MustParse("t0 in b, t1 in t0/t")
	truth := float64(eval.New(d).Selectivity(q)) // 1
	// b->t is not F-stable, so Forward Uniformity applies. Proportional
	// split of |t| = 10 over the parent extents |a| = 1, |b| = 2:
	// |b->t| ~ 10 * 2/3, estimate = |b| * (|b->t| / |b|) = 20/3.
	approx(t, plain.EstimateQuery(q), 20.0/3, 1e-9, "proportional split")
	approx(t, stored.EstimateQuery(q), truth, 1e-9, "stored edge counts")
	if stored.SizeBytes() <= plain.SizeBytes() {
		t.Fatal("stored edge counts not charged by the size model")
	}
}
