package xsketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xsketch/internal/eval"
	"xsketch/internal/pathexpr"
	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
)

// recursiveDoc builds a document whose schema nests a tag under itself
// (part -> part), producing a cyclic synopsis.
func recursiveDoc(depth int) *xmltree.Document {
	d := xmltree.NewDocument("assembly")
	cur := d.Root()
	for i := 0; i < depth; i++ {
		cur = d.AddChild(cur, "part")
		d.AddChild(cur, "bolt")
	}
	return d
}

func TestExpandStepRecursiveSchemaTerminates(t *testing.T) {
	d := recursiveDoc(6)
	sk := New(d, exactConfig())
	// The label-split synopsis has a part -> part self-loop; descendant
	// expansion must not loop forever. Simple paths avoid node repetition,
	// so //bolt expands to a single path (part -> bolt preceded by at most
	// one visit of part).
	ems := sk.Embeddings(twig.New(pathexpr.MustParse("//bolt")))
	if len(ems) == 0 {
		t.Fatal("no embeddings for //bolt")
	}
	// Estimate stays finite.
	got := sk.EstimateQuery(twig.New(pathexpr.MustParse("//bolt")))
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("estimate = %v", got)
	}
}

func TestMaxDescendantPathLenLimitsExpansion(t *testing.T) {
	// Distinct tags per level keep the synopsis as deep as the document
	// (a repeated tag would collapse into one synopsis node, making the
	// synopsis path short regardless of document depth).
	d := xmltree.NewDocument("r")
	cur := d.Root()
	for _, tag := range []string{"m1", "m2", "m3", "m4", "m5", "m6"} {
		cur = d.AddChild(cur, tag)
	}
	d.AddChild(cur, "leaf")
	cfg := exactConfig()
	cfg.MaxDescendantPathLen = 3
	sk := New(d, cfg)
	// leaf sits 7 synopsis steps below the root; a 3-step cap finds
	// nothing.
	if ems := sk.Embeddings(twig.New(pathexpr.MustParse("//leaf"))); len(ems) != 0 {
		t.Fatalf("embeddings = %d, want 0 under cap", len(ems))
	}
	cfg.MaxDescendantPathLen = 10
	sk2 := New(d, cfg)
	if ems := sk2.Embeddings(twig.New(pathexpr.MustParse("//leaf"))); len(ems) != 1 {
		t.Fatalf("embeddings = %d, want 1 without cap", len(ems))
	}
}

func TestEmbeddingsDescendantMidPath(t *testing.T) {
	sk := bibSketch(t)
	// author//title reaches titles via paper and via book: 2 embeddings.
	ems := sk.Embeddings(twig.MustParse("t0 in author//title"))
	if len(ems) != 2 {
		t.Fatalf("embeddings = %d, want 2", len(ems))
	}
	got := sk.EstimateQuery(twig.New(pathexpr.MustParse("author//title")))
	approx(t, got, 5, 1e-9, "author//title")
}

func TestEmbeddingChainSharing(t *testing.T) {
	// Multiple alternatives on two independent children: the cartesian
	// product must keep chains independent (no shared mutation).
	d := xmltree.NewDocument("r")
	a := d.AddChild(d.Root(), "a")
	x1 := d.AddChild(a, "x")
	d.AddChild(x1, "t")
	y := d.AddChild(a, "y")
	d.AddChild(y, "t")
	b := d.AddChild(d.Root(), "b")
	d.AddChild(b, "t")
	sk := New(d, exactConfig())
	q := twig.MustParse("t0 in a, t1 in t0//t, t2 in t0//t")
	ems := sk.Embeddings(q)
	// //t from a: via x and via y -> 2 alternatives per child, 4 combos.
	if len(ems) != 4 {
		t.Fatalf("embeddings = %d, want 4", len(ems))
	}
	for _, em := range ems {
		if em.Size() != 5 { // a + 2*(intermediate + t)
			t.Fatalf("embedding size = %d, want 5", em.Size())
		}
	}
	truth := eval.New(d).Selectivity(q)
	got := sk.EstimateQuery(q)
	approx(t, got, float64(truth), 1e-9, "t pairs")
}

func TestEstimateTwoLevelExactProperty(t *testing.T) {
	// Property: on a two-level document (root -> groups -> leaves) whose
	// child edges are all F-stable (every group has at least one child of
	// each tag, so the joint distribution is in scope), any two-level twig
	// estimate with exact joint histograms matches the exact count.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := xmltree.NewDocument("r")
		tags := []string{"x", "y", "z"}
		groups := rng.Intn(6) + 2
		for i := 0; i < groups; i++ {
			g := d.AddChild(d.Root(), "g")
			for _, tag := range tags {
				for k, n := 0, rng.Intn(3)+1; k < n; k++ {
					d.AddChild(g, tag)
				}
			}
		}
		cfg := DefaultConfig()
		cfg.InitialEdgeBuckets = 1024
		sk := New(d, cfg)
		ev := eval.New(d)
		q := twig.MustParse("t0 in g, t1 in t0/x, t2 in t0/y")
		truth := float64(ev.Selectivity(q))
		got := sk.EstimateQuery(q)
		if math.Abs(got-truth) > 1e-6*(1+truth) {
			t.Logf("seed %d: estimate %v, truth %v", seed, got, truth)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatePathChainExactProperty(t *testing.T) {
	// Property: chain paths over fully B-stable structures estimate
	// exactly with exact histograms (chains multiply exact means).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := xmltree.NewDocument("r")
		for i, n := 0, rng.Intn(5)+1; i < n; i++ {
			a := d.AddChild(d.Root(), "a")
			for j, m := 0, rng.Intn(4); j < m; j++ {
				b := d.AddChild(a, "b")
				for k, l := 0, rng.Intn(3); k < l; k++ {
					d.AddChild(b, "c")
				}
			}
		}
		cfg := DefaultConfig()
		cfg.InitialEdgeBuckets = 1024
		sk := New(d, cfg)
		ev := eval.New(d)
		for _, p := range []string{"a", "a/b", "a/b/c"} {
			truth := float64(ev.PathCount(pathexpr.MustParse(p)))
			got := sk.EstimateQuery(twig.New(pathexpr.MustParse(p)))
			if math.Abs(got-truth) > 1e-6*(1+truth) {
				t.Logf("seed %d: path %s estimate %v truth %v", seed, p, got, truth)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateNonNegativeFiniteProperty(t *testing.T) {
	// Property: estimates are always finite and non-negative, for random
	// documents, random bucket budgets and random twigs.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := xmltree.NewDocument("r")
		tags := []string{"a", "b", "c", "d"}
		for d.Len() < 60 {
			parent := xmltree.NodeID(rng.Intn(d.Len()))
			tag := tags[rng.Intn(len(tags))]
			if rng.Intn(4) == 0 {
				d.AddValueChild(parent, tag, int64(rng.Intn(50)))
			} else {
				d.AddChild(parent, tag)
			}
		}
		cfg := DefaultConfig()
		cfg.InitialEdgeBuckets = rng.Intn(8) + 1
		cfg.InitialValueBuckets = rng.Intn(4)
		sk := New(d, cfg)
		queries := []string{
			"t0 in a, t1 in t0/b, t2 in t0/c",
			"t0 in //b, t1 in t0//d",
			"t0 in a[b][c>10], t1 in t0/d",
			"t0 in a/b/c, t1 in t0/d[=0:25]",
		}
		for _, src := range queries {
			got := sk.EstimateQuery(twig.MustParse(src))
			if got < 0 || math.IsNaN(got) || math.IsInf(got, 0) {
				t.Logf("seed %d: %s -> %v", seed, src, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateEmbeddingDirect(t *testing.T) {
	// Build an embedding by hand (the low-level API used in the paper's
	// Section 4 walk-through) and check EstimateEmbedding.
	sk := bibSketch(t)
	author := synNode(t, sk, "author")
	paper := synNode(t, sk, "paper")
	keyword := synNode(t, sk, "keyword")
	em := &Embedding{Root: &EmbNode{
		Syn: author,
		Children: []*EmbNode{{
			Syn:      paper,
			Children: []*EmbNode{{Syn: keyword}},
		}},
	}}
	// |A| * E[p * E[k|...]] — with exact joints this is the exact count 5.
	got := sk.estimateEmbedding(em)
	approx(t, got, 5, 1e-9, "manual embedding")
}

func TestValueFractionPartialValues(t *testing.T) {
	// A node where only some elements carry values: the fraction scales by
	// the valued share.
	d := xmltree.NewDocument("r")
	for i := 0; i < 4; i++ {
		d.AddValueChild(d.Root(), "v", int64(i))
	}
	for i := 0; i < 4; i++ {
		d.AddChild(d.Root(), "v") // valueless
	}
	sk := New(d, exactConfig())
	// v[=0:3] matches the 4 valued elements only.
	got := sk.EstimateQuery(twig.MustParse("t0 in v[=0:3]"))
	approx(t, got, 4, 1e-9, "partial values")
}

func TestEstimateQueryIsSumOverEmbeddings(t *testing.T) {
	sk := bibSketch(t)
	for _, src := range []string{
		"t0 in //title",
		"t0 in author//title",
		"t0 in author, t1 in t0//title, t2 in t0/name",
	} {
		q := twig.MustParse(src)
		total := 0.0
		for _, em := range sk.Embeddings(q) {
			total += sk.estimateEmbedding(em)
		}
		approx(t, sk.EstimateQuery(q), total, 1e-9, src)
	}
}

func TestConditioningUnderCompression(t *testing.T) {
	// Backward-count conditioning with a lossy (compressed) histogram:
	// the Match nearest-bucket fallback must keep estimates finite and
	// sane. Build a deep correlated document: groups with many mid nodes
	// have mids with many leaves.
	d := xmltree.NewDocument("r")
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		g := d.AddChild(d.Root(), "g")
		mids := rng.Intn(6) + 1
		for j := 0; j < mids; j++ {
			m := d.AddChild(g, "m")
			// Leaf count correlated with the parent's mid count.
			for k := 0; k < mids+rng.Intn(2); k++ {
				d.AddChild(m, "leaf")
			}
		}
	}
	cfg := DefaultConfig()
	cfg.InitialEdgeBuckets = 3 // deliberately lossy
	sk := New(d, cfg)
	m := synNode(t, sk, "m")
	g := synNode(t, sk, "g")
	s := sk.Summary(m)
	s.ExtraScope = append(s.ExtraScope, ScopeEdge{From: g, To: m})
	sk.RebuildNode(m)
	if err := sk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	q := twig.MustParse("t0 in g, t1 in t0/m, t2 in t1/leaf")
	truth := float64(eval.New(d).Selectivity(q))
	got := sk.EstimateQuery(q)
	if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
		t.Fatalf("estimate = %v", got)
	}
	if got < truth/3 || got > truth*3 {
		t.Fatalf("compressed conditioning estimate %v far from truth %v", got, truth)
	}
	// The backward count should not be worse than the unconditioned
	// estimate by much; compare against forward-only at same buckets.
	plain := New(d, cfg)
	plainEst := plain.EstimateQuery(q)
	t.Logf("truth %v, conditioned %v, forward-only %v", truth, got, plainEst)
}

func TestEmbeddingsTruncatedTinyBudget(t *testing.T) {
	// Regression: a budget too small for the full chain used to starve the
	// outer enumeration levels entirely, returning zero embeddings (and so
	// a zero estimate) for a query the synopsis clearly embeds. The budget
	// is now a soft floor: each level keeps at least its first alternative.
	cfg := exactConfig()
	cfg.MaxEmbeddings = 1
	sk := New(xmltree.Bibliography(), cfg)
	q := twig.MustParse("t0 in author, t1 in t0/paper, t2 in t1/title")
	ems, truncated := sk.EmbeddingsTruncated(q)
	if len(ems) == 0 {
		t.Fatal("tiny budget collapsed an embeddable query to zero embeddings")
	}
	if !truncated {
		t.Fatal("budget 1 on a multi-level chain should report truncation")
	}
	res := sk.EstimateQueryResult(q)
	if res.Estimate <= 0 {
		t.Fatalf("estimate under tiny budget = %v, want > 0", res.Estimate)
	}
	if !res.Truncated {
		t.Fatal("EstimateQueryResult should surface truncation")
	}
	// An ample budget reports no truncation.
	if _, tr := bibSketch(t).EmbeddingsTruncated(q); tr {
		t.Fatal("ample budget reported truncation")
	}
}

func TestEmbeddingsNoDuplicates(t *testing.T) {
	// The root-self interpretation of absolute paths must not introduce
	// duplicate embeddings (each would be double-counted by the estimate's
	// sum over embeddings). Checked on absolute paths naming the root tag
	// and on a recursive schema where descendant expansion is busiest.
	check := func(sk *Sketch, src string) {
		t.Helper()
		ems := sk.Embeddings(twig.MustParse(src))
		seen := make(map[string]bool, len(ems))
		for _, em := range ems {
			sig := embSig(em.Root)
			if seen[sig] {
				t.Errorf("%s: duplicate embedding %s", src, sig)
			}
			seen[sig] = true
		}
	}
	bib := bibSketch(t)
	check(bib, "t0 in bib/author")
	check(bib, "t0 in bib, t1 in t0/author")
	check(bib, "t0 in //title")
	rec := New(recursiveDoc(6), exactConfig())
	check(rec, "t0 in //part, t1 in t0/bolt")
	check(rec, "t0 in assembly/part")
}

func TestEstimateRootSelfInterpretation(t *testing.T) {
	sk := bibSketch(t)
	ev := eval.New(sk.Syn.Doc)
	for _, src := range []string{
		"t0 in bib/author",
		"t0 in bib/author/paper/keyword",
		"t0 in bib",
		"t0 in bib, t1 in t0/author, t2 in t1/paper",
		"t0 in bib/author, t1 in t0/name, t2 in t0/paper",
	} {
		q := twig.MustParse(src)
		truth := float64(ev.Selectivity(q))
		got := sk.EstimateQuery(q)
		approx(t, got, truth, 1e-9, src)
	}
}
