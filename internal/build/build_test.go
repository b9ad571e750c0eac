package build

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"xsketch/internal/catalog"
	"xsketch/internal/graphsyn"
	"xsketch/internal/workload"
	"xsketch/internal/xmlgen"
	"xsketch/internal/xmltree"
	core "xsketch/internal/xsketch"
)

// builtState is what the determinism tests compare between two builds:
// the persisted synopsis bytes (structure and histogram bits) plus the
// element-to-node assignment, which the persisted form does not carry.
type builtState struct {
	encoded []byte
	assign  []graphsyn.NodeID
}

func stateOf(t *testing.T, sk *core.Sketch) builtState {
	t.Helper()
	encoded, err := catalog.EncodeBytes(sk)
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	return builtState{encoded: encoded, assign: sk.Syn.Assignment()}
}

func (a builtState) equal(b builtState) bool {
	return bytes.Equal(a.encoded, b.encoded) && slices.Equal(a.assign, b.assign)
}

// TestXBuildDeterministic pins the determinism guarantee of the parallel
// candidate scorer: the same seed yields byte-identical persisted synopses
// over the same element partition regardless of the worker count.
func TestXBuildDeterministic(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 7, Scale: 0.02})
	buildWith := func(par int) builtState {
		opts := DefaultOptions(1 << 30)
		opts.Seed = 3
		opts.MaxSteps = 15
		opts.Parallelism = par
		return stateOf(t, XBuild(doc, opts))
	}
	serial := buildWith(1)
	for run := 0; run < 2; run++ {
		if parallel := buildWith(4); !serial.equal(parallel) {
			t.Fatalf("run %d: parallel build diverged from serial build (%d vs %d bytes)", run, len(parallel.encoded), len(serial.encoded))
		}
	}
}

// TestXBuildBudgetCompliance checks the built synopsis never exceeds its
// byte budget when the coarsest synopsis fits it.
func TestXBuildBudgetCompliance(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 2, Scale: 0.03})
	coarse := core.New(doc, core.DefaultConfig()).SizeBytes()
	for _, factor := range []int{2, 3, 5} {
		budget := coarse * factor
		opts := DefaultOptions(budget)
		opts.MaxSteps = 200
		b := NewBuilder(doc, opts)
		b.Run()
		sk := b.Sketch()
		if got := sk.SizeBytes(); got > budget {
			t.Errorf("budget %d: built %d bytes", budget, got)
		}
		if err := sk.Validate(); err != nil {
			t.Errorf("budget %d: invalid synopsis: %v", budget, err)
		}
	}
}

// TestBuilderRunTo checks incremental sweeps: each RunTo call leaves the
// synopsis valid and at least as large as before, and steps accumulate.
func TestBuilderRunTo(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 4, Scale: 0.03})
	coarse := core.New(doc, core.DefaultConfig()).SizeBytes()
	opts := DefaultOptions(1 << 30)
	opts.MaxSteps = 100
	b := NewBuilder(doc, opts)
	prevSize, prevSteps := b.Sketch().SizeBytes(), 0
	for _, f := range []float64{1.2, 1.6, 2.2, 3} {
		b.RunTo(int(f * float64(coarse)))
		sk := b.Sketch()
		if sk.SizeBytes() < prevSize {
			t.Fatalf("RunTo(%v) shrank the synopsis: %d -> %d", f, prevSize, sk.SizeBytes())
		}
		if len(b.Steps()) < prevSteps {
			t.Fatalf("steps went backwards")
		}
		if err := sk.Validate(); err != nil {
			t.Fatalf("RunTo(%v): %v", f, err)
		}
		prevSize, prevSteps = sk.SizeBytes(), len(b.Steps())
	}
}

// sixOpsDoc builds a document with one planted imperfection per refinement
// operation:
//
//   - lib/shop both contain item elements whose page fan-out depends on
//     the parent (5 vs 1) — only b-stabilize separates the conditional;
//   - some q elements lack an s child, and the two groups differ in their
//     w fan-out — f-stabilize splits them cheaply;
//   - a's b fan-out is bimodal — edge-refine needs extra buckets;
//   - e carries three always-present child tags (an expensive summary to
//     duplicate by splitting) plus a y child whose presence tracks the k
//     fan-outs — edge-expand adds the y count dimension for a few bytes;
//   - price values are heavily skewed — value-refine grows the summary;
//   - m's t-child value determines its act fan-out (the paper's
//     genre/cast-size correlation) — value-expand captures it.
func sixOpsDoc() *xmltree.Document {
	d := xmltree.NewDocument("r")
	root := d.Root()

	lib := d.AddChild(root, "lib")
	shop := d.AddChild(root, "shop")
	for i := 0; i < 12; i++ {
		it := d.AddChild(lib, "item")
		for p := 0; p < 5; p++ {
			d.AddChild(it, "page")
		}
	}
	for i := 0; i < 12; i++ {
		it := d.AddChild(shop, "item")
		d.AddChild(it, "page")
	}

	hub := d.AddChild(root, "hub")
	for i := 0; i < 12; i++ {
		q := d.AddChild(hub, "q")
		d.AddChild(q, "s")
		for j := 0; j < 6; j++ {
			d.AddChild(q, "w")
		}
	}
	for i := 0; i < 12; i++ {
		q := d.AddChild(hub, "q")
		d.AddChild(q, "w")
	}

	zone := d.AddChild(root, "zone")
	for i := 0; i < 15; i++ {
		a := d.AddChild(zone, "a")
		d.AddChild(a, "b")
	}
	for i := 0; i < 15; i++ {
		a := d.AddChild(zone, "a")
		for j := 0; j < 8; j++ {
			d.AddChild(a, "b")
		}
	}

	exch := d.AddChild(root, "exch")
	for i := 0; i < 24; i++ {
		e := d.AddChild(exch, "e")
		k := 1
		if i%2 == 1 {
			k = 7
		}
		for _, tag := range []string{"k1", "k2", "k3"} {
			for j := 0; j < k; j++ {
				d.AddChild(e, tag)
			}
		}
		if k == 7 {
			for j := 0; j < 5; j++ {
				d.AddChild(e, "y")
			}
		}
	}

	store := d.AddChild(root, "store")
	for i := 0; i < 30; i++ {
		p := d.AddChild(store, "prod")
		v := int64(i % 5)
		if i%7 == 0 {
			v = 900 + int64(i)
		}
		d.AddValueChild(p, "price", v)
	}

	cine := d.AddChild(root, "cine")
	for i := 0; i < 24; i++ {
		m := d.AddChild(cine, "m")
		g := int64(i % 2)
		d.AddValueChild(m, "t", g)
		acts := 1
		if g == 1 {
			acts = 9
		}
		for j := 0; j < acts; j++ {
			d.AddChild(m, "act")
		}
	}
	return d
}

// TestAllSixRefinementOpsSelected runs XBUILD on the crafted document and
// checks every refinement operation is adopted at least once.
func TestAllSixRefinementOpsSelected(t *testing.T) {
	doc := sixOpsDoc()
	opts := DefaultOptions(1 << 30)
	opts.Seed = 1
	opts.MaxSteps = 80
	opts.MaxCandidates = 400
	opts.ScoringQueries = 60
	opts.EnableBackwardExpand = true
	b := NewBuilder(doc, opts)
	b.Run()
	seen := map[Op]int{}
	for _, s := range b.Steps() {
		seen[s.Refinement.Op]++
	}
	t.Logf("%d steps: %v", len(b.Steps()), seen)
	for _, op := range []Op{OpBStabilize, OpFStabilize, OpEdgeRefine, OpEdgeExpand, OpValueRefine, OpValueExpand} {
		if seen[op] == 0 {
			t.Errorf("refinement %s never selected", op)
		}
	}
	if err := b.Sketch().Validate(); err != nil {
		t.Fatalf("final synopsis invalid: %v", err)
	}
}

// TestRandomSelectionBuilds checks the ablation policy still produces a
// valid, budget-compliant synopsis and stays deterministic per seed.
func TestRandomSelectionBuilds(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 5, Scale: 0.02})
	coarse := core.New(doc, core.DefaultConfig()).SizeBytes()
	opts := DefaultOptions(coarse * 3)
	opts.RandomSelection = true
	opts.MaxSteps = 30
	save := func() builtState {
		sk := XBuild(doc, opts)
		if err := sk.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if sk.SizeBytes() > opts.BudgetBytes {
			t.Fatalf("over budget: %d > %d", sk.SizeBytes(), opts.BudgetBytes)
		}
		return stateOf(t, sk)
	}
	if !save().equal(save()) {
		t.Fatal("random selection not deterministic for a fixed seed")
	}
}

// TestReferenceScoringBuilds checks reference-summary scoring runs and
// yields finite estimates comparable to exact-scored construction.
func TestReferenceScoringBuilds(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 6, Scale: 0.02})
	coarse := core.New(doc, core.DefaultConfig()).SizeBytes()
	opts := DefaultOptions(coarse * 3)
	opts.ReferenceScoring = true
	opts.MaxSteps = 20
	sk := XBuild(doc, opts)
	if err := sk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	w := workload.Generate(doc, workload.Config{Kind: workload.KindP, NumQueries: 10, MinNodes: 2, MaxNodes: 5, Seed: 8, BranchProb: 0.2, DescendantProb: 0.2, MultiStepProb: 0.2})
	for _, q := range w.Queries {
		est := sk.EstimateQuery(q.Twig)
		if est < 0 || math.IsNaN(est) || math.IsInf(est, 0) {
			t.Fatalf("estimate %v for %s", est, q.Twig)
		}
	}
}

// TestScoringWorkloadOverride checks a caller-provided workload is used
// verbatim (no anchored resampling) and steers construction.
func TestScoringWorkloadOverride(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 9, Scale: 0.02})
	w := workload.Generate(doc, workload.Config{Kind: workload.KindSimple, NumQueries: 20, MinNodes: 1, MaxNodes: 1, Seed: 3, MultiStepProb: 0.8})
	if len(w.Queries) == 0 {
		t.Skip("no queries generated")
	}
	coarse := core.New(doc, core.DefaultConfig()).SizeBytes()
	opts := DefaultOptions(coarse * 3)
	opts.ScoringWorkload = w
	opts.MaxSteps = 20
	b := NewBuilder(doc, opts)
	b.Run()
	if got := len(b.queries); got != len(w.Queries) {
		t.Fatalf("scoring on %d queries, want the %d provided", got, len(w.Queries))
	}
	if err := b.Sketch().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestRefinementString covers the trace rendering of every operation.
func TestRefinementString(t *testing.T) {
	cases := map[string]Refinement{
		"b-stabilize(1->2)":              {Op: OpBStabilize, From: 1, To: 2},
		"f-stabilize(3->4)":              {Op: OpFStabilize, From: 3, To: 4},
		"edge-refine(n5, 8 buckets)":     {Op: OpEdgeRefine, Node: 5, Buckets: 8},
		"value-refine(n6, 4 units)":      {Op: OpValueRefine, Node: 6, Buckets: 4},
		"edge-expand(n7 += 7->9)":        {Op: OpEdgeExpand, Node: 7, From: 7, To: 9},
		"value-expand(n8 += values(n9))": {Op: OpValueExpand, Node: 8, Source: 9},
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestZeroBudget checks a budget below the coarsest synopsis yields the
// coarsest synopsis untouched (zero steps).
func TestZeroBudget(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 1, Scale: 0.02})
	b := NewBuilder(doc, DefaultOptions(1))
	b.Run()
	if len(b.Steps()) != 0 {
		t.Fatalf("applied %d refinements under a 1-byte budget", len(b.Steps()))
	}
	if err := b.Sketch().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestXBuildRefinementSequenceDeterministic pins determinism at the step
// level, not just in the persisted bytes: two builds from the same seed must
// choose the same refinement, in the same order, at every step. This is the
// invariant the maporder analyzer protects in score.go — an unsorted map
// range feeding candidate scoring would break it.
func TestXBuildRefinementSequenceDeterministic(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 9, Scale: 0.02})
	runOnce := func() []Step {
		opts := DefaultOptions(1 << 30)
		opts.Seed = 11
		opts.MaxSteps = 12
		opts.Parallelism = 4
		b := NewBuilder(doc, opts)
		b.Run()
		return b.Steps()
	}
	first := runOnce()
	if len(first) == 0 {
		t.Fatal("build produced no refinement steps; the test exercises nothing")
	}
	second := runOnce()
	if len(first) != len(second) {
		t.Fatalf("step counts diverged: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("step %d diverged:\n  first:  %+v\n  second: %+v", i, first[i], second[i])
		}
	}
}
