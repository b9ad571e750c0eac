package xsketch_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"xsketch/internal/build"
	"xsketch/internal/cst"
	"xsketch/internal/eval"
	"xsketch/internal/metrics"
	"xsketch/internal/pathexpr"
	"xsketch/internal/twig"
	"xsketch/internal/workload"
	"xsketch/internal/xmlgen"
	"xsketch/internal/xmltree"
	"xsketch/internal/xsketch"
)

// TestPipelineEndToEnd exercises the full flow on every dataset: generate,
// serialize, re-parse, build with XBUILD, and estimate a workload whose
// error must land below a sanity threshold.
func TestPipelineEndToEnd(t *testing.T) {
	for _, name := range xmlgen.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			doc := xmlgen.Generate(name, xmlgen.Config{Seed: 21, Scale: 0.03})

			// Round-trip through XML text: the estimates must be identical
			// on the re-parsed document.
			var buf bytes.Buffer
			if err := xmltree.Serialize(&buf, doc); err != nil {
				t.Fatalf("Serialize: %v", err)
			}
			doc2, err := xmltree.Parse(&buf)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if doc2.Len() != doc.Len() {
				t.Fatalf("round trip changed element count: %d -> %d", doc.Len(), doc2.Len())
			}

			wcfg := workload.DefaultConfig(workload.KindP)
			wcfg.NumQueries = 40
			wcfg.Seed = 5
			w := workload.Generate(doc2, wcfg)
			if len(w.Queries) < 20 {
				t.Fatalf("workload too small: %d", len(w.Queries))
			}

			coarse := xsketch.New(doc2, xsketch.DefaultConfig())
			opts := build.DefaultOptions(coarse.SizeBytes() * 4)
			opts.MaxSteps = 80
			sk := build.XBuild(doc2, opts)
			if err := sk.Validate(); err != nil {
				t.Fatalf("built synopsis invalid: %v", err)
			}

			results := make([]metrics.Result, len(w.Queries))
			for i, q := range w.Queries {
				results[i] = metrics.Result{Truth: q.Truth, Estimate: sk.EstimateQuery(q.Twig)}
			}
			s := metrics.Evaluate(results, 0)
			t.Logf("%s: built %dB, %s", name, sk.SizeBytes(), s)
			if s.AvgError > 0.5 {
				t.Fatalf("%s: end-to-end error %.0f%% too high", name, s.AvgError*100)
			}
		})
	}
}

// TestRefinementNeverBreaksEstimates runs XBUILD step by step and checks
// each intermediate synopsis stays valid and yields finite, non-negative
// estimates.
func TestRefinementNeverBreaksEstimates(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 9, Scale: 0.02})
	wcfg := workload.DefaultConfig(workload.KindPV)
	wcfg.NumQueries = 15
	w := workload.Generate(doc, wcfg)
	opts := build.DefaultOptions(1 << 30)
	opts.MaxSteps = 25
	b := build.NewBuilder(doc, opts)
	for step := 0; step < opts.MaxSteps; step++ {
		if !b.Step() {
			break
		}
		sk := b.Sketch()
		if err := sk.Validate(); err != nil {
			t.Fatalf("step %d: invalid synopsis: %v", step, err)
		}
		for _, q := range w.Queries {
			est := sk.EstimateQuery(q.Twig)
			if est < 0 || math.IsNaN(est) || math.IsInf(est, 0) {
				t.Fatalf("step %d: estimate %v for %s", step, est, q.Twig)
			}
		}
	}
}

// TestXSKETCHBeatsCSTOnSkewedData pins the headline Figure 9(c) claim at a
// fixed budget: the XSKETCH error is lower than the CST error on the
// skewed IMDB dataset.
func TestXSKETCHBeatsCSTOnSkewedData(t *testing.T) {
	doc := xmlgen.IMDB(xmlgen.Config{Seed: 2, Scale: 0.05})
	wcfg := workload.DefaultConfig(workload.KindSimple)
	wcfg.NumQueries = 60
	w := workload.Generate(doc, wcfg)

	cfg := xsketch.DefaultConfig()
	cfg.InitialValueBuckets = 0
	coarse := xsketch.New(doc, cfg)
	budget := coarse.SizeBytes() * 4

	opts := build.DefaultOptions(budget)
	opts.Sketch = cfg
	opts.MaxSteps = 120
	sk := build.XBuild(doc, opts)

	c := cst.Build(doc, cst.DefaultConfig())
	if c.SizeBytes() > sk.SizeBytes() {
		c.Prune(sk.SizeBytes())
	}

	var xres, cres []metrics.Result
	for _, q := range w.Queries {
		xres = append(xres, metrics.Result{Truth: q.Truth, Estimate: sk.EstimateQuery(q.Twig)})
		cres = append(cres, metrics.Result{Truth: q.Truth, Estimate: c.EstimateQuery(q.Twig)})
	}
	xe := metrics.Evaluate(xres, 0).AvgError
	ce := metrics.Evaluate(cres, 10).AvgError
	t.Logf("imdb @%dB: xsketch %.1f%%, cst %.1f%%", sk.SizeBytes(), xe*100, ce*100)
	if xe >= ce {
		t.Fatalf("XSKETCH (%.3f) not better than CST (%.3f)", xe, ce)
	}
}

// TestMotivatingFigure4EndToEnd pins the paper's motivating observation:
// two documents with the same zero-error single-path synopsis but twig
// selectivities 2000 vs 10100, distinguished only by edge distributions.
func TestMotivatingFigure4EndToEnd(t *testing.T) {
	q := twig.MustParse("t0 in a, t1 in t0/b, t2 in t0/c")
	docs := map[string]*xmltree.Document{
		"uniform": xmltree.MotivatingUniform(),
		"skewed":  xmltree.MotivatingSkewed(),
	}
	truths := map[string]int64{"uniform": 2000, "skewed": 10100}
	for name, d := range docs {
		if got := eval.New(d).Selectivity(q); got != truths[name] {
			t.Fatalf("%s: truth %d, want %d", name, got, truths[name])
		}
		// Single-path selectivities agree across the two documents.
		for _, p := range []string{"a", "a/b", "a/c"} {
			u := eval.New(docs["uniform"]).PathCount(mustPath(t, p))
			s := eval.New(docs["skewed"]).PathCount(mustPath(t, p))
			if u != s {
				t.Fatalf("path %s differs: %d vs %d", p, u, s)
			}
		}
		// A 4-bucket (exact here) edge histogram recovers the twig truth.
		cfg := xsketch.DefaultConfig()
		cfg.InitialEdgeBuckets = 4
		sk := xsketch.New(d, cfg)
		if got := sk.EstimateQuery(q); math.Abs(got-float64(truths[name])) > 1e-6 {
			t.Fatalf("%s: estimate %v, want %d", name, got, truths[name])
		}
	}
}

func mustPath(t *testing.T, src string) *pathexpr.Path {
	t.Helper()
	q := twig.MustParse("t0 in " + src)
	return q.Root.Path
}

// TestWorkloadTruthsStableAcrossSerialization ensures the exact evaluator
// is deterministic over a serialize/parse round trip.
func TestWorkloadTruthsStableAcrossSerialization(t *testing.T) {
	doc := xmlgen.SwissProt(xmlgen.Config{Seed: 4, Scale: 0.02})
	wcfg := workload.DefaultConfig(workload.KindP)
	wcfg.NumQueries = 20
	w := workload.Generate(doc, wcfg)

	var buf bytes.Buffer
	if err := xmltree.Serialize(&buf, doc); err != nil {
		t.Fatal(err)
	}
	doc2, err := xmltree.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev := eval.New(doc2)
	for _, q := range w.Queries {
		if got := ev.Selectivity(q.Twig); got != q.Truth {
			t.Fatalf("truth changed after round trip: %d vs %d for %s", got, q.Truth, q.Twig)
		}
	}
}

// TestRecursiveDatasetEndToEnd exercises the full pipeline on the
// recursive parts dataset: descendant queries over a cyclic synopsis,
// XBUILD refinement, and estimation sanity.
func TestRecursiveDatasetEndToEnd(t *testing.T) {
	doc := xmlgen.Parts(xmlgen.Config{Seed: 3, Scale: 0.1})
	ev := eval.New(doc)
	opts := build.DefaultOptions(4096)
	opts.MaxSteps = 60
	sk := build.XBuild(doc, opts)
	if err := sk.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, src := range []string{
		"t0 in //part, t1 in t0/cost",
		"t0 in assembly, t1 in t0//supplier",
		"t0 in //part[cost>500], t1 in t0/name",
		"t0 in //part, t1 in t0/part, t2 in t1/part",
	} {
		q := twig.MustParse(src)
		truth := float64(ev.Selectivity(q))
		est := sk.EstimateQuery(q)
		if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			t.Fatalf("%s: estimate %v", src, est)
		}
		if truth > 50 && (est < truth/4 || est > truth*4) {
			t.Fatalf("%s: estimate %v far from truth %v", src, est, truth)
		}
	}
}

// TestNonASCIITagsEndToEnd queries elements whose tags are not ASCII:
// labels are read as UTF-8, so "//café" parses, and its estimate, on the
// interpreted and the served text path alike, equals internal/eval's
// exact count on a document whose synopsis is exact for these twigs.
func TestNonASCIITagsEndToEnd(t *testing.T) {
	d, err := xmltree.ParseString(`<root><shop><café/><café/></shop><shop><café/><prénom/></shop></root>`)
	if err != nil {
		t.Fatal(err)
	}
	sk := xsketch.New(d, xsketch.DefaultConfig())
	for _, text := range []string{
		"t0 in //café",
		"for t0 in //shop, t1 in t0/café",
		"t0 in root/shop[prénom]",
	} {
		q, err := twig.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		want := float64(eval.New(d).Selectivity(q))
		if want == 0 {
			t.Fatalf("%s: exact count is 0; the test needs matches", text)
		}
		if got := sk.EstimateQuery(q); got != want {
			t.Errorf("%s: EstimateQuery = %v, exact %v", text, got, want)
		}
		p, err := sk.PlanQueryText(text)
		if err != nil {
			t.Fatalf("PlanQueryText(%q): %v", text, err)
		}
		res, err := sk.EstimatePlanContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != want {
			t.Errorf("%s: planned estimate = %v, exact %v", text, res.Estimate, want)
		}
	}
}
