package xsketch_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"xsketch"
)

// TestPublicAPIQuickstart exercises the documented public flow end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	doc, err := xsketch.ParseXMLString(`
<bib>
  <author><name/><paper><year>2001</year><keyword/></paper></author>
  <author><name/><paper><year>1999</year><keyword/><keyword/></paper></author>
</bib>`)
	if err != nil {
		t.Fatalf("ParseXMLString: %v", err)
	}
	sk := xsketch.Build(doc, 4096)
	if sk.SizeBytes() <= 0 {
		t.Fatal("empty synopsis")
	}
	q, err := xsketch.ParseQuery("for t0 in author, t1 in t0/paper, t2 in t1/keyword")
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	est := sk.EstimateQuery(q)
	exact := xsketch.Exact(doc, q)
	if exact != 3 {
		t.Fatalf("exact = %d, want 3", exact)
	}
	if est < 2.5 || est > 3.5 {
		t.Fatalf("estimate = %v, want ~3", est)
	}
}

func TestPublicAPIDatasetsAndWorkloads(t *testing.T) {
	if len(xsketch.Datasets()) != 3 {
		t.Fatalf("Datasets = %v", xsketch.Datasets())
	}
	all := xsketch.AllDatasets()
	if len(all) != 4 {
		t.Fatalf("AllDatasets = %v", all)
	}
	hasParts := false
	for _, name := range all {
		if name == "parts" {
			hasParts = true
		}
		if _, err := xsketch.GenerateDataset(name, 1, 0.02); err != nil {
			t.Fatalf("GenerateDataset(%q): %v", name, err)
		}
	}
	if !hasParts {
		t.Fatalf("AllDatasets misses the recursive dataset: %v", all)
	}
	doc, err := xsketch.GenerateDataset("imdb", 1, 0.02)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	if _, err := xsketch.GenerateDataset("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	cfg := xsketch.DefaultWorkloadConfig(xsketch.WorkloadP)
	cfg.NumQueries = 10
	w := xsketch.GenerateWorkload(doc, cfg)
	if len(w.Queries) != 10 {
		t.Fatalf("workload = %d queries", len(w.Queries))
	}
	ev := xsketch.NewEvaluator(doc)
	for _, q := range w.Queries {
		if ev.Selectivity(q.Twig) != q.Truth {
			t.Fatal("evaluator disagrees with workload truth")
		}
	}
}

func TestPublicAPIBuilderAndPersistence(t *testing.T) {
	doc, err := xsketch.GenerateDataset("sprot", 2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	opts := xsketch.DefaultBuildOptions(1 << 30)
	opts.MaxSteps = 5
	b := xsketch.NewBuilder(doc, opts)
	b.Run()
	if len(b.Steps()) == 0 {
		t.Fatal("builder applied no refinements")
	}
	sk := b.Sketch()

	var buf bytes.Buffer
	if err := xsketch.SaveSketch(&buf, sk); err != nil {
		t.Fatalf("SaveSketch: %v", err)
	}
	loaded, err := xsketch.LoadSketch(&buf)
	if err != nil {
		t.Fatalf("LoadSketch: %v", err)
	}
	if !loaded.Detached() {
		t.Fatal("loaded sketch is not detached")
	}
	if loaded.SizeBytes() != sk.SizeBytes() {
		t.Fatalf("size %d -> %d after round trip", sk.SizeBytes(), loaded.SizeBytes())
	}
	p, err := xsketch.ParsePath("entry/reference/author")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sk.EstimateQuery(xsketch.NewQuery(p)), loaded.EstimateQuery(xsketch.NewQuery(p)); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("persisted path estimate differs: %v vs %v", a, b)
	}
	cfg := xsketch.DefaultWorkloadConfig(xsketch.WorkloadPV)
	cfg.NumQueries = 20
	for _, q := range xsketch.GenerateWorkload(doc, cfg).Queries {
		a, b := sk.EstimateQuery(q.Twig), loaded.EstimateQuery(q.Twig)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("persisted estimate differs for %s: %v vs %v", q.Twig, a, b)
		}
	}
}

// TestLoadSketchRejectsGarbage: bytes that are not the binary synopsis
// format fail to load instead of yielding a sketch.
func TestLoadSketchRejectsGarbage(t *testing.T) {
	if sk, err := xsketch.LoadSketch(strings.NewReader("not a synopsis file")); err == nil || sk != nil {
		t.Fatalf("LoadSketch(garbage) = %v, %v; want an error", sk, err)
	}
}

func TestPublicAPIProgrammaticQuery(t *testing.T) {
	doc := xsketch.NewDocument("r")
	a := doc.AddChild(doc.Root(), "a")
	doc.AddChild(a, "b")
	doc.AddChild(a, "b")
	doc.AddChild(a, "c")

	root, err := xsketch.ParsePath("a")
	if err != nil {
		t.Fatal(err)
	}
	q := xsketch.NewQuery(root)
	pb, _ := xsketch.ParsePath("b")
	pc, _ := xsketch.ParsePath("c")
	q.AddChild(q.Root, pb)
	q.AddChild(q.Root, pc)
	if got := xsketch.Exact(doc, q); got != 2 {
		t.Fatalf("Exact = %d, want 2", got)
	}
	var buf bytes.Buffer
	if err := xsketch.WriteXML(&buf, doc); err != nil {
		t.Fatal(err)
	}
	doc2, err := xsketch.ParseXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if xsketch.Exact(doc2, q) != 2 {
		t.Fatal("round-tripped document changed the count")
	}
}

// TestPublicAPITracing exercises the re-exported EXPLAIN surface: the
// recorder-based traced estimation and the one-shot Explain helper, both
// bit-identical to the untraced estimate.
func TestPublicAPITracing(t *testing.T) {
	doc, err := xsketch.GenerateDataset("imdb", 1, 0.02)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	sk := xsketch.NewSketch(doc, xsketch.DefaultSketchConfig())
	q, err := xsketch.ParseQuery("for t0 in movie, t1 in t0/actor")
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	want := sk.EstimateQuery(q)

	rec := xsketch.NewTraceRecorder(xsketch.TraceOptions{})
	res, err := sk.EstimateQueryTraced(context.Background(), q, rec)
	if err != nil {
		t.Fatalf("EstimateQueryTraced: %v", err)
	}
	if res.Estimate != want {
		t.Fatalf("traced estimate %v != untraced %v", res.Estimate, want)
	}
	tr := rec.Trace()
	if tr == nil || tr.Version != 2 || len(tr.Embeddings) == 0 {
		t.Fatalf("unexpected trace: %+v", tr)
	}

	ex := xsketch.Explain(sk, q)
	if ex.Estimate != want {
		t.Fatalf("Explain estimate %v != untraced %v", ex.Estimate, want)
	}
	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), "covered (E)") {
		t.Fatalf("text rendering missing TREEPARSE markers:\n%s", buf.String())
	}
}
