package xsketch

import (
	"bytes"
	"testing"

	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
)

func TestWriteDOT(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	var buf bytes.Buffer
	if err := sk.WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"digraph xsketch", "author", "style=solid", "->"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	// One node line per synopsis node.
	if got := bytes.Count(buf.Bytes(), []byte("[label=")); got < sk.Syn.NumNodes() {
		t.Fatalf("DOT has %d labeled entities for %d nodes", got, sk.Syn.NumNodes())
	}
}

func TestExplainQuery(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	q := twig.MustParse("t0 in author, t1 in t0//title, t2 in t0/name")
	ex := sk.ExplainQuery(q)
	if len(ex.Embeddings) != 2 {
		t.Fatalf("embeddings = %d, want 2", len(ex.Embeddings))
	}
	sum := 0.0
	for _, e := range ex.Embeddings {
		sum += e.Estimate
		if e.Root == nil {
			t.Fatal("embedding trace has no TREEPARSE root")
		}
		if e.Signature == "" {
			t.Fatal("embedding trace has no signature")
		}
	}
	if sum != ex.Estimate {
		t.Fatalf("total %v != sum %v", ex.Estimate, sum)
	}
	if ex.Estimate != sk.EstimateQuery(q) {
		t.Fatalf("explain total %v != estimate %v", ex.Estimate, sk.EstimateQuery(q))
	}
	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"embedding 1", "author", "covered (E)", "uniform (U)", "event expand"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("explanation missing %q:\n%s", want, out)
		}
	}
}

func TestStatsBreakdown(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	st := sk.Stats()
	if st.Nodes != sk.Syn.NumNodes() || st.Edges != sk.Syn.NumEdges() {
		t.Fatalf("stats shape = %+v", st)
	}
	if st.TotalBytes != sk.SizeBytes() {
		t.Fatalf("Stats total %d != SizeBytes %d", st.TotalBytes, sk.SizeBytes())
	}
	if st.StructureBytes <= 0 || st.HistogramBytes <= 0 || st.ValueBytes <= 0 {
		t.Fatalf("degenerate breakdown %+v", st)
	}
	if st.BStableEdges == 0 || st.FStableEdges == 0 {
		t.Fatalf("stability counts = %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty String")
	}
	// Adding a value dim shows up in the breakdown.
	paper := synNode(t, sk, "paper")
	year := synNode(t, sk, "year")
	if !sk.AddValueDim(paper, year, 4) {
		t.Fatal("AddValueDim failed")
	}
	st2 := sk.Stats()
	if st2.ValueDims != 1 || st2.TotalBytes <= st.TotalBytes {
		t.Fatalf("value dim not reflected: %+v", st2)
	}
	if st2.TotalBytes != sk.SizeBytes() {
		t.Fatalf("Stats total %d != SizeBytes %d after dim", st2.TotalBytes, sk.SizeBytes())
	}
}
