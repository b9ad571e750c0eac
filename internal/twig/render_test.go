package twig_test

import (
	"math"
	"testing"

	"xsketch/internal/pathexpr"
	"xsketch/internal/twig"
	"xsketch/internal/workload"
	"xsketch/internal/xmlgen"
)

// TestStringMatchesFmtOracle checks the appending renderer against the
// fmt-based oracle on every generated workload kind over every dataset,
// so plan-cache keys, response query fields and golden traces keep their
// bytes.
func TestStringMatchesFmtOracle(t *testing.T) {
	kinds := []workload.Kind{workload.KindP, workload.KindPV, workload.KindSimple, workload.KindNegative}
	for _, ds := range xmlgen.AllNames() {
		doc := xmlgen.Generate(ds, xmlgen.Config{Seed: 1, Scale: 0.02})
		for _, kind := range kinds {
			cfg := workload.DefaultConfig(kind)
			cfg.NumQueries = 200
			n := 0
			for _, wq := range workload.Generate(doc, cfg).Queries {
				if got, want := wq.Twig.String(), twig.FmtString(wq.Twig); got != want {
					t.Fatalf("%s %v: String %q != oracle %q", ds, kind, got, want)
				}
				n++
			}
			if n == 0 {
				t.Fatalf("%s %v: empty workload", ds, kind)
			}
		}
	}
}

// TestStringMatchesFmtOracleEdges covers shapes the generator does not
// emit: open and closed value ranges at the int64 limits, a nil root path,
// a childless empty child path and a label the parser would reject.
func TestStringMatchesFmtOracleEdges(t *testing.T) {
	vp := func(lo, hi int64) *pathexpr.ValuePred { return &pathexpr.ValuePred{Lo: lo, Hi: hi} }
	step := func(axis pathexpr.Axis, label string, v *pathexpr.ValuePred, brs ...*pathexpr.Path) *pathexpr.Step {
		return &pathexpr.Step{Axis: axis, Label: label, Value: v, Branches: brs}
	}
	root := &pathexpr.Path{Steps: []*pathexpr.Step{
		step(pathexpr.Descendant, "a", vp(math.MinInt64, math.MaxInt64)),
		step(pathexpr.Child, "b", vp(math.MinInt64, -3),
			&pathexpr.Path{Steps: []*pathexpr.Step{step(pathexpr.Child, "c", vp(math.MinInt64, math.MinInt64))}}),
		step(pathexpr.Descendant, "d", vp(math.MaxInt64, math.MaxInt64)),
		step(pathexpr.Child, "e", vp(-7, 9)),
		step(pathexpr.Child, "f", vp(4, math.MaxInt64)),
	}}
	q := twig.New(root)
	q.AddChild(q.Root, &pathexpr.Path{})
	mid := q.AddChild(q.Root, &pathexpr.Path{Steps: []*pathexpr.Step{step(pathexpr.Descendant, "g", nil)}})
	q.AddChild(mid, &pathexpr.Path{Steps: []*pathexpr.Step{step(pathexpr.Child, "//h", nil)}})
	for _, q := range []*twig.Query{q, twig.New(nil), {}} {
		if got, want := q.String(), twig.FmtString(q); got != want {
			t.Fatalf("String %q != oracle %q", got, want)
		}
	}
}
