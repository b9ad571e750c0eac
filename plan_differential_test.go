package xsketch_test

import (
	"context"
	"math"
	"testing"

	"xsketch"
	"xsketch/internal/plan"
)

// planDiffBuilds lists the XBUILD configurations the differential test
// compiles against. The default marginal-gains build adopts few value or
// backward-count refinements at this scale, so the builds steer XBUILD
// towards them: one scores candidates on a P+V workload, which adopts
// value dimensions (plans with value uses and enumerated nodes), and one
// adopts random candidates, backward expansion included, until a 4 KiB
// budget is full (enumerated nodes whose descendants read ancestor-bound
// slots). Random selection on the recursive parts document takes seconds,
// so parts gets only the first build.
var planDiffBuilds = []struct {
	name   string
	random bool
}{
	{"pv-scored", false},
	{"random-4k", true},
}

// TestPlannedMatchesInterpreterXBuild compares compiled plans against the
// interpreter beyond the hand-built planner fixtures: on XBUILD sketches
// of all four datasets at scale 0.02, every query of a P and a P+V
// workload must plan to a Float64bits-equal estimate with the same
// truncation flag. Each program's layout is walked from its embedding
// roots through the child spans: every node must be reached exactly once
// and every span must lie inside the program's arrays. The test also
// counts what ran. In a program with one embedding and a nonzero
// estimate every node ran at least once, since any zero factor zeroes the
// product; over those programs at least one enumerated node, one value
// use and one node conditioned on ancestor-bound slots must have run, or
// the comparison never exercised the spans that batch-wide's plans leave
// empty.
func TestPlannedMatchesInterpreterXBuild(t *testing.T) {
	var enumerated, uses, conditioned, programs int
	for _, name := range xsketch.AllDatasets() {
		doc, err := xsketch.GenerateDataset(name, 1, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range planDiffBuilds {
			if b.random && name == "parts" {
				continue
			}
			opts := xsketch.DefaultBuildOptions(16384)
			if b.random {
				opts.BudgetBytes = 4096
				opts.RandomSelection = true
				opts.EnableBackwardExpand = true
			} else {
				cfg := xsketch.DefaultWorkloadConfig(xsketch.WorkloadPV)
				cfg.NumQueries = 40
				cfg.Seed = 7
				opts.ScoringWorkload = xsketch.GenerateWorkload(doc, cfg)
			}
			sk := xsketch.BuildWithOptions(doc, opts)
			for _, kind := range []xsketch.WorkloadKind{xsketch.WorkloadP, xsketch.WorkloadPV} {
				cfg := xsketch.DefaultWorkloadConfig(kind)
				cfg.NumQueries = 100
				cfg.Seed = 1
				for _, wq := range xsketch.GenerateWorkload(doc, cfg).Queries {
					p := sk.PlanQuery(wq.Twig)
					label := name + "/" + b.name + ": " + p.Canonical
					checkPlanLayout(t, label, p)
					want := sk.EstimateQueryResult(wq.Twig)
					got, err := sk.EstimatePlanContext(context.Background(), p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) || got.Truncated != want.Truncated {
						t.Fatalf("%s: planned %+v != interpreted %+v", label, got, want)
					}
					programs++
					if len(p.Embeddings) != 1 || got.Estimate == 0 {
						continue
					}
					for i := range p.Nodes {
						n := &p.Nodes[i]
						if n.Mode == plan.ModeEnumerated {
							enumerated++
						}
						if n.NumD > 0 {
							conditioned++
						}
						uses += int(n.NumUses)
					}
				}
			}
		}
	}
	t.Logf("%d programs; executed %d enumerated nodes, %d value uses, %d conditioned nodes",
		programs, enumerated, uses, conditioned)
	if enumerated == 0 || uses == 0 || conditioned == 0 {
		t.Fatalf("executed %d enumerated nodes, %d value uses and %d conditioned nodes; each must be nonzero",
			enumerated, uses, conditioned)
	}
}

// checkPlanLayout walks a program's nodes from its embedding roots along
// the child spans and fails unless every node is reached exactly once,
// the roots are the first nodes, and every index, use and child span lies
// inside the program's arrays.
func checkPlanLayout(t *testing.T, label string, p *xsketch.Plan) {
	t.Helper()
	if p.NumNodes != len(p.Nodes) {
		t.Fatalf("%s: NumNodes %d, %d nodes", label, p.NumNodes, len(p.Nodes))
	}
	seen := make([]bool, len(p.Nodes))
	var walk func(i int)
	walk = func(i int) {
		if i < 0 || i >= len(p.Nodes) || seen[i] {
			t.Fatalf("%s: node %d out of range or reached twice", label, i)
		}
		seen[i] = true
		n := &p.Nodes[i]
		if int(n.Index) != i {
			t.Fatalf("%s: node %d has Index %d", label, i, n.Index)
		}
		if n.Mode == plan.ModeZero && n.Factor != 0 {
			t.Fatalf("%s: zero node %d has factor %v", label, i, n.Factor)
		}
		if n.Mode <= plan.ModeLeaf {
			return
		}
		ints := 2*n.NumD + n.NumCov
		if n.Mode == plan.ModeEnumerated {
			ints += n.NumCov
		}
		if n.Ints < 0 || int(n.Ints+ints) > len(p.Ints) || n.Uses < 0 || int(n.Uses+n.NumUses) > len(p.Uses) {
			t.Fatalf("%s: node %d spans ints [%d,+%d) of %d, uses [%d,+%d) of %d",
				label, i, n.Ints, ints, len(p.Ints), n.Uses, n.NumUses, len(p.Uses))
		}
		if n.DOff < 0 || int(n.DOff+n.NumD) > p.DValsLen {
			t.Fatalf("%s: node %d conditions [%d,+%d) of %d", label, i, n.DOff, n.NumD, p.DValsLen)
		}
		for k := n.Kids; k < n.Kids+n.NumCov+n.NumUnc; k++ {
			walk(int(k))
		}
	}
	for i := range p.Embeddings {
		if p.Embeddings[i].Root != &p.Nodes[i] {
			t.Fatalf("%s: embedding %d's root is not node %d", label, i, i)
		}
		walk(i)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("%s: node %d unreachable from the embedding roots", label, i)
		}
	}
}
