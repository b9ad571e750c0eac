package xsketch

import (
	"math"
	"math/rand"
	"testing"

	"xsketch/internal/graphsyn"
	"xsketch/internal/histogram"
	"xsketch/internal/xmlgen"
	"xsketch/internal/xmltree"
)

// TestEstimateReadsMatchesEstimate: the recording path estimates exactly
// what the cached path does, and records at least the root's node.
func TestEstimateReadsMatchesEstimate(t *testing.T) {
	d, qs := xmarkQueries(40)
	sk := New(d, DefaultConfig())
	root := sk.Syn.NodeOf(d.Root())
	for i, q := range qs {
		got, reads := sk.EstimateReads(q)
		want := sk.EstimateQueryResult(q)
		if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) || got.Truncated != want.Truncated {
			t.Fatalf("query %d: EstimateReads %+v, EstimateQueryResult %+v", i, got, want)
		}
		if !reads.Structure.Has(root) {
			t.Fatalf("query %d: reads %v miss the root node %d", i, reads.Structure, root)
		}
	}
}

// TestCloneSharesUntilMutated: a clone shares every summary, each
// mutator replaces only the summary it changes, the original never sees
// the change, and ChangedFrom reports exactly the replaced nodes.
func TestCloneSharesUntilMutated(t *testing.T) {
	// Movies with and without a type and actors, so movie -> type and
	// movie -> actor are not F-stable.
	d := xmltree.NewDocument("db")
	for i := 0; i < 12; i++ {
		m := d.AddChild(d.Root(), "movie")
		if i%4 != 0 {
			d.AddValueChild(m, "type", int64(i%3))
		}
		for j := 0; j < i%3; j++ {
			d.AddChild(m, "actor")
		}
	}
	base := New(d, exactConfig())
	movie := synNode(t, base, "movie")
	typ := synNode(t, base, "type")
	actor := synNode(t, base, "actor")
	mutators := map[string]func(c *Sketch) bool{
		"SetBuckets":      func(c *Sketch) bool { return c.SetBuckets(movie, 3) },
		"SetValueBuckets": func(c *Sketch) bool { return c.SetValueBuckets(typ, 2) },
		"AddValueDim":     func(c *Sketch) bool { return c.AddValueDim(movie, typ, 2) },
		"AddScopeEdge":    func(c *Sketch) bool { return c.AddScopeEdge(movie, ScopeEdge{movie, actor}) },
	}
	want := map[string]graphsyn.NodeID{"SetBuckets": movie, "SetValueBuckets": typ, "AddValueDim": movie, "AddScopeEdge": movie}
	for name, mutate := range mutators {
		t.Run(name, func(t *testing.T) {
			before := make(map[graphsyn.NodeID]NodeSummary)
			for id, s := range base.Summaries {
				before[id] = *s
			}
			c := base.Clone()
			if !mutate(c) {
				t.Fatal("mutator did not apply")
			}
			changed := c.ChangedFrom(base)
			if len(changed.Structure) != 0 {
				t.Fatalf("structure changed: %v", changed.Structure)
			}
			for id, s := range base.Summaries {
				if (c.Summaries[id] != s) != (id == want[name]) {
					t.Fatalf("node %d: summary shared %v, want shared only for unchanged nodes", id, c.Summaries[id] == s)
				}
				if changed.Summary.Has(id) != (id == want[name]) {
					t.Fatalf("ChangedFrom reports node %d as changed=%v", id, changed.Summary.Has(id))
				}
				b := before[id]
				if s.Buckets != b.Buckets || s.ValueBuckets != b.ValueBuckets || len(s.Scope) != len(b.Scope) ||
					len(s.ValueDims) != len(b.ValueDims) || s.Hist != b.Hist || s.VHist != b.VHist {
					t.Fatalf("node %d: the original's summary changed", id)
				}
			}
		})
	}
	// A split replaces the split node, the new node and their neighbors.
	c := base.Clone()
	w, ok := c.Syn.FStabilize(movie, typ)
	if !ok {
		t.Fatal("FStabilize(movie, type) did not split")
	}
	changed := c.ChangedFrom(base)
	for _, id := range []graphsyn.NodeID{movie, w, typ, actor, base.Syn.NodeOf(d.Root())} {
		if !changed.Structure.Has(id) {
			t.Fatalf("split: node %d not reported as changed (%v)", id, changed.Structure)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("original after a clone's split: %v", err)
	}
}

// referenceJoint is the per-dimension joint distribution: every scope
// dimension walks to its anchor and rescans that element's children, and
// every value dimension looks its coordinate up on its own.
func referenceJoint(sk *Sketch, id graphsyn.NodeID, scope []ScopeEdge, vdims []*ValueDim) *histogram.Sparse {
	d := sk.Syn.Doc
	anc := sk.Syn.BStableAncestors(id)
	depthOf := map[graphsyn.NodeID]int{}
	for depth, a := range anc {
		depthOf[a] = depth
	}
	sparse := histogram.NewSparse(len(scope) + len(vdims))
	coords := make([]int32, len(scope)+len(vdims))
	for _, e := range sk.Syn.Node(id).Extent {
		for i, se := range scope {
			anchor := e
			for k := 0; k < depthOf[se.From] && anchor != xmltree.NilNode; k++ {
				anchor = d.Node(anchor).Parent
			}
			coords[i] = 0
			if anchor == xmltree.NilNode {
				continue
			}
			for _, c := range d.Node(anchor).Children {
				if sk.Syn.NodeOf(c) == se.To {
					coords[i]++
				}
			}
		}
		for k, vd := range vdims {
			coords[len(scope)+k] = sk.valueCoord(e, id, vd)
		}
		sparse.Add(coords, 1)
	}
	sparse.Normalize()
	return sparse
}

// TestJointDistributionMatchesReference compares the one-pass kernel
// with the per-dimension reference, Float64bits, on every node of
// split-refined synopses of all four datasets, over random scopes: the
// default scope, backward counts from B-stable ancestors, repeated
// targets, and value dimensions sourced at the node, its children
// (repeated too) and a non-child.
func TestJointDistributionMatchesReference(t *testing.T) {
	for _, ds := range []string{xmlgen.XMarkName, xmlgen.IMDBName, xmlgen.SwissProtName, xmlgen.PartsName} {
		t.Run(ds, func(t *testing.T) {
			d := xmlgen.Generate(ds, xmlgen.Config{Seed: 2, Scale: 0.01})
			sk := New(d, DefaultConfig())
			rng := rand.New(rand.NewSource(4))
			for _, e := range sk.Syn.Edges() {
				if rng.Intn(4) == 0 && !e.BStable {
					sk.Syn.BStabilize(e.From, e.To)
				}
			}
			backward, valued := 0, 0
			for _, n := range sk.Syn.Nodes() {
				id := n.ID
				scope := sk.defaultScope(id)
				if len(n.Children) > 0 {
					scope = append(scope, ScopeEdge{id, n.Children[rng.Intn(len(n.Children))]})
				}
				for _, a := range sk.Syn.BStableAncestors(id)[1:] {
					for _, z := range sk.Syn.Node(a).Children {
						if rng.Intn(2) == 0 {
							scope = append(scope, ScopeEdge{a, z})
							backward++
						}
					}
				}
				var vdims []*ValueDim
				sources := append([]graphsyn.NodeID{id, graphsyn.NodeID(rng.Intn(sk.Syn.NumNodes()))}, n.Children...)
				for _, src := range sources {
					if vd := sk.newValueDim(src, 1+rng.Intn(6)); vd != nil && rng.Intn(3) > 0 {
						vdims = append(vdims, vd, vd)
						valued++
					}
				}
				got, err := sk.jointDistribution(id, scope, vdims)
				if err != nil {
					t.Fatalf("node %d: %v", id, err)
				}
				gp, wp := got.Points(), referenceJoint(sk, id, scope, vdims).Points()
				if len(gp) != len(wp) {
					t.Fatalf("node %d: %d points, reference %d", id, len(gp), len(wp))
				}
				for i := range gp {
					if math.Float64bits(gp[i].Freq) != math.Float64bits(wp[i].Freq) || !equalCoords(gp[i].Coords, wp[i].Coords) {
						t.Fatalf("node %d point %d: %v, reference %v", id, i, gp[i], wp[i])
					}
				}
			}
			if backward == 0 || valued == 0 {
				t.Fatalf("%d backward dimensions, %d value dimensions: the test does not exercise both", backward, valued)
			}
		})
	}
}

func equalCoords(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
