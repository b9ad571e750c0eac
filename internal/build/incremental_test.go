package build

import (
	"bytes"
	"math"
	"testing"

	"xsketch/internal/catalog"
	"xsketch/internal/twig"
	"xsketch/internal/xmlgen"
	core "xsketch/internal/xsketch"
)

// fullEstimates is the scoring oracle: every scoring query estimated
// afresh on sk, as candidate scoring did before it skipped queries.
func fullEstimates(sk *core.Sketch, queries []scoredQuery) []float64 {
	qs := make([]*twig.Query, len(queries))
	for i, sq := range queries {
		qs[i] = sq.q
	}
	out := make([]float64, len(qs))
	for i, r := range sk.EstimateBatch(qs, 1) {
		out[i] = r.Estimate
	}
	return out
}

func encoded(t *testing.T, sk *core.Sketch) []byte {
	t.Helper()
	b, err := catalog.EncodeBytes(sk)
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	return b
}

// TestIncrementalScoringSound checks, for every applicable candidate of
// several steps on all four datasets, the two shortcuts candidate scoring
// takes:
//   - a refinement rebuilds only the summaries whose inputs changed (a
//     split: v, w and some parents; value-refine: one value summary), and
//     the result equals rebuilding every summary, byte for byte;
//   - a candidate re-estimates only the queries whose reads meet what it
//     changed, and every estimate equals full re-estimation, Float64bits.
//
// The base estimates must equal full estimation too, and scoring must
// leave the base synopsis unchanged.
func TestIncrementalScoringSound(t *testing.T) {
	cases := []struct {
		name     string
		dataset  string
		scale    float64
		backward bool
	}{
		{"xmark", xmlgen.XMarkName, 0.02, false},
		{"imdb", xmlgen.IMDBName, 0.05, false},
		{"sprot", xmlgen.SwissProtName, 0.05, false},
		{"parts", xmlgen.PartsName, 0.05, false},
		{"imdb-backward", xmlgen.IMDBName, 0.02, true},
	}
	const steps = 5
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := xmlgen.Generate(tc.dataset, xmlgen.Config{Seed: 1, Scale: tc.scale})
			opts := DefaultOptions(1 << 30)
			opts.EnableBackwardExpand = tc.backward
			b := NewBuilder(doc, opts)
			splits, skipped, scored := 0, 0, 0
			for step := 0; step < steps; step++ {
				b.scoreBase()
				for i, want := range fullEstimates(b.sk, b.queries) {
					if got := b.scores.ests[i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d: base estimate %d = %v, full estimation %v", step, i, got, want)
					}
				}
				before := encoded(t, b.sk)
				for _, c := range b.candidates() {
					sk := b.sk.Clone()
					if !b.apply(sk, c.ref) {
						continue
					}
					scored++
					if op := c.ref.Op; op == OpBStabilize || op == OpFStabilize {
						splits++
					}
					all := sk.Clone()
					all.RebuildAll()
					if !bytes.Equal(encoded(t, sk), encoded(t, all)) {
						t.Fatalf("step %d, %s: local rebuild differs from RebuildAll", step, c.ref)
					}
					got, want := b.candidateEstimates(sk), fullEstimates(sk, b.queries)
					changed := sk.ChangedFrom(b.sk)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("step %d, %s: query %d estimate %v, full re-estimation %v", step, c.ref, i, got[i], want[i])
						}
						if !b.scores.reads[i].Meets(changed) {
							skipped++
						}
					}
				}
				if !bytes.Equal(before, encoded(t, b.sk)) {
					t.Fatalf("step %d: scoring candidates changed the base synopsis", step)
				}
				if !b.Step() {
					break
				}
			}
			if splits == 0 || skipped == 0 {
				t.Fatalf("%d candidates scored, %d splits, %d skipped estimates: the test does not exercise both shortcuts", scored, splits, skipped)
			}
			t.Logf("%d candidates (%d splits), %d of %d estimates reused", scored, splits, skipped, scored*len(b.queries))
		})
	}
}

// TestBuilderSketchNeverMutated pins the contract Builder.Sketch states
// and the experiments' RunTo snapshots rely on: candidates share the
// current synopsis's graph, nodes and summaries, yet further steps never
// change a sketch the builder returned earlier.
func TestBuilderSketchNeverMutated(t *testing.T) {
	for _, ds := range []string{xmlgen.IMDBName, xmlgen.PartsName} {
		t.Run(ds, func(t *testing.T) {
			doc := xmlgen.Generate(ds, xmlgen.Config{Seed: 1, Scale: 0.05})
			opts := DefaultOptions(1 << 30)
			opts.MaxSteps = 12
			b := NewBuilder(doc, opts)
			type snapshot struct {
				sk *core.Sketch
				st builtState
			}
			snaps := []snapshot{{b.Sketch(), stateOf(t, b.Sketch())}}
			for b.Step() {
				snaps = append(snaps, snapshot{b.Sketch(), stateOf(t, b.Sketch())})
			}
			if len(snaps) < 4 {
				t.Fatalf("only %d steps adopted", len(snaps)-1)
			}
			for i, s := range snaps {
				if !stateOf(t, s.sk).equal(s.st) {
					t.Fatalf("sketch returned after step %d changed during later steps", i)
				}
			}
		})
	}
}
