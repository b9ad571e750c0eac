// Package build implements XBUILD, the paper's greedy construction
// algorithm for Twig XSKETCH synopses (Section 5).
//
// Construction starts from the coarsest label-split sketch (xsketch.New)
// and repeatedly applies the refinement operation with the best marginal
// gain: the reduction in estimation error on a sampled scoring workload
// per byte of additional synopsis space. Six refinement operations are
// generated as candidates (see refine.go):
//
//   - b-stabilize / f-stabilize: structural node splits that make a
//     synopsis edge backward- or forward-stable;
//   - edge-refine / value-refine: grow a node's edge-histogram or
//     value-summary bucket budget;
//   - edge-expand: add a count dimension (a scope edge) to a node's edge
//     histogram — a forward count to a non-F-stable child or, with
//     Options.EnableBackwardExpand, a backward count from a B-stable
//     ancestor (the full model of Section 3.2);
//   - value-expand: add a value dimension to a node's extended histogram
//     H^v (Section 3.2).
//
// Candidate scoring runs on a worker pool and is deterministic: candidates
// are generated in a fixed order, each candidate is scored independently
// of the others, and the selection scans results in candidate order, so
// the same Options.Seed always yields the same synopsis regardless of
// scheduling or Options.Parallelism.
//
// A candidate is a copy-on-write clone of the current synopsis, so it
// costs time in what its refinement changes: a split rebuilds only the
// summaries that read the split node, and scoring re-estimates only the
// queries whose recorded reads (xsketch.Sketch.EstimateReads) meet the
// nodes the refinement replaced; every other estimate is the current
// synopsis's.
//
// Scoring truths default to exact selectivities of the sampled queries;
// Options.ReferenceScoring substitutes estimates from a large reference
// synopsis, the paper's method for "avoiding costly accesses to the
// database". Following the paper, part of the scoring workload is
// resampled after every adopted refinement, anchored "around the regions
// transformed by the candidate operations".
package build
