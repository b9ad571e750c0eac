package build

import (
	"math/rand"
	"runtime"
	"sort"

	"xsketch/internal/trace"
	"xsketch/internal/workload"
	"xsketch/internal/xmltree"
	core "xsketch/internal/xsketch"
)

// Options configures an XBUILD run.
type Options struct {
	// BudgetBytes is the synopsis space budget. XBUILD never adopts a
	// refinement whose resulting synopsis exceeds it, so the built synopsis
	// satisfies SizeBytes() <= BudgetBytes whenever the coarsest synopsis
	// does.
	BudgetBytes int
	// MaxSteps bounds the number of adopted refinements.
	MaxSteps int
	// Seed drives all sampling: the scoring workload, its per-step
	// anchored refresh, candidate subsampling, and random selection.
	Seed int64
	// Sketch configures the underlying synopsis (initial budgets, size
	// model, estimation limits).
	Sketch core.Config
	// ScoringWorkload, when non-nil, replaces the sampled scoring workload
	// entirely: candidates are scored on exactly these queries and the
	// per-step anchored resampling is disabled. The Structural-XSKETCH
	// comparison uses this to target single-path workloads.
	ScoringWorkload *workload.Workload
	// RandomSelection adopts a uniformly random applicable candidate
	// instead of the best marginal gain (the ablation baseline for the
	// paper's marginal-gains policy).
	RandomSelection bool
	// EnableBackwardExpand also generates edge-expand candidates over
	// backward counts from B-stable ancestors (the full model; the paper's
	// prototype restricts itself to forward counts).
	EnableBackwardExpand bool
	// ReferenceScoring scores candidates against a large reference synopsis
	// instead of exact selectivities.
	ReferenceScoring bool
	// ScoringQueries is the size of the sampled scoring workload
	// (default 24; ignored when ScoringWorkload is set).
	ScoringQueries int
	// MaxCandidates caps the number of candidates scored per step; when
	// more are generated, a deterministic random subset is scored
	// (the paper's node sampling). Default 24.
	MaxCandidates int
	// ValueExpandBins is the bin count of value dimensions inserted by
	// value-expand (default 8).
	ValueExpandBins int
	// Parallelism is the scoring worker count (default GOMAXPROCS).
	Parallelism int
	// Sink, when non-nil, receives one telemetry Event per adopted
	// refinement (see telemetry.go). Telemetry is observational: it never
	// influences candidate generation, scoring, or selection.
	Sink Sink
}

// DefaultOptions returns XBUILD options for the given byte budget,
// mirroring the paper's prototype configuration.
func DefaultOptions(budgetBytes int) Options {
	return Options{
		BudgetBytes:     budgetBytes,
		MaxSteps:        1000,
		Seed:            1,
		Sketch:          core.DefaultConfig(),
		ScoringQueries:  24,
		MaxCandidates:   24,
		ValueExpandBins: 8,
	}
}

// withDefaults fills unset tuning knobs so a zero-extended Options still
// behaves like DefaultOptions.
func (o Options) withDefaults() Options {
	if o.ScoringQueries <= 0 {
		o.ScoringQueries = 24
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 24
	}
	if o.ValueExpandBins <= 0 {
		o.ValueExpandBins = 8
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Step records one adopted refinement.
type Step struct {
	// Refinement is the applied operation.
	Refinement Refinement
	// SizeBytes is the synopsis size after applying it.
	SizeBytes int
	// Error is the scoring-workload error after applying it.
	Error float64
}

// Builder runs XBUILD incrementally, exposing the synopsis between steps
// for budget sweeps and tracing.
type Builder struct {
	doc   *xmltree.Document
	opts  Options
	sk    *core.Sketch
	steps []Step
	rng   *rand.Rand

	// scoring state (see score.go): the workload is the sampled share
	// plus the anchored share, and scores holds the current synopsis's
	// estimates and reads on it for the step in progress.
	queries  []scoredQuery
	sampled  []scoredQuery
	anchored []scoredQuery
	scores   baseScores
	ref      *core.Sketch
}

// NewBuilder initializes an XBUILD run: the coarsest synopsis plus the
// scoring machinery. No refinements are applied yet.
func NewBuilder(d *xmltree.Document, opts Options) *Builder {
	b := &Builder{
		doc:  d,
		opts: opts.withDefaults(),
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	b.sk = core.New(d, b.opts.Sketch)
	b.initScoring()
	return b
}

// XBuild constructs a Twig XSKETCH for the document under the given
// options: NewBuilder followed by Run.
func XBuild(d *xmltree.Document, opts Options) *core.Sketch {
	b := NewBuilder(d, opts)
	b.Run()
	return b.Sketch()
}

// Sketch returns the current synopsis. It is live: further Step calls
// replace it, but never mutate a previously returned value.
func (b *Builder) Sketch() *core.Sketch { return b.sk }

// Steps returns the refinements adopted so far, in order. The slice is
// owned by the builder and must not be modified.
func (b *Builder) Steps() []Step { return b.steps }

// Run applies refinements until the budget is exhausted, MaxSteps is
// reached, or no candidate improves the scoring error.
func (b *Builder) Run() {
	for b.Step() {
	}
}

// RunTo applies refinements until the synopsis size reaches target bytes
// (or Step refuses). Budget sweeps create one Builder with a large
// BudgetBytes and call RunTo with increasing targets, snapshotting the
// synopsis at each.
func (b *Builder) RunTo(target int) {
	for b.sk.SizeBytes() < target && b.Step() {
	}
}

// Step scores the current candidate set and adopts the refinement with the
// best marginal gain (error reduction per byte). It reports whether a
// refinement was adopted; false means the build is finished: the step or
// byte budget is exhausted, or no candidate both fits the budget and
// (under marginal-gains selection) reduces the scoring error.
func (b *Builder) Step() bool {
	if len(b.steps) >= b.opts.MaxSteps {
		return false
	}
	curSize := b.sk.SizeBytes()
	if curSize >= b.opts.BudgetBytes {
		return false
	}
	started := trace.MonotonicSeconds()
	cands := b.candidates()
	if len(cands) == 0 {
		return false
	}
	b.scoreBase()
	if b.opts.RandomSelection {
		return b.stepRandom(cands, curSize, started)
	}
	cands = b.sampleCandidates(cands)
	curErr := b.scores.err
	results := b.scoreAll(cands)
	best, bestGain := -1, 0.0
	for i, r := range results {
		if r == nil || r.size > b.opts.BudgetBytes {
			continue
		}
		delta := r.size - curSize
		if delta < 1 {
			delta = 1
		}
		gain := (curErr - r.err) / float64(delta)
		// Strict > keeps the earliest candidate on ties, and the zero
		// initialization demands a positive gain: XBUILD stops spending
		// bytes once no refinement reduces the sampled error.
		if gain > bestGain {
			best, bestGain = i, gain
		}
	}
	if best < 0 {
		return false
	}
	b.adopt(cands[best].ref, results[best])
	b.emit(b.stepEvent(cands[best].ref, results[best], bestGain, curSize, len(cands), started))
	return true
}

// stepRandom adopts a uniformly random applicable candidate regardless of
// its gain (the RandomSelection ablation). Candidates are tried in a
// seed-deterministic order until one applies within budget.
func (b *Builder) stepRandom(cands []candidate, curSize int, started float64) bool {
	tried := 0
	for _, i := range b.rng.Perm(len(cands)) {
		tried++
		r := b.scoreOne(cands[i])
		if r == nil || r.size > b.opts.BudgetBytes {
			continue
		}
		b.adopt(cands[i].ref, r)
		b.emit(b.stepEvent(cands[i].ref, r, 0, curSize, tried, started))
		return true
	}
	return false
}

// stepEvent assembles the telemetry event for a just-adopted refinement
// (adopt has already appended it to b.steps).
func (b *Builder) stepEvent(ref Refinement, r *scoreResult, gain float64, curSize, scored int, started float64) Event {
	return Event{
		Step:             len(b.steps),
		Op:               ref.Op.String(),
		Target:           int(ref.target()),
		Refinement:       ref.String(),
		GainPerByte:      gain,
		Error:            r.err,
		SizeBytes:        r.size,
		SpaceDelta:       r.size - curSize,
		CandidatesScored: scored,
		ElapsedSeconds:   trace.MonotonicSeconds() - started,
	}
}

// adopt installs a scored candidate's synopsis, records the step, and
// refreshes the anchored part of the scoring workload around the refined
// region.
func (b *Builder) adopt(ref Refinement, r *scoreResult) {
	b.sk = r.sk
	b.steps = append(b.steps, Step{Refinement: ref, SizeBytes: r.size, Error: r.err})
	b.resampleAnchored(ref.target())
}

// sampleCandidates bounds the scored candidate set to MaxCandidates with a
// deterministic random subset, preserving generation order.
func (b *Builder) sampleCandidates(cands []candidate) []candidate {
	if len(cands) <= b.opts.MaxCandidates {
		return cands
	}
	idx := b.rng.Perm(len(cands))[:b.opts.MaxCandidates]
	sort.Ints(idx)
	out := make([]candidate, len(idx))
	for i, j := range idx {
		out[i] = cands[j]
	}
	return out
}
