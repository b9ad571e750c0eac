package trace

import (
	"sort"
	"time"
)

// Stage identifies one stage of the estimation pipeline for latency
// accounting. Stages nest (Embed contains Expand; Treeparse contains
// HistogramLookup), so the outer stages' durations include the inner ones.
type Stage int

// The estimation pipeline stages, in execution order.
const (
	// StageExpand covers expandStep calls: realizing one query step as
	// synopsis-node sequences (the '//'-axis path search in particular).
	StageExpand Stage = iota
	// StageEmbed covers embedding enumeration end to end, including the
	// expansion work above.
	StageEmbed
	// StageTreeparse covers the per-embedding TREEPARSE evaluation.
	StageTreeparse
	// StageHistogramLookup covers edge-histogram bucket matching and
	// conditional sum-products inside the TREEPARSE evaluation.
	StageHistogramLookup

	// NumStages is the number of pipeline stages.
	NumStages = 4
)

// String names the stage the way metric labels spell it.
func (s Stage) String() string {
	switch s {
	case StageExpand:
		return "expand"
	case StageEmbed:
		return "embed"
	case StageTreeparse:
		return "treeparse"
	case StageHistogramLookup:
		return "histogram_lookup"
	}
	return "unknown"
}

// Assumption labels attached to trace terms: which of the paper's Section 4
// assumptions justified combining the factor into the estimate.
const (
	// AssumptionFI is Forward Independence: counts absent from every
	// correlation scope separate multiplicatively.
	AssumptionFI = "forward-independence"
	// AssumptionCSI is Correlation Scope Independence: histogram terms
	// F_i(E_i | D_i) condition only on the stored scope dimensions.
	AssumptionCSI = "correlation-scope-independence"
	// AssumptionFU is Forward Uniformity: uncovered counts use the average
	// child count per parent element.
	AssumptionFU = "forward-uniformity"
	// AssumptionExact marks terms read directly off the synopsis with no
	// modeling assumption (extent sizes).
	AssumptionExact = "exact"
)

// Node evaluation modes (Node.Mode).
const (
	// ModeLeaf marks a node with no children and no value uses: its
	// contribution is its single factor.
	ModeLeaf = "leaf"
	// ModeFactorized marks the fast path: no per-bucket value uses, so the
	// node combines a conditional sum-product with child recursions.
	ModeFactorized = "factorized"
	// ModeEnumerated marks the bucket-enumeration path taken when value
	// predicates overlap the node's scope dimensions.
	ModeEnumerated = "enumerated"
	// ModePruned marks a subtree short-circuited by a zero factor.
	ModePruned = "pruned"
)

// Term kinds (Term.Kind).
const (
	// TermBaseCount is the extent size of the embedding root.
	TermBaseCount = "base-count"
	// TermValueFraction is a value-predicate selectivity from the node's
	// value histogram.
	TermValueFraction = "value-fraction"
	// TermExistsFraction is a descendant-existence fraction for a
	// value-predicated '//' branch.
	TermExistsFraction = "exists-fraction"
	// TermAvgCount is an uncovered edge's average child count (Forward
	// Uniformity).
	TermAvgCount = "avg-count"
	// TermCondSumProduct is a conditional sum-product over the node's edge
	// histogram (factorized mode).
	TermCondSumProduct = "cond-sum-product"
	// TermBucketSum is the normalized sum over enumerated histogram
	// buckets (enumerated mode).
	TermBucketSum = "bucket-sum"
)

// Event kinds (Event.Kind).
const (
	// EventExpand is one expandStep call realizing a query step over the
	// synopsis.
	EventExpand = "expand"
	// EventDedup reports duplicate embeddings dropped after enumeration.
	EventDedup = "dedup"
	// EventMaxEmbeddings reports the MaxEmbeddings soft floor firing.
	EventMaxEmbeddings = "max-embeddings"
)

// Estimator-memo outcomes attached to memoized terms and events
// (expansions and exists-fractions).
const (
	// CacheHit marks a term served from the per-sketch memo tables.
	CacheHit = "hit"
	// CacheMiss marks a term computed and inserted into the memo tables.
	CacheMiss = "miss"
	// CacheOff marks a memoized kind of term that bypassed the memo: an
	// empty branch (probability 1) or a value past the recursion-depth
	// guard, which is never stored.
	CacheOff = "off"
)

// Trace is the structured explanation of one query estimate (the
// Explanation v2 wire format). It contains no wall-clock data, so its JSON
// encoding for a fixed query and synopsis is byte-stable across runs.
type Trace struct {
	// Version is the trace format version (currently 2; version 1 was the
	// flat text rendering this model replaced).
	Version int `json:"version"`
	// Query is the canonical rendering of the estimated twig query.
	Query string `json:"query"`
	// Estimate is the query estimate (the sum over embeddings).
	Estimate float64 `json:"estimate"`
	// Truncated reports that embedding enumeration hit MaxEmbeddings.
	Truncated bool `json:"truncated,omitempty"`
	// Events lists expansion-level events in occurrence order: expand
	// steps, dedup drops, the MaxEmbeddings soft-floor firing.
	Events []Event `json:"events,omitempty"`
	// EventsDropped counts events discarded beyond the recorder's cap.
	EventsDropped int `json:"events_dropped,omitempty"`
	// Embeddings lists the per-embedding breakdowns in enumeration order.
	Embeddings []*EmbeddingTrace `json:"embeddings"`
}

// EmbeddingTrace is the breakdown for one enumerated embedding.
type EmbeddingTrace struct {
	// Estimate is this embedding's contribution to the query estimate.
	Estimate float64 `json:"estimate"`
	// Signature is the embedding's canonical structural signature (the
	// dedup key), identifying the synopsis realization.
	Signature string `json:"signature"`
	// Root is the TREEPARSE trace of the embedding's (virtual) root node.
	Root *Node `json:"root"`
}

// Event is one expansion-level occurrence during embedding enumeration.
type Event struct {
	// Kind classifies the event: "expand", "dedup", "max-embeddings".
	Kind string `json:"kind"`
	// Detail is a deterministic human-readable specifics string.
	Detail string `json:"detail,omitempty"`
	// Count carries the event's cardinality (alternatives found, embeddings
	// dropped), when meaningful.
	Count int `json:"count,omitempty"`
	// Cache is the estimator-cache outcome backing the event, when the
	// event wraps a memoized lookup.
	Cache string `json:"cache,omitempty"`
}

// Edge references one synopsis edge (a histogram count dimension).
type Edge struct {
	// From is the source synopsis node.
	From int `json:"from"`
	// To is the target synopsis node.
	To int `json:"to"`
}

// Assigned is one ancestor-fixed count dimension (a member of the paper's
// D_i set) together with the count value the enclosing bucket choice fixed
// it to at this node's first evaluation.
type Assigned struct {
	// From is the source synopsis node of the assigned scope edge.
	From int `json:"from"`
	// To is the target synopsis node of the assigned scope edge.
	To int `json:"to"`
	// Count is the assigned per-element count value.
	Count float64 `json:"count"`
}

// Term is one multiplicative factor of a node's contribution.
type Term struct {
	// Kind classifies the factor: "base-count", "value-fraction",
	// "exists-fraction", "avg-count", "cond-sum-product", "bucket-sum".
	Kind string `json:"kind"`
	// Detail is a deterministic specifics string (the predicate, the edge,
	// the bucket count).
	Detail string `json:"detail,omitempty"`
	// Value is the factor's numeric value.
	Value float64 `json:"value"`
	// Assumption names the estimation assumption justifying the factor
	// (one of the Assumption* constants).
	Assumption string `json:"assumption,omitempty"`
	// Cache is the estimator-cache outcome for memoized factors (one of
	// the Cache* constants), empty for unmemoized ones.
	Cache string `json:"cache,omitempty"`
}

// Node is the TREEPARSE trace of one embedding node: the scope split into
// expanded/uniform/assigned edge sets, the evaluation mode, and the terms
// of its per-element contribution. Under bucket enumeration a node is
// evaluated once per surviving ancestor bucket; Terms and Contribution
// record the first evaluation and Evaluations counts them all.
type Node struct {
	// Syn is the embedded synopsis node.
	Syn int `json:"node"`
	// Tag is the node's element tag.
	Tag string `json:"tag,omitempty"`
	// Extent is the synopsis node's extent size.
	Extent int `json:"extent,omitempty"`
	// Mode is the evaluation mode: "leaf", "factorized", "enumerated", or
	// "pruned" (a zero factor short-circuited the subtree).
	Mode string `json:"mode,omitempty"`
	// Expanded lists the child edges covered by this node's histogram
	// scope (the paper's expansion set E_i).
	Expanded []Edge `json:"expanded,omitempty"`
	// Uniform lists the synopsis ids of children outside the scope,
	// estimated under Forward Uniformity (the uncovered set U_i).
	Uniform []int `json:"uniform,omitempty"`
	// Assigned lists the scope dimensions fixed by ancestor bucket choices
	// (the correlation set D_i) with their first-evaluation values.
	Assigned []Assigned `json:"assigned,omitempty"`
	// Buckets is the number of histogram buckets enumerated (enumerated
	// mode only).
	Buckets int `json:"buckets,omitempty"`
	// Denominator is the conditional normalizer of the bucket enumeration
	// (enumerated mode only).
	Denominator float64 `json:"denominator,omitempty"`
	// Evaluations counts how many times the node was evaluated (> 1 when
	// an ancestor enumerated buckets).
	Evaluations int `json:"evaluations,omitempty"`
	// Contribution is the node's per-element contribution at its first
	// evaluation.
	Contribution float64 `json:"contribution"`
	// Terms lists the multiplicative factors recorded at the first
	// evaluation.
	Terms []Term `json:"terms,omitempty"`
	// Children are the embedded children's traces, covered (expanded)
	// children first, then uniform ones.
	Children []*Node `json:"children,omitempty"`
}

// Enter marks one evaluation of the node and reports whether it is the
// first (the one whose terms are recorded). It is nil-safe: entering a nil
// node reports false.
func (n *Node) Enter() bool {
	if n == nil {
		return false
	}
	n.Evaluations++
	return n.Evaluations == 1
}

// EventCount is one (kind, count) aggregate of a recorder's events, for
// feeding monotone metric counters.
type EventCount struct {
	// Kind is the event kind.
	Kind string
	// Count is the number of events of that kind (dedup events count their
	// dropped embeddings).
	Count int
}

// DefaultMaxEvents caps a recorder's event list; pathological queries can
// enumerate (and dedup) hundreds of thousands of embeddings, and the trace
// must stay shippable over HTTP.
const DefaultMaxEvents = 1000

// Options configures a Recorder.
type Options struct {
	// MaxEvents caps the recorded event list (0 selects DefaultMaxEvents);
	// further events are counted in Trace.EventsDropped.
	MaxEvents int
	// Clock overrides the wall-clock source for stage timing (tests).
	// nil selects time.Now.
	Clock func() time.Time
}

// A Recorder captures one estimate's trace. Create one with NewRecorder,
// pass it to the traced estimation entry points, then read Trace and
// StageSeconds. A nil *Recorder is a valid disabled recorder: every method
// is a nil-safe no-op, so call sites never branch.
//
// A Recorder is single-use and not safe for concurrent use; record one
// estimate per recorder.
type Recorder struct {
	trace      Trace
	maxEvents  int
	clock      func() time.Time
	stageStart [NumStages]time.Time
	stageNanos [NumStages]int64
}

// NewRecorder returns an enabled recorder.
func NewRecorder(opts Options) *Recorder {
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = DefaultMaxEvents
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Recorder{
		trace:     Trace{Version: 2},
		maxEvents: opts.MaxEvents,
		clock:     opts.Clock,
	}
}

// Enabled reports whether the recorder captures anything (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SetQuery records the canonical query string.
func (r *Recorder) SetQuery(q string) {
	if r == nil {
		return
	}
	r.trace.Query = q
}

// SetResult records the final estimate and its truncation flag.
func (r *Recorder) SetResult(estimate float64, truncated bool) {
	if r == nil {
		return
	}
	r.trace.Estimate = estimate
	r.trace.Truncated = truncated
}

// Event appends one expansion-level event, dropping (and counting) events
// beyond the configured cap.
func (r *Recorder) Event(e Event) {
	if r == nil {
		return
	}
	if len(r.trace.Events) >= r.maxEvents {
		r.trace.EventsDropped++
		return
	}
	r.trace.Events = append(r.trace.Events, e)
}

// AddEmbedding appends a new embedding trace and returns it for the
// estimator to fill in; nil on a nil recorder.
func (r *Recorder) AddEmbedding(signature string) *EmbeddingTrace {
	if r == nil {
		return nil
	}
	et := &EmbeddingTrace{Signature: signature}
	r.trace.Embeddings = append(r.trace.Embeddings, et)
	return et
}

// BeginStage starts (or resumes) accumulating wall time for a stage.
func (r *Recorder) BeginStage(s Stage) {
	if r == nil {
		return
	}
	r.stageStart[s] = r.clock()
}

// EndStage stops the stage's clock and adds the elapsed time to its total.
// An EndStage without a matching BeginStage is ignored.
func (r *Recorder) EndStage(s Stage) {
	if r == nil {
		return
	}
	start := r.stageStart[s]
	if start.IsZero() {
		return
	}
	r.stageStart[s] = time.Time{}
	r.stageNanos[s] += r.clock().Sub(start).Nanoseconds()
}

// StageSeconds returns the accumulated wall time per stage. The zero array
// is returned for a nil recorder.
func (r *Recorder) StageSeconds() [NumStages]float64 {
	var out [NumStages]float64
	if r == nil {
		return out
	}
	for i, n := range r.stageNanos {
		out[i] = float64(n) / 1e9
	}
	return out
}

// Trace returns the recorded trace; nil for a nil recorder. The returned
// value is owned by the recorder — read it only after estimation finished.
func (r *Recorder) Trace() *Trace {
	if r == nil {
		return nil
	}
	return &r.trace
}

// EventCounts aggregates the recorded events by kind, in sorted kind order
// (dedup-style events contribute their Count, others count 1 each).
// Dropped events are reported under the kind "dropped".
func (r *Recorder) EventCounts() []EventCount {
	if r == nil {
		return nil
	}
	counts := make(map[string]int)
	for _, e := range r.trace.Events {
		n := e.Count
		if n <= 0 {
			n = 1
		}
		counts[e.Kind] += n
	}
	if r.trace.EventsDropped > 0 {
		counts["dropped"] += r.trace.EventsDropped
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]EventCount, len(kinds))
	for i, k := range kinds {
		out[i] = EventCount{Kind: k, Count: counts[k]}
	}
	return out
}
