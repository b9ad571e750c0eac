// Package xsketch is the public API of the Twig XSKETCH library — a Go
// implementation of "Selectivity Estimation for XML Twigs" (Polyzotis,
// Garofalakis, Ioannidis; ICDE 2004).
//
// The typical flow is: parse or generate an XML document, build a synopsis
// under a byte budget with the XBUILD construction algorithm, and estimate
// twig-query selectivities:
//
//	doc, _ := xsketch.ParseXMLString(src)
//	sk := xsketch.Build(doc, 50*1024)
//	q, _ := xsketch.ParseQuery("for t0 in //movie[/type=0], t1 in t0/actor, t2 in t0/producer")
//	estimate := sk.EstimateQuery(q)
//	exact := xsketch.Exact(doc, q)
//
// The package re-exports the library's core types as aliases, so the full
// surface of the implementation packages (estimation internals, refinement
// operations, dataset generators, workload generation, metrics, the HTTP
// estimation service) is reachable from here without importing internal
// paths.
package xsketch

import (
	"fmt"
	"io"

	"xsketch/internal/build"
	"xsketch/internal/catalog"
	"xsketch/internal/eval"
	"xsketch/internal/graphsyn"
	"xsketch/internal/pathexpr"
	"xsketch/internal/plan"
	"xsketch/internal/serve"
	"xsketch/internal/trace"
	"xsketch/internal/twig"
	"xsketch/internal/workload"
	"xsketch/internal/xmlgen"
	"xsketch/internal/xmltree"
	core "xsketch/internal/xsketch"
)

// Core data model.
type (
	// Document is an XML document in the library's arena tree form.
	Document = xmltree.Document
	// NodeID identifies a document element.
	NodeID = xmltree.NodeID
	// Path is a parsed XPath-subset expression.
	Path = pathexpr.Path
	// ValuePred is an inclusive integer range predicate.
	ValuePred = pathexpr.ValuePred
	// Query is a twig query (a tree of path-labeled nodes).
	Query = twig.Query
	// QueryNode is one node of a twig query.
	QueryNode = twig.Node
)

// Synopsis types.
type (
	// Sketch is a Twig XSKETCH synopsis with estimation methods
	// (EstimateQuery, EstimateQueryResult, PlanQuery, WriteDOT, ...).
	Sketch = core.Sketch
	// SketchConfig controls synopsis construction and estimation.
	SketchConfig = core.Config
	// ScopeEdge is one count dimension of a node's edge histogram.
	ScopeEdge = core.ScopeEdge
	// SynopsisNodeID identifies a synopsis node.
	SynopsisNodeID = graphsyn.NodeID
	// EstimateResult is one query's estimate with its truncation flag
	// (Sketch.EstimateQueryResult, Sketch.EstimateBatch,
	// Sketch.EstimatePlanContext, Sketch.EstimateBatchPlannedContext).
	EstimateResult = core.EstimateResult
	// EstimatorStats reports the estimation memo's lifetime hit and miss
	// counters (Sketch.EstimatorStats, safe to poll while estimation runs).
	EstimatorStats = core.EstimatorStats
	// BuildOptions configures the XBUILD construction algorithm.
	BuildOptions = build.Options
	// Builder runs XBUILD incrementally (budget sweeps, tracing).
	Builder = build.Builder
	// Refinement is one XBUILD refinement operation.
	Refinement = build.Refinement
)

// Workload and evaluation types.
type (
	// Evaluator computes exact path and twig selectivities.
	Evaluator = eval.Evaluator
	// Workload is a set of generated queries with exact selectivities.
	Workload = workload.Workload
	// WorkloadConfig controls workload generation.
	WorkloadConfig = workload.Config
	// WorkloadKind selects P, P+V, simple-path or negative workloads.
	WorkloadKind = workload.Kind
	// DatasetConfig controls the synthetic dataset generators.
	DatasetConfig = xmlgen.Config
)

// Workload kinds (paper Section 6.1).
const (
	WorkloadP        = workload.KindP
	WorkloadPV       = workload.KindPV
	WorkloadSimple   = workload.KindSimple
	WorkloadNegative = workload.KindNegative
)

// ParseXML reads an XML document.
func ParseXML(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseXMLString parses an XML document from a string.
func ParseXMLString(s string) (*Document, error) { return xmltree.ParseString(s) }

// WriteXML serializes a document as XML.
func WriteXML(w io.Writer, d *Document) error { return xmltree.Serialize(w, d) }

// NewDocument creates an empty document with the given root tag, to be
// populated with Document.AddChild / AddValueChild.
func NewDocument(rootTag string) *Document { return xmltree.NewDocument(rootTag) }

// ParseQuery parses a twig query in the paper's for-clause notation, e.g.
// "for t0 in //movie[/type=0], t1 in t0/actor, t2 in t0/producer".
func ParseQuery(s string) (*Query, error) { return twig.Parse(s) }

// ParsePath parses a path expression, e.g. "author/paper[year>2000]/title".
func ParsePath(s string) (*Path, error) { return pathexpr.Parse(s) }

// NewQuery builds a twig query programmatically from a root path; attach
// children with Query.AddChild.
func NewQuery(root *Path) *Query { return twig.New(root) }

// Datasets lists the paper's three evaluation dataset names ("xmark",
// "imdb", "sprot"). GenerateDataset additionally accepts the recursive
// "parts" dataset; AllDatasets lists the full accepted set.
func Datasets() []string { return xmlgen.Names() }

// AllDatasets lists every dataset name GenerateDataset accepts: the
// paper's three evaluation datasets plus the recursive "parts" dataset.
func AllDatasets() []string { return xmlgen.AllNames() }

// GenerateDataset builds one of the synthetic datasets named by
// AllDatasets at the given scale (1 = paper-sized, roughly 100k elements).
func GenerateDataset(name string, seed int64, scale float64) (*Document, error) {
	for _, n := range xmlgen.AllNames() {
		if n == name {
			return xmlgen.Generate(name, xmlgen.Config{Seed: seed, Scale: scale}), nil
		}
	}
	return nil, fmt.Errorf("xsketch: unknown dataset %q (want one of %v)", name, xmlgen.AllNames())
}

// DefaultSketchConfig returns the paper-prototype synopsis configuration.
func DefaultSketchConfig() SketchConfig { return core.DefaultConfig() }

// NewSketch builds the coarsest Twig XSKETCH (the label split graph with
// initial histograms) without running XBUILD.
func NewSketch(d *Document, cfg SketchConfig) *Sketch { return core.New(d, cfg) }

// DefaultBuildOptions returns XBUILD options for the given byte budget.
func DefaultBuildOptions(budgetBytes int) BuildOptions { return build.DefaultOptions(budgetBytes) }

// Build constructs a Twig XSKETCH of at most roughly budgetBytes using the
// XBUILD algorithm with default options.
func Build(d *Document, budgetBytes int) *Sketch {
	return build.XBuild(d, build.DefaultOptions(budgetBytes))
}

// BuildWithOptions constructs a synopsis with full control over XBUILD.
func BuildWithOptions(d *Document, opts BuildOptions) *Sketch { return build.XBuild(d, opts) }

// NewBuilder initializes an incremental XBUILD run (snapshots, tracing).
func NewBuilder(d *Document, opts BuildOptions) *Builder { return build.NewBuilder(d, opts) }

// NewEvaluator returns an exact evaluator for ground-truth selectivities.
func NewEvaluator(d *Document) *Evaluator { return eval.New(d) }

// Exact computes the exact selectivity (binding-tuple count) of a twig
// query over the document.
func Exact(d *Document, q *Query) int64 { return eval.New(d).Selectivity(q) }

// GenerateWorkload builds a query workload over the document (see
// WorkloadConfig and the Workload* kinds).
func GenerateWorkload(d *Document, cfg WorkloadConfig) *Workload { return workload.Generate(d, cfg) }

// DefaultWorkloadConfig mirrors the paper's workload parameters for the
// given kind.
func DefaultWorkloadConfig(kind WorkloadKind) WorkloadConfig { return workload.DefaultConfig(kind) }

// SaveSketch writes a synopsis in the standalone binary format (DESIGN.md
// §12): everything the estimator reads, nothing it does not.
func SaveSketch(w io.Writer, sk *Sketch) error { return catalog.Encode(w, sk) }

// LoadSketch reads a synopsis written by SaveSketch. The result is
// detached: it needs no document and supports every estimation path, but
// cannot be refined further.
func LoadSketch(r io.Reader) (*Sketch, error) {
	sk, _, err := catalog.Decode(r)
	return sk, err
}

// Estimation tracing types: the structured EXPLAIN machinery (see
// DESIGN.md §10 for the trace model and its mapping onto the paper's
// TREEPARSE estimation framework).
type (
	// Explanation is a structured estimation trace: expansion events and
	// per-embedding TREEPARSE trees carrying every numeric term with the
	// assumption justifying it (Sketch.ExplainQuery).
	Explanation = core.Explanation
	// TraceRecorder collects an Explanation plus per-stage latencies
	// while an estimation runs (Sketch.EstimateQueryTraced). A nil
	// recorder disables tracing at zero cost.
	TraceRecorder = trace.Recorder
	// TraceOptions tunes a TraceRecorder (event cap, clock injection).
	TraceOptions = trace.Options
	// TraceNode is one synopsis node's TREEPARSE trace within an
	// Explanation.
	TraceNode = trace.Node
	// TraceTerm is one numeric factor of a traced estimate.
	TraceTerm = trace.Term
	// TraceEvent is one estimation-level trace event (expansion, dedup,
	// truncation).
	TraceEvent = trace.Event
	// TraceEmbedding is one query embedding's trace tree.
	TraceEmbedding = trace.EmbeddingTrace
	// TraceStage identifies an instrumented estimation stage (expand,
	// embed, treeparse, histogram lookup).
	TraceStage = trace.Stage
)

// NewTraceRecorder returns an enabled trace recorder to pass to
// Sketch.EstimateQueryTraced; read the result with TraceRecorder.Trace
// and TraceRecorder.StageSeconds.
func NewTraceRecorder(opts TraceOptions) *TraceRecorder { return trace.NewRecorder(opts) }

// Explain runs a traced estimation of the query and returns its
// structured explanation (equivalent to Sketch.ExplainQuery).
func Explain(sk *Sketch, q *Query) *Explanation { return sk.ExplainQuery(q) }

// Compiled query plans: the plan-once/execute-many estimation path (see
// DESIGN.md §11). Plans come from Sketch.PlanQuery / PlanQueryText, are
// cached per sketch in a generation-checked LRU, and execute bit-identical
// to EstimateQuery with zero steady-state allocations on cache hits
// (Sketch.EstimatePlanContext, Sketch.EstimateBatchPlannedContext,
// Sketch.EstimateBatchTextContext).
type (
	// Plan is a compiled, executable form of one twig query against one
	// sketch state, safe for concurrent execution.
	Plan = plan.Program
	// PlanCacheStats reports a sketch's compiled-plan cache counters
	// (Sketch.PlanCacheStats).
	PlanCacheStats = plan.Stats
)

// DefaultPlanCacheSize is the per-sketch compiled-plan LRU capacity when
// SketchConfig.PlanCacheSize is zero (negative disables plan caching).
const DefaultPlanCacheSize = core.DefaultPlanCacheSize

// Serving types: the networked estimation service behind cmd/xserve (see
// SERVING.md for endpoints and metrics).
type (
	// Server is the HTTP estimation service: hardened handlers over a
	// fixed set of sketches, with metrics, logs and pprof built in.
	Server = serve.Server
	// ServerConfig tunes the service's hardening knobs (concurrency cap,
	// request timeout, body and batch limits).
	ServerConfig = serve.Config
	// ServedSketch is one named synopsis offered by a Server.
	ServedSketch = serve.Sketch
)

// NewServer builds an estimation server over the given sketches; mount
// Server.Handler() on any http.Server.
func NewServer(cfg ServerConfig, sketches []ServedSketch) (*Server, error) {
	return serve.New(cfg, sketches)
}
