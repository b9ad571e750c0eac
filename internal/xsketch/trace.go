package xsketch

import (
	"context"
	"fmt"

	"xsketch/internal/graphsyn"
	"xsketch/internal/pathexpr"
	"xsketch/internal/trace"
	"xsketch/internal/twig"
)

// This file wires the internal/trace recorder through the estimation
// pipeline. Tracing is strictly observational: a traced estimate runs the
// identical arithmetic as the untraced one (bit-identical results), and a
// nil recorder reduces every hook to a nil-check, so the hot path pays no
// allocations when tracing is disabled (asserted in trace_test.go).

// EstimateQueryTraced estimates a twig query like EstimateQueryResult,
// aborting with ctx.Err() as soon as cancellation is observed (before
// enumeration and between embeddings; on error the result is the zero
// value and must be discarded). When rec is non-nil it additionally
// records a structured trace: expansion and dedup events, per-embedding
// TREEPARSE trees with E/U/D scope splits and per-term factors, and
// per-stage latencies. With a nil rec and a live context the result is
// bit-identical to EstimateQueryResult.
func (sk *Sketch) EstimateQueryTraced(ctx context.Context, q *twig.Query, rec *trace.Recorder) (EstimateResult, error) {
	if err := ctx.Err(); err != nil {
		return EstimateResult{}, err
	}
	if rec != nil {
		rec.SetQuery(q.String())
	}
	rec.BeginStage(trace.StageEmbed)
	ems, truncated := sk.embeddingsTraced(q, rec)
	rec.EndStage(trace.StageEmbed)
	total := 0.0
	for _, em := range ems {
		if err := ctx.Err(); err != nil {
			return EstimateResult{}, err
		}
		rec.BeginStage(trace.StageTreeparse)
		total += sk.estimateEmbeddingTraced(em, rec)
		rec.EndStage(trace.StageTreeparse)
	}
	rec.SetResult(total, truncated)
	return EstimateResult{Estimate: total, Truncated: truncated}, nil
}

// estimateEmbeddingTraced is EstimateEmbedding with an optional recorder:
// when rec is non-nil a new embedding trace is appended and its TREEPARSE
// tree filled in during evaluation.
func (sk *Sketch) estimateEmbeddingTraced(em *Embedding, rec *trace.Recorder) float64 {
	est := newEstimator(sk, em)
	est.rec = rec
	sk.readStructure(em.Root.Syn)
	base := float64(sk.Syn.Node(em.Root.Syn).Count())
	if rec == nil {
		return base * est.contrib(em.Root, nil, false, nil)
	}
	et := rec.AddEmbedding(embSig(em.Root))
	tn := est.newTraceNode(em.Root)
	tn.Terms = append(tn.Terms, trace.Term{
		Kind:       trace.TermBaseCount,
		Detail:     fmt.Sprintf("|node %d|", em.Root.Syn),
		Value:      base,
		Assumption: trace.AssumptionExact,
	})
	et.Root = tn
	v := base * est.contrib(em.Root, nil, false, tn)
	et.Estimate = v
	return v
}

// expandStepTraced wraps the memoized expandStep with stage timing and an
// expansion event when a recorder is attached.
func (sk *Sketch) expandStepTraced(ctx graphsyn.NodeID, step *pathexpr.Step, rec *trace.Recorder) [][]graphsyn.NodeID {
	if rec == nil {
		seqs, _ := sk.expandStep(ctx, step)
		return seqs
	}
	rec.BeginStage(trace.StageExpand)
	seqs, outcome := sk.expandStep(ctx, step)
	rec.EndStage(trace.StageExpand)
	rec.Event(trace.Event{
		Kind:   trace.EventExpand,
		Detail: fmt.Sprintf("node %d %s%s", ctx, step.Axis, step.Label),
		Count:  len(seqs),
		Cache:  outcome,
	})
	return seqs
}

// newTraceNode creates the trace node mirroring one embedding node.
func (e *estimator) newTraceNode(n *EmbNode) *trace.Node {
	syn := e.sk.Syn.Node(n.Syn)
	return &trace.Node{
		Syn:    int(n.Syn),
		Tag:    e.sk.Syn.Doc.Tag(syn.Tag),
		Extent: syn.Count(),
	}
}

// tnChild indexes a node's pre-built child trace nodes; nil tracing yields
// nil children.
func tnChild(tns []*trace.Node, i int) *trace.Node {
	if tns == nil {
		return nil
	}
	return tns[i]
}

// done finalizes a trace node on its first evaluation (mode and
// contribution) and passes the value through, so contrib's return sites
// stay single-expression.
func done(tn *trace.Node, first bool, mode string, v float64) float64 {
	if first {
		tn.Mode = mode
		tn.Contribution = v
	}
	return v
}
