package xsketch

import (
	"fmt"
	"math"

	"xsketch/internal/graphsyn"
	"xsketch/internal/pathexpr"
	"xsketch/internal/trace"
	"xsketch/internal/twig"
)

// This file implements the paper's estimation framework (Section 4): the
// TREEPARSE decomposition of a twig embedding into expansion sets E_i,
// uncovered sets U_i and correlation sets D_i, and the selectivity
// expression
//
//	s(T) = |n_0| * Π_i Π_{C∈U_i} ΣF_i(C) * Σ_{E_1..E_m} Π_i F_i(E_i | D_i)
//
// Terms over uncovered counts use the Forward Uniformity assumption,
// F_i(E_i | D_i) terms use histogram buckets under Correlation Scope
// Independence, and counts absent from every scope separate multiplicatively
// under Forward Independence.

// EstimateQuery estimates the selectivity (number of binding tuples) of a
// twig query as the sum over its embeddings. It is safe for concurrent use;
// see EstimateBatch for the worker-pool form and EstimateQueryResult for
// the truncation-aware form.
func (sk *Sketch) EstimateQuery(q *twig.Query) float64 {
	return sk.EstimateQueryResult(q).Estimate
}

// estimateEmbedding estimates the selectivity of one embedding: the extent
// size of the (virtual) root node times the expected binding tuples per
// root element.
func (sk *Sketch) estimateEmbedding(em *Embedding) float64 {
	return sk.estimateEmbeddingTraced(em, nil)
}

// estimator carries per-embedding precomputation: condSet lists the scope
// edges that some embedding node's histogram conditions on as a backward
// count, so ancestors know when bucket enumeration must carry into the
// recursion (and when the cheaper factorized form is exact). rec, when
// non-nil, receives per-stage latencies during evaluation (the structural
// trace rides on the *trace.Node threaded through contrib).
type estimator struct {
	sk      *Sketch
	condSet map[ScopeEdge]bool
	rec     *trace.Recorder
}

func newEstimator(sk *Sketch, em *Embedding) *estimator {
	e := &estimator{sk: sk, condSet: map[ScopeEdge]bool{}}
	e.scan(em.Root)
	return e
}

// scan adds to condSet every scope edge that a node of the subtree at n
// conditions on as a backward count.
func (e *estimator) scan(n *EmbNode) {
	if s := e.sk.Summaries[n.Syn]; s != nil {
		for _, se := range s.Scope {
			if se.From != n.Syn {
				e.condSet[se] = true
			}
		}
	}
	for _, c := range n.Children {
		e.scan(c)
	}
}

// assignment records the count values fixed by ancestor bucket choices,
// keyed by scope edge. It is nil when nothing is assigned.
type assignment map[ScopeEdge]float64

// vdUse is one value-dimension consumption at a node: a predicate whose
// selectivity is read off the extended histogram's value coordinate
// instead of an independent value histogram. countDim, when >= 0, marks a
// branch-existence use whose per-bucket probability is min(1, count *
// overlap) over the branch edge's count dimension.
type vdUse struct {
	dim      int
	vd       *ValueDim
	pred     *pathexpr.ValuePred
	countDim int
}

// coveredChild is one embedding child as the TREEPARSE split sees it: dim
// is the scope dimension it expands (-1 when uncovered), and skip marks
// that its value predicate is consumed through the parent's value
// dimension.
type coveredChild struct {
	child *EmbNode
	dim   int
	skip  bool
}

// contrib returns the expected number of binding tuples of the
// sub-embedding rooted at n, per element of n's synopsis node, given the
// ancestor count assignment. skipSelfValue marks that n's value predicate
// was already consumed by the parent's extended histogram.
//
// tn, when non-nil, is the node's trace skeleton: terms and the scope
// split are recorded on the first evaluation only (an ancestor's bucket
// enumeration re-evaluates subtrees once per bucket; Enter counts those).
// Tracing never changes the arithmetic — every trace write is guarded so
// the untraced path runs the identical computation with zero extra
// allocations.
func (e *estimator) contrib(n *EmbNode, assigned assignment, skipSelfValue bool, tn *trace.Node) float64 {
	first := tn.Enter()
	sk := e.sk
	s := sk.Summaries[n.Syn]
	var scope []ScopeEdge
	var vdims []*ValueDim
	if s != nil && s.Hist != nil {
		scope = s.Scope
		vdims = s.ValueDims
	}

	var uses []vdUse
	factor := 1.0

	// Self value predicate: use the extended histogram's self value
	// dimension when present (correlated with the count dims), otherwise
	// the independent per-node value histogram.
	if n.Value != nil && !skipSelfValue {
		if idx := valueDimIdx(s, n.Syn); idx >= 0 {
			uses = append(uses, vdUse{dim: idx, vd: vdims[idx-len(scope)], pred: n.Value, countDim: -1})
		} else {
			v := e.valueFraction(n)
			if first {
				tn.Terms = append(tn.Terms, trace.Term{
					Kind:       trace.TermValueFraction,
					Detail:     n.Value.String(),
					Value:      v,
					Assumption: trace.AssumptionFI,
				})
			}
			factor *= v
		}
	}
	// Branch predicates: a single-step branch with a value predicate whose
	// target has a value dimension here is consumed per bucket; everything
	// else falls back to the independent existence estimate.
	for _, br := range n.Branches {
		if u, ok := e.branchValueUse(s, scope, vdims, n, br); ok {
			uses = append(uses, u)
			continue
		}
		v, outcome := e.existsFraction(n.Syn, br.Steps)
		if first {
			tn.Terms = append(tn.Terms, trace.Term{
				Kind:       trace.TermExistsFraction,
				Detail:     br.String(),
				Value:      v,
				Assumption: trace.AssumptionFI,
				Cache:      outcome,
			})
		}
		factor *= v
	}
	if factor == 0 {
		return done(tn, first, trace.ModePruned, 0)
	}
	if len(n.Children) == 0 && len(uses) == 0 {
		return done(tn, first, trace.ModeLeaf, factor)
	}

	// TREEPARSE sets: covered children expand scope dims (E_i), the rest
	// fall to Forward Uniformity (U_i); D_i is the subset of scope assigned
	// by ancestors.
	var covered, uncovered []coveredChild
	for _, c := range n.Children {
		cc := coveredChild{child: c, dim: scopeIndex(scope, ScopeEdge{From: n.Syn, To: c.Syn})}
		// A child's value predicate correlates with this node's extended
		// histogram when a value dimension sourced at the child exists.
		if c.Value != nil {
			if idx := valueDimIdx(s, c.Syn); idx >= 0 {
				uses = append(uses, vdUse{dim: idx, vd: vdims[idx-len(scope)], pred: c.Value, countDim: -1})
				cc.skip = true
			}
		}
		if cc.dim >= 0 {
			covered = append(covered, cc)
		} else {
			uncovered = append(uncovered, cc)
		}
	}

	var dDims []int
	var dVals []float64
	for i, se := range scope {
		if v, ok := assigned[se]; ok {
			dDims = append(dDims, i)
			dVals = append(dVals, v)
		}
	}

	// First traced evaluation: record the TREEPARSE scope split (E/U/D)
	// and build the child trace skeletons, covered children first, so that
	// re-evaluations under later buckets find them by index.
	var childTNs []*trace.Node
	if tn != nil {
		if first {
			for _, cc := range covered {
				tn.Expanded = append(tn.Expanded, trace.Edge{From: int(n.Syn), To: int(cc.child.Syn)})
				tn.Children = append(tn.Children, e.newTraceNode(cc.child))
			}
			for _, c := range uncovered {
				tn.Uniform = append(tn.Uniform, int(c.child.Syn))
				tn.Children = append(tn.Children, e.newTraceNode(c.child))
			}
			for i, d := range dDims {
				se := scope[d]
				tn.Assigned = append(tn.Assigned, trace.Assigned{From: int(se.From), To: int(se.To), Count: dVals[i]})
			}
		}
		childTNs = tn.Children
	}

	// Uncovered children: Forward Uniformity for the count multiplier, and
	// Forward Independence to separate them from the covered expansion.
	// Their recursion still sees the ancestor assignment, so when one of
	// their descendants conditions on this node's expanded dims we must
	// evaluate them inside the bucket loop; value-dimension uses force the
	// same.
	needEnum := len(uses) > 0
	for _, cc := range covered {
		if e.condSet[scope[cc.dim]] {
			needEnum = true
			break
		}
	}

	uncMult := 1.0
	for _, c := range uncovered {
		v, outcome := e.avgCount(n.Syn, c.child.Syn)
		if first {
			tn.Terms = append(tn.Terms, trace.Term{
				Kind:       trace.TermAvgCount,
				Detail:     fmt.Sprintf("%d->%d", n.Syn, c.child.Syn),
				Value:      v,
				Assumption: trace.AssumptionFU,
				Cache:      outcome,
			})
		}
		uncMult *= v
	}
	if uncMult == 0 {
		return done(tn, first, trace.ModePruned, 0)
	}

	if !needEnum {
		// Factorized form: Σ_b f_b/denom Π c_dim times each child's own
		// contribution (no descendant conditions on our dims).
		part := 1.0
		if len(covered) > 0 {
			eDims := make([]int, len(covered))
			for i, cc := range covered {
				eDims[i] = cc.dim
			}
			if s == nil || s.Hist == nil {
				return done(tn, first, trace.ModePruned, 0)
			}
			e.rec.BeginStage(trace.StageHistogramLookup)
			part = s.Hist.CondSumProduct(eDims, dDims, dVals)
			e.rec.EndStage(trace.StageHistogramLookup)
			if first {
				tn.Terms = append(tn.Terms, trace.Term{
					Kind:       trace.TermCondSumProduct,
					Detail:     fmt.Sprintf("%d expanded dim(s) | %d assigned", len(eDims), len(dDims)),
					Value:      part,
					Assumption: trace.AssumptionCSI,
				})
			}
		}
		for i, cc := range covered {
			part *= e.contrib(cc.child, assigned, cc.skip, tnChild(childTNs, i))
			if part == 0 {
				return done(tn, first, trace.ModeFactorized, 0)
			}
		}
		for j, c := range uncovered {
			uncMult *= e.contrib(c.child, assigned, c.skip, tnChild(childTNs, len(covered)+j))
		}
		return done(tn, first, trace.ModeFactorized, factor*uncMult*part)
	}

	// Enumerated form: iterate bucket choices of this node's histogram,
	// applying value-dimension factors per bucket and extending the
	// assignment with the expanded dims for descendants that condition on
	// them.
	if s == nil || s.Hist == nil {
		return done(tn, first, trace.ModePruned, 0)
	}
	e.rec.BeginStage(trace.StageHistogramLookup)
	buckets, denom := s.Hist.Match(dDims, dVals)
	e.rec.EndStage(trace.StageHistogramLookup)
	if first {
		tn.Buckets = len(buckets)
		tn.Denominator = denom
	}
	if denom == 0 {
		return done(tn, first, trace.ModePruned, 0)
	}
	ext := make(assignment, len(assigned)+len(covered))
	for k, v := range assigned {
		ext[k] = v
	}
	total := 0.0
	for _, b := range buckets {
		w := b.Freq / denom
		for _, cc := range covered {
			w *= b.Centroid[cc.dim]
		}
		for _, u := range uses {
			ov := u.vd.overlap(b.Centroid[u.dim], u.pred)
			if u.countDim >= 0 {
				cnt := b.Centroid[u.countDim]
				p := cnt * ov
				if p > 1 {
					p = 1
				}
				ov = p
			}
			w *= ov
			if w == 0 {
				break
			}
		}
		if w == 0 {
			continue
		}
		for _, cc := range covered {
			ext[scope[cc.dim]] = b.Centroid[cc.dim]
		}
		for i, cc := range covered {
			w *= e.contrib(cc.child, ext, cc.skip, tnChild(childTNs, i))
			if w == 0 {
				break
			}
		}
		if w != 0 {
			for j, c := range uncovered {
				w *= e.contrib(c.child, ext, c.skip, tnChild(childTNs, len(covered)+j))
				if w == 0 {
					break
				}
			}
		}
		total += w
		for _, cc := range covered {
			delete(ext, scope[cc.dim])
		}
	}
	if first {
		tn.Terms = append(tn.Terms, trace.Term{
			Kind:       trace.TermBucketSum,
			Detail:     fmt.Sprintf("%d bucket(s), %d value-dim use(s)", len(buckets), len(uses)),
			Value:      total,
			Assumption: trace.AssumptionCSI,
		})
	}
	return done(tn, first, trace.ModeEnumerated, factor*uncMult*total)
}

// valueDimIdx returns the histogram dimension index of the value dim with
// the given source in summary s, or -1.
func valueDimIdx(s *NodeSummary, source graphsyn.NodeID) int {
	if s == nil {
		return -1
	}
	return s.valueDimIndex(source)
}

// branchValueUse matches a branching predicate against the node's value
// dimensions: a single-step branch [tag op value] whose label resolves to
// exactly one synopsis child carrying a value dimension is consumed per
// bucket. The per-bucket probability is min(1, count * overlap), where
// count is the branch edge's count dimension when in scope (1 otherwise).
func (e *estimator) branchValueUse(s *NodeSummary, scope []ScopeEdge, vdims []*ValueDim, n *EmbNode, br *pathexpr.Path) (vdUse, bool) {
	if s == nil || len(vdims) == 0 || len(br.Steps) != 1 {
		return vdUse{}, false
	}
	step := br.Steps[0]
	if step.Value == nil || len(step.Branches) != 0 || step.Axis != pathexpr.Child {
		return vdUse{}, false
	}
	tag, ok := e.sk.Syn.Doc.LookupTag(step.Label)
	if !ok {
		return vdUse{}, false
	}
	var target graphsyn.NodeID = -1
	matches := 0
	for _, c := range e.sk.Syn.Node(n.Syn).Children {
		if e.sk.Syn.Node(c).Tag == tag {
			matches++
			target = c
		}
	}
	if matches != 1 {
		return vdUse{}, false
	}
	idx := s.valueDimIndex(target)
	if idx < 0 {
		return vdUse{}, false
	}
	countDim := scopeIndex(scope, ScopeEdge{From: n.Syn, To: target})
	return vdUse{dim: idx, vd: vdims[idx-len(scope)], pred: step.Value, countDim: countDim}, true
}

// valueFraction delegates to the sketch-level form (see below).
func (e *estimator) valueFraction(n *EmbNode) float64 {
	return e.sk.valueFraction(n.Syn, n.Value)
}

// existsFraction delegates to the memoized sketch-level form, returning
// the estimator-cache outcome alongside the value for trace terms.
func (e *estimator) existsFraction(id graphsyn.NodeID, steps []*pathexpr.Step) (float64, string) {
	v, _, outcome := e.sk.existsFractionOutcome(id, steps, 0)
	return v, outcome
}

// avgCount delegates to the sketch-level form, returning the
// estimator-cache outcome alongside the value for trace terms.
func (e *estimator) avgCount(u, v graphsyn.NodeID) (float64, string) {
	return e.sk.avgCountOutcome(u, v)
}

// valueFraction estimates the fraction of the synopsis node's elements
// satisfying the value predicate, using the stored value histogram scaled
// by the share of valued elements; a predicate on a node with no value
// information — including a refined-away node with an empty extent —
// yields 0 (no element can be proven to carry a matching value).
func (sk *Sketch) valueFraction(id graphsyn.NodeID, pred *pathexpr.ValuePred) float64 {
	if pred == nil {
		return 1
	}
	s := sk.Summaries[id]
	if s == nil || s.VHist == nil || s.VHist.Total() == 0 {
		return 0
	}
	extent := sk.Syn.Node(id).Count()
	if extent == 0 {
		// A stale summary over an emptied extent would otherwise divide by
		// zero and leak Inf/NaN into the estimate.
		return 0
	}
	valuedShare := float64(s.VHist.Total()) / float64(extent)
	if valuedShare > 1 {
		valuedShare = 1
	}
	return s.VHist.Selectivity(pred.Lo, pred.Hi) * valuedShare
}

// existsFractionUncached estimates P(an element of node id has >= 1 match
// of the remaining branch steps). Following the single-path XSKETCH
// framework, an F-stable edge whose target certainly satisfies the rest
// contributes probability 1; otherwise the probability is approximated by
// the expected number of satisfying matches clamped to 1, summing over the
// alternative synopsis realizations of the step. The second return reports
// that no recursive call hit the depth guard (see existsFraction in
// estcache.go, the memoized entry point).
func (sk *Sketch) existsFractionUncached(id graphsyn.NodeID, steps []*pathexpr.Step, depth int) (float64, bool) {
	step := steps[0]
	expected := 0.0
	clean := true
	for _, seq := range sk.expandStep(id, step) {
		// Probability mass via the chain: expected count of elements at the
		// end of the sequence, times the probability each satisfies the
		// step predicates and the rest of the branch.
		target := seq[len(seq)-1]
		q := 1.0
		if step.Value != nil {
			q *= sk.valueFraction(target, step.Value)
		}
		for _, sub := range step.Branches {
			v, ok := sk.existsFraction(target, sub.Steps, depth+1)
			q *= v
			clean = clean && ok
		}
		if q == 0 {
			continue
		}
		v, ok := sk.existsFraction(target, steps[1:], depth+1)
		q *= v
		clean = clean && ok
		if q == 0 {
			continue
		}
		// Exact shortcut: a direct F-stable edge with certain satisfaction
		// guarantees existence for every element.
		if len(seq) == 1 && q == 1 {
			if edge := sk.Syn.Edge(id, target); edge != nil && edge.FStable {
				return 1, clean
			}
		}
		mult := 1.0
		prev := id
		for _, nodeID := range seq {
			mult *= sk.avgCount(prev, nodeID)
			prev = nodeID
		}
		expected += mult * q
	}
	return math.Min(1, expected), clean
}

// avgCount estimates the average number of children in node v per element
// of node u, i.e. ΣF_u(c_v) under Forward Uniformity:
// |u -> v| / |u|, where the edge count |u -> v| is taken from the stored
// model — |v| when the edge is B-stable, otherwise |v| split across v's
// parent nodes proportionally to their extent sizes (the single-path
// XSKETCH estimate for unstable edges).
func (sk *Sketch) avgCount(u, v graphsyn.NodeID) float64 {
	c, _ := sk.avgCountOutcome(u, v)
	return c
}

// avgCountOutcome is avgCount plus the estimator-cache outcome of the
// underlying edge-count lookup, for trace terms.
func (sk *Sketch) avgCountOutcome(u, v graphsyn.NodeID) (float64, string) {
	cu := float64(sk.Syn.Node(u).Count())
	if cu == 0 {
		return 0, trace.CacheOff
	}
	cnt, outcome := sk.estEdgeCountOutcome(u, v)
	return cnt / cu, outcome
}

// estEdgeCountUncached estimates |u -> v|: the number of elements of v
// whose parent lies in u. estEdgeCount in estcache.go is the memoized
// entry point.
func (sk *Sketch) estEdgeCountUncached(u, v graphsyn.NodeID) float64 {
	edge := sk.Syn.Edge(u, v)
	if edge == nil {
		return 0
	}
	if sk.Cfg.StoreEdgeCounts {
		return float64(edge.ChildCount)
	}
	nv := sk.Syn.Node(v)
	if edge.BStable {
		return float64(nv.Count())
	}
	var parentTotal float64
	for _, p := range nv.Parents {
		parentTotal += float64(sk.Syn.Node(p).Count())
	}
	if parentTotal == 0 {
		return 0
	}
	return float64(nv.Count()) * float64(sk.Syn.Node(u).Count()) / parentTotal
}
