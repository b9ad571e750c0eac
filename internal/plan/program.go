package plan

import (
	"context"
	"fmt"
	"sync"

	"xsketch/internal/histogram"
	"xsketch/internal/pathexpr"
	"xsketch/internal/twig"
)

// Mode classifies how a compiled node is executed. The compiler resolves
// the interpreter's runtime branching (pruned? leaf? does any descendant
// condition on this node's expanded dimensions?) once per plan, so the
// executor switches on a stored tag instead.
type Mode uint8

// The two constant modes come first: eval tests Mode <= ModeLeaf.
const (
	// ModeZero marks a node whose contribution is constant zero: a pruned
	// predicate factor, a zero Forward-Uniformity count product, or a
	// missing histogram where one is required. Its Factor is 0.
	ModeZero Mode = iota
	// ModeLeaf marks a childless node without value-dimension uses; its
	// contribution is the constant predicate factor.
	ModeLeaf
	// ModeFactorized marks a node evaluated in the factorized form: one
	// conditional sum-product over the histogram times the children's own
	// contributions (no descendant conditions on this node's dimensions).
	ModeFactorized
	// ModeEnumerated marks a node that enumerates its histogram buckets,
	// binding expanded dimensions to slots for conditioned descendants and
	// applying value-dimension overlaps per bucket.
	ModeEnumerated
)

// Overlapper computes the fraction of a histogram bucket's value-dimension
// mass satisfying a predicate. It is implemented by xsketch.ValueDim; the
// indirection keeps this package below internal/xsketch.
type Overlapper interface {
	Overlap(coord float64, pred *pathexpr.ValuePred) float64
}

// Use is one value-dimension consumption at a node: a predicate whose
// selectivity is read off the extended histogram's value coordinate per
// enumerated bucket. CountDim, when >= 0, marks a branch-existence use
// whose per-bucket probability is min(1, count * overlap) over the branch
// edge's count dimension.
type Use struct {
	// Dim is the histogram dimension carrying the value coordinate.
	Dim int
	// Overlap evaluates the predicate against a bucket's value coordinate.
	Overlap Overlapper
	// Pred is the value predicate being consumed.
	Pred *pathexpr.ValuePred
	// CountDim is the count dimension of the branch edge, or -1 for a
	// plain (self or child) value predicate.
	CountDim int
}

// Node is one compiled embedding node. All fields are fixed at compile
// time; execution reads them together with the program's flat arrays and
// the pooled Scratch. A node holds no slices: each of its lists is an
// int32 span into one of the Program's arrays.
//
//   - Index lists: Program.Ints[Ints:], laid out as DDims then DSlots
//     (NumD entries each), then CovDims then CovSlots (NumCov entries
//     each; CovSlots only in ModeEnumerated). DDims are the histogram
//     dimensions assigned by enumerating ancestors (the TREEPARSE D_i
//     set) in scope order, and DSlots the slots holding their values.
//     CovDims are the expanded (covered-child) dimensions in child order,
//     which double as the sum-product dimension list in the factorized
//     form, and CovSlots the slots each one binds under bucket
//     enumeration.
//   - Uses: Program.Uses[Uses : Uses+NumUses], the node's value-dimension
//     consumptions in the interpreter's evaluation order (self, branches,
//     then children).
//   - Children: Program.Nodes[Kids : Kids+NumCov+NumUnc], the NumCov
//     covered children then the NumUnc uncovered ones, each group in
//     child order.
type Node struct {
	// Hist is the node's edge histogram (shared with the sketch summary;
	// histograms are immutable, and any rebuild that replaces them also
	// advances the sketch generation, retiring this plan).
	Hist *histogram.Histogram
	// Factor is the constant predicate factor: the product of the node's
	// independent value fraction and branch existence fractions, exactly
	// as the interpreter accumulates it.
	Factor float64
	// UncBase is the constant Forward-Uniformity product of average child
	// counts over the uncovered children.
	UncBase float64
	// Index is the node's position in Program.Nodes, addressing its
	// per-node scratch (histogram match buffer).
	Index int32
	// DOff is the node's offset into the scratch conditioning-value arena.
	DOff int32
	// Ints is the start of the node's index lists in Program.Ints.
	Ints int32
	// NumD is the number of ancestor-assigned dimensions.
	NumD int32
	// NumCov and NumUnc count the covered and uncovered children.
	NumCov, NumUnc int32
	// Kids is the position of the node's first child in Program.Nodes.
	Kids int32
	// Uses is the start of the node's uses in Program.Uses, NumUses their
	// count.
	Uses, NumUses int32
	// Mode selects the execution form.
	Mode Mode
}

// Emb is one compiled embedding: the extent size of the virtual root times
// the root node's per-element contribution.
type Emb struct {
	// Base is the extent size of the embedding's root synopsis node.
	Base float64
	// Root is the compiled virtual-root node, an element of Program.Nodes.
	Root *Node
}

// Program is a compiled, executable form of one twig query against one
// sketch state. Programs are immutable once compiled and safe for
// concurrent execution; all mutable state lives in Scratch values drawn
// from one package-wide pool. A program is flat: its nodes and their
// lists live in three arrays (Nodes, Ints, Uses) that nodes address by
// int32 spans.
type Program struct {
	// Canonical is the query's canonical rendering (twig.Query.String),
	// the primary plan-cache key.
	Canonical string
	// Query is the parsed twig the program was compiled from, kept so a
	// stale program can be recompiled without reparsing.
	Query *twig.Query
	// Generation is the sketch mutation epoch the program was compiled
	// under (the counter every sketch mutation advances); a mismatch
	// marks the program stale.
	Generation uint64
	// Truncated reports that embedding enumeration hit the sketch's
	// MaxEmbeddings bound, exactly as EstimateQueryResult would report it.
	Truncated bool
	// Embeddings is the deduplicated compiled embedding list.
	Embeddings []Emb
	// Nodes holds every compiled node. The embeddings' roots come first,
	// and each node's children are one contiguous run.
	Nodes []Node
	// Ints holds the nodes' index lists, one run per node.
	Ints []int
	// Uses holds the nodes' value-dimension uses, one run per node.
	Uses []Use
	// NumNodes is the compiled node count, len(Nodes) (scratch sizing).
	NumNodes int
	// NumSlots is the number of slot bindings (scratch sizing).
	NumSlots int
	// DValsLen is the size of the conditioning-value arena (scratch
	// sizing).
	DValsLen int
}

// Scratch is the per-execution mutable state of a Program: slot bindings,
// the conditioning-value arena, and per-node histogram match buffers.
// One pool serves every Program: a checked-out Scratch is grown to the
// program's sizing counters, and its buffers are retained across
// executions of any program. Sharing is safe because execution writes
// every slot, conditioning value and match buffer before reading it, so
// nothing a previous program left behind is ever read.
type Scratch struct {
	slots []float64
	dvals []float64
	bufs  [][]histogram.Bucket
}

// scratchPool is the one Scratch pool shared by all Programs.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// fit grows s to p's sizing counters, keeping the match buffers it has.
func (s *Scratch) fit(p *Program) {
	if len(s.slots) < p.NumSlots {
		s.slots = make([]float64, p.NumSlots)
	}
	if len(s.dvals) < p.DValsLen {
		s.dvals = make([]float64, p.DValsLen)
	}
	if len(s.bufs) < p.NumNodes {
		bufs := make([][]histogram.Bucket, p.NumNodes)
		copy(bufs, s.bufs)
		s.bufs = bufs
	}
}

// Estimate executes the program: the selectivity estimate plus the
// truncation flag, bit-identical to the interpreted estimate of the same
// query under the same sketch state.
func (p *Program) Estimate() (float64, bool) {
	v, truncated, _ := p.EstimateContext(context.Background())
	return v, truncated
}

// EstimateContext is Estimate with cooperative cancellation, checked
// between embeddings exactly like the interpreter's context-aware entry
// points. On error the partial value is discarded.
//
//lint:hotpath cache-hit execution path, zero allocations asserted by TestPlannedZeroAllocsOnHit
func (p *Program) EstimateContext(ctx context.Context) (float64, bool, error) {
	s := scratchPool.Get().(*Scratch)
	s.fit(p)
	total := 0.0
	for i := range p.Embeddings {
		if err := ctx.Err(); err != nil {
			scratchPool.Put(s)
			return 0, false, err
		}
		em := &p.Embeddings[i]
		total += em.Base * p.eval(em.Root, s)
	}
	scratchPool.Put(s)
	return total, p.Truncated, nil
}

// NumEmbeddings returns the compiled embedding count.
func (p *Program) NumEmbeddings() int { return len(p.Embeddings) }

// String summarizes the program for diagnostics.
func (p *Program) String() string {
	return fmt.Sprintf("plan{%q, %d embedding(s), %d node(s), gen %d}",
		p.Canonical, len(p.Embeddings), p.NumNodes, p.Generation)
}

// eval returns one compiled node's contribution. A constant node
// (ModeZero or ModeLeaf) is its Factor, read here without a call; exec
// evaluates the rest. Together they mirror the interpreter's contrib
// (internal/xsketch/estimate.go) term for term — same multiplication
// order, same early zero returns — so the result is bit-identical.
//
//lint:hotpath per-node execution kernel under EstimateContext
func (p *Program) eval(n *Node, s *Scratch) float64 {
	if n.Mode <= ModeLeaf {
		return n.Factor
	}
	return p.exec(n, s)
}

// exec evaluates a ModeFactorized node — one conditional sum-product,
// then the children's contributions — and hands a ModeEnumerated node to
// enumerated.
//
//lint:hotpath per-node execution kernel under EstimateContext
func (p *Program) exec(n *Node, s *Scratch) float64 {
	if n.Mode == ModeEnumerated {
		return p.enumerated(n, s)
	}
	part := 1.0
	if n.NumCov > 0 {
		dDims, dv := p.conds(n, s)
		at := n.Ints + 2*n.NumD
		v, buf := n.Hist.CondSumProductInto(s.bufs[n.Index], p.Ints[at:at+n.NumCov], dDims, dv)
		s.bufs[n.Index] = buf
		part = v
	}
	k, end := n.Kids, n.Kids+n.NumCov
	for ; k < end; k++ {
		part *= p.eval(&p.Nodes[k], s)
		if part == 0 {
			return 0
		}
	}
	unc := n.UncBase
	for end += n.NumUnc; k < end; k++ {
		unc *= p.eval(&p.Nodes[k], s)
	}
	return n.Factor * unc * part
}

// conds fills n's conditioning values from the slots its enumerating
// ancestors bound and returns the ancestor-assigned dimensions and their
// values.
//
//lint:hotpath per-node execution kernel under EstimateContext
func (p *Program) conds(n *Node, s *Scratch) ([]int, []float64) {
	if n.NumD == 0 {
		return nil, nil
	}
	ints := p.Ints[n.Ints : n.Ints+2*n.NumD]
	dv := s.dvals[n.DOff : n.DOff+n.NumD]
	for i, slot := range ints[n.NumD:] {
		dv[i] = s.slots[slot]
	}
	return ints[:n.NumD], dv
}

// enumerated evaluates a ModeEnumerated node: it iterates bucket
// choices, binding expanded dims to slots for conditioned descendants.
//
//lint:hotpath per-node execution kernel under EstimateContext
func (p *Program) enumerated(n *Node, s *Scratch) float64 {
	dDims, dv := p.conds(n, s)
	buckets, denom := n.Hist.MatchInto(s.bufs[n.Index], dDims, dv)
	if n.NumD != 0 {
		// Retain the grown buffer; with no conditioning dims MatchInto
		// returned the histogram's own buckets, which must not be adopted.
		s.bufs[n.Index] = buckets
	}
	if denom == 0 {
		return 0
	}
	at := n.Ints + 2*n.NumD
	covDims := p.Ints[at : at+n.NumCov]
	covSlots := p.Ints[at+n.NumCov : at+2*n.NumCov]
	uses := p.Uses[n.Uses : n.Uses+n.NumUses]
	kids := p.Nodes[n.Kids : n.Kids+n.NumCov+n.NumUnc]
	cov, unc := kids[:n.NumCov], kids[n.NumCov:]
	total := 0.0
	for bi := range buckets {
		b := &buckets[bi]
		w := b.Freq / denom
		for _, j := range covDims {
			w *= b.Centroid[j]
		}
		for ui := range uses {
			u := &uses[ui]
			ov := u.Overlap.Overlap(b.Centroid[u.Dim], u.Pred)
			if u.CountDim >= 0 {
				cnt := b.Centroid[u.CountDim]
				pr := cnt * ov
				if pr > 1 {
					pr = 1
				}
				ov = pr
			}
			w *= ov
			if w == 0 {
				break
			}
		}
		if w == 0 {
			continue
		}
		for i, j := range covDims {
			s.slots[covSlots[i]] = b.Centroid[j]
		}
		for i := range cov {
			w *= p.eval(&cov[i], s)
			if w == 0 {
				break
			}
		}
		if w != 0 {
			for i := range unc {
				w *= p.eval(&unc[i], s)
				if w == 0 {
					break
				}
			}
		}
		total += w
	}
	return n.Factor * n.UncBase * total
}
