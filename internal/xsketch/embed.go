package xsketch

import (
	"slices"
	"strconv"

	"xsketch/internal/graphsyn"
	"xsketch/internal/pathexpr"
	"xsketch/internal/trace"
	"xsketch/internal/twig"
)

// This file implements the expansion of a twig query into its embeddings
// over the synopsis (paper Section 4). A maximal twig query replaces every
// multi-step path with a chain of single-step nodes and every '//' operator
// with valid document paths taken from the synopsis structure; an embedding
// then assigns a concrete synopsis node to every (expanded) twig node. The
// selectivity of the query is the sum of the selectivities of its unique
// embeddings.

// EmbNode is one node of a twig embedding: a synopsis node together with
// the value and branching predicates that apply at this navigational step,
// and the embedded children.
type EmbNode struct {
	Syn      graphsyn.NodeID
	Value    *pathexpr.ValuePred
	Branches []*pathexpr.Path
	Children []*EmbNode
}

// Embedding is a fully expanded match of a twig query over the synopsis.
// Root is a virtual node standing for the document root's synopsis node;
// its children embed the query's root path.
type Embedding struct {
	Root *EmbNode
}

// embedBudget threads the Cfg.MaxEmbeddings bound through the enumeration.
// The budget is soft: once exhausted, every enumeration level still yields
// its first alternative (instead of dropping partially built combinations
// and collapsing the whole query to zero embeddings), so a truncated
// enumeration always returns a usable prefix of the embedding set.
type embedBudget struct {
	left      int
	truncated bool
	// rec receives expansion events when tracing; nil otherwise.
	rec *trace.Recorder
}

// exhausted reports that the budget is spent, flagging truncation as a side
// effect (it is only consulted where further work is pending or skipped).
// The first exhaustion records the MaxEmbeddings soft-floor event.
func (b *embedBudget) exhausted() bool {
	if b.left <= 0 {
		if !b.truncated {
			b.truncated = true
			b.rec.Event(trace.Event{
				Kind:   trace.EventMaxEmbeddings,
				Detail: "embedding budget exhausted; enumeration truncated to a usable prefix",
			})
		}
		return true
	}
	return false
}

// Embeddings enumerates the embeddings of q over the synopsis. The
// enumeration expands '//' into simple (non-repeating) synopsis paths of
// length at most Cfg.MaxDescendantPathLen and caps the total embedding
// count at Cfg.MaxEmbeddings (returning the truncated set when the cap is
// hit; see EmbeddingsTruncated).
func (sk *Sketch) Embeddings(q *twig.Query) []*Embedding {
	ems, _ := sk.EmbeddingsTruncated(q)
	return ems
}

// EmbeddingsTruncated enumerates the embeddings of q and additionally
// reports whether enumeration was truncated by Cfg.MaxEmbeddings.
//
// Structurally identical embeddings are deduplicated before returning:
// both interpretations of an absolute first step naming the root tag (the
// plain root-children reading and the root-self reading, mirroring eval)
// draw from one budget and produce distinct trees by construction, but the
// dedup pass guarantees no synopsis realization is ever counted twice by
// EstimateQuery even if a future enumeration change introduces overlap.
func (sk *Sketch) EmbeddingsTruncated(q *twig.Query) ([]*Embedding, bool) {
	return sk.embeddingsTraced(q, nil)
}

// embeddingsTraced is EmbeddingsTruncated with an optional recorder
// receiving expansion, dedup and soft-floor events.
func (sk *Sketch) embeddingsTraced(q *twig.Query, rec *trace.Recorder) ([]*Embedding, bool) {
	if q.Root == nil {
		return nil, false
	}
	rootSyn := sk.Syn.NodeOf(sk.Syn.Doc.Root())
	sk.readStructure(rootSyn)
	bud := &embedBudget{left: sk.Cfg.MaxEmbeddings, rec: rec}
	if bud.left <= 0 {
		bud.left = 1 << 30
	}
	alts := sk.embedTwig(rootSyn, q.Root.Path.Steps, q.Root.Children, bud)
	out := wrapEmbeddings(make([]*Embedding, 0, len(alts)), rootSyn, alts)
	// Root-self interpretation of absolute paths (mirroring eval): a
	// child-axis first step naming the root element's tag consumes the
	// virtual root itself, its predicates attaching there.
	if steps := q.Root.Path.Steps; len(steps) > 0 && steps[0].Axis == pathexpr.Child {
		if tag, ok := sk.Syn.Doc.LookupTag(steps[0].Label); ok && sk.Syn.Node(rootSyn).Tag == tag {
			step0 := steps[0]
			if len(steps) == 1 {
				for _, combo := range sk.embedChildren(rootSyn, q.Root.Children, bud) {
					out = append(out, &Embedding{Root: &EmbNode{
						Syn: rootSyn, Value: step0.Value, Branches: step0.Branches, Children: combo,
					}})
				}
			} else {
				for _, alt := range sk.embedTwig(rootSyn, steps[1:], q.Root.Children, bud) {
					out = append(out, &Embedding{Root: &EmbNode{
						Syn: rootSyn, Value: step0.Value, Branches: step0.Branches, Children: []*EmbNode{alt},
					}})
				}
			}
		}
	}
	deduped := dedupeEmbeddings(out)
	if rec != nil && len(deduped) < len(out) {
		rec.Event(trace.Event{
			Kind:   trace.EventDedup,
			Detail: "structurally identical embeddings dropped",
			Count:  len(out) - len(deduped),
		})
	}
	return deduped, bud.truncated
}

// wrapEmbeddings appends one embedding per alternative to out, each under
// its own virtual root node for rootSyn. The roots and their one-element
// child lists share two slabs.
func wrapEmbeddings(out []*Embedding, rootSyn graphsyn.NodeID, alts []*EmbNode) []*Embedding {
	ems := make([]Embedding, len(alts))
	roots := make([]EmbNode, len(alts))
	kids := make([]*EmbNode, len(alts))
	for i, a := range alts {
		kids[i] = a
		roots[i] = EmbNode{Syn: rootSyn, Children: kids[i : i+1 : i+1]}
		ems[i].Root = &roots[i]
		out = append(out, &ems[i])
	}
	return out
}

// dedupeEmbeddings drops embeddings whose trees are structurally identical
// (same synopsis nodes, predicates and shape) to an earlier one, preserving
// enumeration order. All signatures are rendered into one buffer that
// becomes a single string, so the keys cost one allocation together.
func dedupeEmbeddings(ems []*Embedding) []*Embedding {
	if len(ems) < 2 {
		return ems
	}
	var buf []byte
	ends := make([]int, len(ems))
	for i, em := range ems {
		buf = appendEmbSig(buf, em.Root)
		ends[i] = len(buf)
	}
	sigs := string(buf)
	seen := make(map[string]struct{}, len(ems))
	out := ems[:0]
	start := 0
	for i, em := range ems {
		sig := sigs[start:ends[i]]
		start = ends[i]
		if _, dup := seen[sig]; dup {
			continue
		}
		seen[sig] = struct{}{}
		out = append(out, em)
	}
	return out
}

// embSig renders an embedding subtree as a canonical signature string.
func embSig(n *EmbNode) string {
	return string(appendEmbSig(nil, n))
}

// appendEmbSig appends the signature of the subtree at n to b: "n<syn>",
// then "{lo:hi}" for a value predicate, "[path]" per branch, and the
// children's signatures in parentheses, comma-separated.
func appendEmbSig(b []byte, n *EmbNode) []byte {
	b = strconv.AppendInt(append(b, 'n'), int64(n.Syn), 10)
	if n.Value != nil {
		b = strconv.AppendInt(append(b, '{'), n.Value.Lo, 10)
		b = strconv.AppendInt(append(b, ':'), n.Value.Hi, 10)
		b = append(b, '}')
	}
	for _, br := range n.Branches {
		b = append(br.AppendTo(append(b, '[')), ']')
	}
	b = append(b, '(')
	for i, c := range n.Children {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEmbSig(b, c)
	}
	return append(b, ')')
}

// embedChildren enumerates the cartesian combinations of the children's
// embedded alternatives from a fixed context node (used by the root-self
// interpretation, where the parent is the virtual root itself). With no
// children it yields one empty combination.
func (sk *Sketch) embedChildren(ctx graphsyn.NodeID, children []*twig.Node, bud *embedBudget) [][]*EmbNode {
	alts := make([][]*EmbNode, len(children))
	for i, ct := range children {
		alts[i] = sk.embedTwig(ctx, ct.Path.Steps, ct.Children, bud)
		if len(alts[i]) == 0 {
			return nil
		}
	}
	var out [][]*EmbNode
	combo := make([]*EmbNode, len(children))
	var emit func(i int)
	emit = func(i int) {
		if i == len(children) {
			out = append(out, append([]*EmbNode(nil), combo...))
			bud.left--
			return
		}
		for _, a := range alts[i] {
			combo[i] = a
			emit(i + 1)
			if bud.exhausted() && len(out) > 0 {
				return
			}
		}
	}
	emit(0)
	return out
}

// link is one node of a chain, the single-path realization of a twig
// node's path expression: a synopsis node plus, for the node reached by a
// labeled step, that step (whose value and branching predicates apply
// there). Intermediate nodes of a '//' expansion carry a nil step. A
// chain's first link hangs under the parent context; its last link
// receives the twig node's children.
type link struct {
	syn  graphsyn.NodeID
	step *pathexpr.Step
}

// embedTwig returns the alternative embedded subtrees for a twig node with
// the given path steps and children, evaluated from synopsis context ctx.
// Even with the budget exhausted it yields at least one subtree whenever
// the node is structurally embeddable, so a truncated enumeration never
// collapses an embeddable query to zero embeddings (it returns a prefix of
// the full set instead).
func (sk *Sketch) embedTwig(ctx graphsyn.NodeID, steps []*pathexpr.Step, children []*twig.Node, bud *embedBudget) []*EmbNode {
	// Stack buffers for the usual short chain and few alternatives.
	var prefix [16]link
	var chainBuf [4][]link
	chains := sk.embedPath(ctx, steps, prefix[:0], chainBuf[:0], bud)
	if len(chains) == 0 {
		return nil
	}
	var out []*EmbNode
	childAlts := make([][]*EmbNode, len(children))
	combo := make([]*EmbNode, len(children))
	for _, ch := range chains {
		// Embed each twig child from the chain tail; collect the
		// alternatives per child.
		ok := true
		for i, ct := range children {
			childAlts[i] = sk.embedTwig(ch[len(ch)-1].syn, ct.Path.Steps, ct.Children, bud)
			if len(childAlts[i]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Cartesian product over the children's alternatives; each
		// combination materializes its own copy of the chain.
		var emit func(i int)
		emit = func(i int) {
			if i == len(children) {
				out = append(out, materialize(ch, combo))
				bud.left--
				return
			}
			for _, alt := range childAlts[i] {
				combo[i] = alt
				emit(i + 1)
				if bud.exhausted() && len(out) > 0 {
					return
				}
			}
		}
		emit(0)
		if bud.exhausted() && len(out) > 0 {
			break
		}
	}
	return out
}

// materialize builds the embedded subtree of one chain with the given
// children under its tail, from one node slab and one child-pointer slab.
// The children themselves are shared, not copied.
func materialize(ch []link, children []*EmbNode) *EmbNode {
	nodes := make([]EmbNode, len(ch))
	kids := make([]*EmbNode, len(ch)-1+len(children))
	last := len(ch) - 1
	for i, l := range ch {
		n := &nodes[i]
		n.Syn = l.syn
		if l.step != nil {
			n.Value, n.Branches = l.step.Value, l.step.Branches
		}
		if i < last {
			kids[i] = &nodes[i+1]
			n.Children = kids[i : i+1 : i+1]
		}
	}
	if len(children) > 0 {
		nodes[last].Children = append(kids[last:last], children...)
	}
	return &nodes[0]
}

// embedPath appends to out every chain realizing steps from ctx, in
// enumeration order: each is prefix followed by the links of one
// realization per step. prefix is the caller's chain so far; appends to it
// may reuse its spare capacity, so every emitted chain is a fresh copy.
func (sk *Sketch) embedPath(ctx graphsyn.NodeID, steps []*pathexpr.Step, prefix []link, out [][]link, bud *embedBudget) [][]link {
	if len(steps) == 0 {
		return out
	}
	step := steps[0]
	for _, seq := range sk.expandStepTraced(ctx, step, bud.rec) {
		// seq is the node sequence realizing this step (intermediate '//'
		// nodes followed by the labeled target).
		ch := prefix
		for _, id := range seq[:len(seq)-1] {
			ch = append(ch, link{syn: id})
		}
		tail := seq[len(seq)-1]
		ch = append(ch, link{syn: tail, step: step})
		if len(steps) == 1 {
			out = append(out, slices.Clone(ch))
			continue
		}
		out = sk.embedPath(tail, steps[1:], ch, out, bud)
	}
	return out
}

// expandStepUncached enumerates the synopsis-node sequences realizing one
// step from ctx: a single child for the child axis, or every simple
// downward path of bounded length ending at the step's label for the
// descendant axis. expandStep in estcache.go is the memoized entry point.
func (sk *Sketch) expandStepUncached(ctx graphsyn.NodeID, step *pathexpr.Step) [][]graphsyn.NodeID {
	d := sk.Syn.Doc
	tag, ok := d.LookupTag(step.Label)
	if !ok {
		return nil
	}
	var out [][]graphsyn.NodeID
	switch step.Axis {
	case pathexpr.Child:
		sk.readStructure(ctx)
		for _, c := range sk.Syn.Node(ctx).Children {
			if sk.Syn.Node(c).Tag == tag {
				out = append(out, []graphsyn.NodeID{c})
			}
		}
	case pathexpr.Descendant:
		maxLen := sk.Cfg.MaxDescendantPathLen
		if maxLen <= 0 {
			maxLen = 10
		}
		var path []graphsyn.NodeID
		onPath := map[graphsyn.NodeID]bool{ctx: true}
		var dfs func(cur graphsyn.NodeID)
		dfs = func(cur graphsyn.NodeID) {
			if len(path) >= maxLen {
				return
			}
			sk.readStructure(cur)
			for _, c := range sk.Syn.Node(cur).Children {
				if onPath[c] {
					continue
				}
				path = append(path, c)
				if sk.Syn.Node(c).Tag == tag {
					out = append(out, append([]graphsyn.NodeID(nil), path...))
				}
				onPath[c] = true
				dfs(c)
				onPath[c] = false
				path = path[:len(path)-1]
			}
		}
		dfs(ctx)
	}
	return out
}

// Walk visits every node of the embedding in depth-first order (excluding
// the virtual root), passing the node and its parent.
func (e *Embedding) Walk(fn func(n, parent *EmbNode)) {
	var rec func(n, parent *EmbNode)
	rec = func(n, parent *EmbNode) {
		fn(n, parent)
		for _, c := range n.Children {
			rec(c, n)
		}
	}
	for _, c := range e.Root.Children {
		rec(c, e.Root)
	}
}

// Size returns the number of embedding nodes (excluding the virtual root).
func (e *Embedding) Size() int { return countEmbNodes(e.Root) - 1 }

// countEmbNodes returns the node count of the embedding subtree at n.
func countEmbNodes(n *EmbNode) int {
	c := 1
	for _, ch := range n.Children {
		c += countEmbNodes(ch)
	}
	return c
}
