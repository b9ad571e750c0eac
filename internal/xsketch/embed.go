package xsketch

import (
	"bytes"
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
// receiving expansion, dedup and soft-floor events. The enumeration works
// in a pooled scratch arena, but the trees and their child lists are
// carved from fresh chunks, so they belong to the caller and no pooled
// memory leaves the call.
func (sk *Sketch) embeddingsTraced(q *twig.Query, rec *trace.Recorder) ([]*Embedding, bool) {
	s := getCompileScratch()
	defer s.release()
	a := &s.emb
	nodes, ptrs := a.nodes, a.ptrs
	a.nodes, a.ptrs = nil, nil
	if q.Root != nil {
		// The first chunk fits one embedding taking only child steps.
		a.nodes = make([]EmbNode, 0, 1+twigSteps(q.Root))
	}
	roots, truncated := sk.enumerate(a, q, rec)
	a.nodes, a.ptrs = nodes, ptrs
	ems := make([]Embedding, len(roots))
	out := make([]*Embedding, len(roots))
	for i, r := range roots {
		ems[i].Root = r
		out[i] = &ems[i]
	}
	return out, truncated
}

// twigSteps returns the number of path steps in the twig subtree at n.
func twigSteps(n *twig.Node) int {
	c := len(n.Path.Steps)
	for _, ch := range n.Children {
		c += twigSteps(ch)
	}
	return c
}

// enumerate is the embedding enumerator: it returns the virtual roots of
// q's deduplicated embeddings, in enumeration order, with every tree and
// the returned slice taken from arena a, and reports truncation by
// Cfg.MaxEmbeddings.
//
// The plain reading of the root path hangs its realizations under the
// virtual root. The root-self reading (mirroring eval) applies when a
// child-axis first step names the root element's tag: that step consumes
// the virtual root itself, its predicates attaching there. Both are
// realizations of the root path extended by a one-link prefix for the
// virtual root, with or without the first step.
func (sk *Sketch) enumerate(a *embArena, q *twig.Query, rec *trace.Recorder) ([]*EmbNode, bool) {
	if q.Root == nil {
		return nil, false
	}
	rootSyn := sk.Syn.NodeOf(sk.Syn.Doc.Root())
	sk.readStructure(rootSyn)
	steps := q.Root.Path.Steps
	if len(steps) == 0 {
		return nil, false
	}
	bud := embedBudget{left: sk.Cfg.MaxEmbeddings, rec: rec}
	if bud.left <= 0 {
		bud.left = 1 << 30
	}
	base := len(a.alts)
	prefix := [1]link{{syn: rootSyn}}
	sk.pushAlts(a, rootSyn, prefix[:], steps, q.Root.Children, &bud)
	if steps[0].Axis == pathexpr.Child {
		if tag, ok := sk.Syn.Doc.LookupTag(steps[0].Label); ok && sk.Syn.Node(rootSyn).Tag == tag {
			prefix[0].step = steps[0]
			sk.pushAlts(a, rootSyn, prefix[:], steps[1:], q.Root.Children, &bud)
		}
	}
	all := len(a.alts) - base
	roots := a.keep(a.dedupe(a.alts[base:]))
	a.alts = a.alts[:base]
	if rec != nil && len(roots) < all {
		rec.Event(trace.Event{
			Kind:   trace.EventDedup,
			Detail: "structurally identical embeddings dropped",
			Count:  all - len(roots),
		})
	}
	return roots, bud.truncated
}

// embArena is the memory of one embedding enumeration. Nodes, child lists
// and chains are carved from chunks front to back; alternatives and chains
// under construction live on two stacks, each caller popping what it
// pushed. Every enumeration draws its arena from a pool and resets it
// when it returns (compileScratch in planner.go); Embeddings and the
// interpreter swap in empty node and pointer chunks first, so the trees
// they return hold no pooled memory.
type embArena struct {
	nodes  []EmbNode
	ptrs   []*EmbNode
	links  []link
	alts   []*EmbNode
	chains [][]link
	// Dedup scratch: every signature in sig, ending at ends[i]; order
	// sorts the embeddings by signature; dup marks the later copies.
	sig   []byte
	ends  []int
	order []int
	dup   []bool
}

// carve returns n elements from the spare capacity of *chunk, starting a
// chunk at least twice as large when it lacks room; elements already
// handed out stay valid. In a reused chunk the elements still hold an
// earlier compile's values, so every caller writes each element before
// reading it.
func carve[T any](chunk *[]T, n int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(2*cap(c), n, 16))
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// truncate empties a chunk or list for the next user, dropping it instead
// when it grew past limit elements. The old contents stay until a later
// compile overwrites them: clearing would cost a pass (and, during a
// garbage collection, a write barrier per pointer), and what they keep
// alive is bounded by limit.
func truncate[T any](s []T, limit int) []T {
	if cap(s) > limit {
		return nil
	}
	return s[:0]
}

// arenaLimit bounds the chunk and stack sizes a pooled arena keeps between
// compiles, so one huge query cannot pin its memory in the pool.
const arenaLimit = 1 << 12

// reset empties the arena for reuse.
func (a *embArena) reset() {
	a.nodes = truncate(a.nodes, arenaLimit)
	a.ptrs = truncate(a.ptrs, arenaLimit)
	a.links = truncate(a.links, arenaLimit)
	a.alts = truncate(a.alts, arenaLimit)
	a.chains = truncate(a.chains, arenaLimit)
	a.sig = truncate(a.sig, 16*arenaLimit)
	a.ends = truncate(a.ends, arenaLimit)
	a.order = truncate(a.order, arenaLimit)
	a.dup = truncate(a.dup, arenaLimit)
}

// keep copies a list of nodes from a stack into the arena's chunks.
func (a *embArena) keep(ns []*EmbNode) []*EmbNode {
	out := carve(&a.ptrs, len(ns))
	copy(out, ns)
	return out
}

// dedupe drops, in place, the embeddings whose trees are structurally
// identical (same synopsis nodes, predicates and shape) to an earlier
// one, preserving enumeration order. The embeddings are sorted by
// signature, and each one equal to its predecessor in that order (ties
// broken by position) is a later copy.
func (a *embArena) dedupe(roots []*EmbNode) []*EmbNode {
	if len(roots) < 2 {
		return roots
	}
	a.sig, a.ends, a.order, a.dup = a.sig[:0], a.ends[:0], a.order[:0], a.dup[:0]
	for i, r := range roots {
		a.sig = appendEmbSig(a.sig, r)
		a.ends = append(a.ends, len(a.sig))
		a.order = append(a.order, i)
		a.dup = append(a.dup, false)
	}
	sig := func(i int) []byte {
		if i == 0 {
			return a.sig[:a.ends[0]]
		}
		return a.sig[a.ends[i-1]:a.ends[i]]
	}
	slices.SortFunc(a.order, func(x, y int) int {
		if c := bytes.Compare(sig(x), sig(y)); c != 0 {
			return c
		}
		return x - y
	})
	for k := 1; k < len(a.order); k++ {
		a.dup[a.order[k]] = bytes.Equal(sig(a.order[k]), sig(a.order[k-1]))
	}
	out := roots[:0]
	for i, r := range roots {
		if !a.dup[i] {
			out = append(out, r)
		}
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
// the given path steps and children, evaluated from synopsis context ctx,
// as a list in the arena's chunks.
func (sk *Sketch) embedTwig(a *embArena, ctx graphsyn.NodeID, steps []*pathexpr.Step, children []*twig.Node, bud *embedBudget) []*EmbNode {
	base := len(a.alts)
	sk.pushAlts(a, ctx, nil, steps, children, bud)
	out := a.keep(a.alts[base:])
	a.alts = a.alts[:base]
	return out
}

// pushAlts pushes onto a.alts the alternative subtrees realizing prefix
// followed by steps from synopsis context ctx (the prefix's tail, when
// there is a prefix), with the twig node's children embedded under each
// chain's tail. Even with the budget exhausted it yields at least one
// subtree whenever the node is structurally embeddable, so a truncated
// enumeration never collapses an embeddable query to zero embeddings (it
// returns a prefix of the full set instead).
func (sk *Sketch) pushAlts(a *embArena, ctx graphsyn.NodeID, prefix []link, steps []*pathexpr.Step, children []*twig.Node, bud *embedBudget) {
	// A stack buffer holds the usual short chain under construction.
	var buf [16]link
	cbase := len(a.chains)
	sk.embedPath(a, ctx, steps, append(buf[:0], prefix...), bud)
	cend := len(a.chains)
	var altsBuf [8][]*EmbNode
	childAlts := altsBuf[:0]
	if len(children) > len(altsBuf) {
		childAlts = make([][]*EmbNode, 0, len(children))
	}
	childAlts = childAlts[:len(children)]
	for ci := cbase; ci < cend; ci++ {
		ch := a.chains[ci]
		// Embed each twig child from the chain tail; collect the
		// alternatives per child.
		ok := true
		for i, ct := range children {
			childAlts[i] = sk.embedTwig(a, ch[len(ch)-1].syn, ct.Path.Steps, ct.Children, bud)
			if len(childAlts[i]) == 0 {
				ok = false
				break
			}
		}
		if ok && a.emitCombos(ch, childAlts, bud) {
			break
		}
	}
	a.chains = a.chains[:cbase]
}

// emitCombos pushes onto a.alts one materialized copy of chain ch per
// combination of the children's alternatives, the last child varying
// fastest, charging each to the budget. It stops, reporting true, once
// the budget is exhausted.
func (a *embArena) emitCombos(ch []link, childAlts [][]*EmbNode, bud *embedBudget) bool {
	var idxBuf [8]int
	var comboBuf [8]*EmbNode
	idx, combo := idxBuf[:0], comboBuf[:0]
	for _, alts := range childAlts {
		idx = append(idx, 0)
		combo = append(combo, alts[0])
	}
	for {
		a.alts = append(a.alts, a.materialize(ch, combo))
		bud.left--
		if bud.exhausted() {
			return true
		}
		i := len(idx) - 1
		for ; i >= 0; i-- {
			if idx[i]++; idx[i] < len(childAlts[i]) {
				combo[i] = childAlts[i][idx[i]]
				break
			}
			idx[i], combo[i] = 0, childAlts[i][0]
		}
		if i < 0 {
			return false
		}
	}
}

// materialize builds the embedded subtree of one chain with the given
// children under its tail, from the arena's chunks. The children
// themselves are shared, not copied.
func (a *embArena) materialize(ch []link, children []*EmbNode) *EmbNode {
	nodes := carve(&a.nodes, len(ch))
	kids := carve(&a.ptrs, len(ch)-1+len(children))
	last := len(ch) - 1
	for i, l := range ch {
		n := &nodes[i]
		*n = EmbNode{Syn: l.syn}
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

// embedPath pushes onto a.chains every chain realizing steps from ctx, in
// enumeration order: each is prefix followed by the links of one
// realization per step, copied into the arena's chunks. With no steps left
// the prefix itself, when not empty, is the one chain. Appends to prefix
// may reuse its spare capacity.
func (sk *Sketch) embedPath(a *embArena, ctx graphsyn.NodeID, steps []*pathexpr.Step, prefix []link, bud *embedBudget) {
	if len(steps) == 0 {
		if len(prefix) > 0 {
			ch := carve(&a.links, len(prefix))
			copy(ch, prefix)
			a.chains = append(a.chains, ch)
		}
		return
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
		sk.embedPath(a, tail, steps[1:], ch, bud)
	}
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
