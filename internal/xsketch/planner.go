package xsketch

import (
	"context"
	"sync"

	"xsketch/internal/plan"
	"xsketch/internal/twig"
)

// This file is the plan compiler: it freezes the query-shape-invariant
// work of EstimateQuery — maximal-twig expansion, embedding enumeration,
// TREEPARSE decomposition, predicate factors — into an executable
// plan.Program, and serves programs from a per-sketch LRU keyed by the
// query's canonical form (with whitespace-normalized text aliases, so
// equivalent spellings share one plan). Compiled execution performs only
// histogram lookups and float arithmetic into scratch drawn from the one
// pool that internal/plan shares across all programs, is bit-identical to
// the interpreter, and allocates nothing on the cache-hit path (both
// asserted in planner_test.go). A miss is kept cheap as well: the text is
// parsed once in its normal form, the canonical key is rendered into a
// stack buffer (and is the request text itself when the two agree), the
// embedding trees and the compiler's working lists live in pooled
// compile scratch, and the program's nodes and lists come from a few
// slabs (allocations capped by TestPlanCompileAllocs and
// TestPlanQueryTextMissAllocs in the root package).
//
// Invalidation rides on the sketch's mutation generation (estcache.go):
// every program records the generation it was compiled under, every
// mutation advances the generation via invalidateEstimatorCache, and both
// the cache lookups and EstimatePlanContext discard or recompile programs
// whose generation no longer matches. A stale plan can therefore never
// contribute a single term to an estimate.

// DefaultPlanCacheSize is the per-sketch compiled-plan LRU capacity when
// Config.PlanCacheSize is zero.
const DefaultPlanCacheSize = 256

// planHandle lazily creates the sketch's plan cache so the struct-literal
// constructors need no setup.
type planHandle struct {
	once  sync.Once
	cache *plan.Cache
}

// planCache returns the sketch's compiled-plan cache, or nil when
// Config.PlanCacheSize is negative (plan caching disabled).
func (sk *Sketch) planCache() *plan.Cache {
	if sk.Cfg.PlanCacheSize < 0 {
		return nil
	}
	sk.plans.once.Do(func() {
		size := sk.Cfg.PlanCacheSize
		if size == 0 {
			size = DefaultPlanCacheSize
		}
		//lint:allow sketchmutate lazy once-guarded cache construction; plans are generation-checked, not invalidated here
		sk.plans.cache = plan.NewCache(size)
	})
	return sk.plans.cache
}

// PlanCacheStats samples the sketch's plan-cache counters (zero when the
// cache is disabled). Safe to call concurrently with estimation.
func (sk *Sketch) PlanCacheStats() plan.Stats {
	if c := sk.planCache(); c != nil {
		return c.Stats()
	}
	return plan.Stats{}
}

// generation returns the sketch's current mutation epoch (see estcache.go).
func (sk *Sketch) generation() uint64 { return sk.est.gen.Load() }

// PlanQueryText returns a compiled plan for the query text, serving it
// from the plan cache when possible. The text is whitespace-normalized
// first, so any spelling of the same query shares one cached plan; only a
// cache miss pays for parsing the normal form and compiling.
func (sk *Sketch) PlanQueryText(text string) (*plan.Program, error) {
	gen := sk.generation()
	c := sk.planCache()
	norm := twig.NormalizeText(text)
	if c != nil {
		if p := c.Lookup(norm, gen); p != nil {
			return p, nil
		}
	}
	q, err := twig.ParseNormalized(norm)
	if err != nil {
		return nil, err
	}
	return sk.planParsed(c, q, norm, gen), nil
}

// PlanQuery returns a compiled plan for a parsed query, serving it from
// the plan cache by canonical form when possible.
func (sk *Sketch) PlanQuery(q *twig.Query) *plan.Program {
	return sk.planParsed(sk.planCache(), q, "", sk.generation())
}

// planParsed resolves a parsed query against the cache by canonical form
// and compiles on a miss. The canonical key is rendered into a stack
// buffer; when it equals the normalized request text, as it does for any
// client sending canonical spellings, that string becomes the key, and
// the canonical lookup is skipped: Lookup has just tried it.
func (sk *Sketch) planParsed(c *plan.Cache, q *twig.Query, norm string, gen uint64) *plan.Program {
	var kb [256]byte
	key := q.AppendTo(kb[:0])
	canonical := norm
	if string(key) != norm {
		canonical = string(key)
		if c != nil {
			if p := c.Promote(canonical, norm, gen); p != nil {
				return p
			}
		}
	}
	p := sk.compileProgram(q, canonical, gen)
	if c != nil {
		c.Insert(p, norm)
	}
	return p
}

// EstimatePlanContext executes a compiled plan, recompiling first if the
// sketch mutated since compilation (so callers may hold plans across
// RebuildNode without ever seeing stale results). Cancellation is
// cooperative, checked before execution and between embeddings; on error
// the result is the zero value and must be discarded.
func (sk *Sketch) EstimatePlanContext(ctx context.Context, p *plan.Program) (EstimateResult, error) {
	if err := ctx.Err(); err != nil {
		return EstimateResult{}, err
	}
	if gen := sk.generation(); p.Generation != gen {
		// Stale: the sketch mutated after compilation. Recompile against
		// the current state (replacing the cache entry) instead of
		// executing against retired histograms.
		p = sk.planParsed(sk.planCache(), p.Query, "", gen)
	}
	v, truncated, err := p.EstimateContext(ctx)
	if err != nil {
		return EstimateResult{}, err
	}
	return EstimateResult{Estimate: v, Truncated: truncated}, nil
}

// EstimateBatchPlannedContext runs a workload of parsed queries through
// the compiled-plan path on the shared batch worker pool, returning one
// result per query in input order; workers <= 0 selects GOMAXPROCS.
// Results are bit-identical to EstimateBatch for any worker count. The
// pool stops pulling queries once cancellation is observed and the call
// returns ctx.Err(), with untouched entries left at their zero value.
func (sk *Sketch) EstimateBatchPlannedContext(ctx context.Context, queries []*twig.Query, workers int) ([]EstimateResult, error) {
	return runBatch(ctx, len(queries), workers, func(i int) (EstimateResult, error) {
		return sk.EstimatePlanContext(ctx, sk.PlanQuery(queries[i]))
	})
}

// BatchItem is one query text's outcome from EstimateBatchTextContext.
type BatchItem struct {
	// Result is the planned estimate; zero for a skipped or failed item.
	Result EstimateResult
	// Plan is the item's compiled plan, whose Query is the parsed text;
	// nil when Err is set.
	Plan *plan.Program
	// Err is the item's parse error.
	Err error
}

// EstimateBatchTextContext runs a batch of query texts on the batch worker
// pool: each item is planned through PlanQueryText, so a plan hit also
// skips the parse, and then executed unless skip[i] is set (skip is empty
// or parallel to texts). An item that does not parse records its error in
// its BatchItem and the rest of the batch still runs. Results are
// bit-identical to EstimateBatchPlannedContext over the parsed queries,
// and cancellation behaves the same way.
func (sk *Sketch) EstimateBatchTextContext(ctx context.Context, texts []string, skip []bool, workers int) ([]BatchItem, error) {
	return runBatch(ctx, len(texts), workers, func(i int) (BatchItem, error) {
		p, err := sk.PlanQueryText(texts[i])
		if err != nil {
			return BatchItem{Err: err}, nil
		}
		if len(skip) > 0 && skip[i] {
			return BatchItem{Plan: p}, nil
		}
		res, err := sk.EstimatePlanContext(ctx, p)
		if err != nil {
			return BatchItem{}, err
		}
		return BatchItem{Result: res, Plan: p}, nil
	})
}

// compileScratch is the pooled working memory of one plan compile: the
// embedding arena, the compile-time scope-edge bindings, the conditioned
// edge set, and the nodes' index and use lists under construction, which
// are copied into the program's own memory before the compile returns.
// Nothing the program keeps points into it.
type compileScratch struct {
	emb     embArena
	env     []binding
	condSet []ScopeEdge
	// ints and uses become the program's Ints and Uses: each compiled
	// node appends its runs (see plan.Node) before its children compile.
	ints []int
	uses []plan.Use
	// first holds the first chunk of every list, sized for a typical
	// compile, so a fresh scratch (the pool drops its contents at garbage
	// collection) is one allocation; a larger compile grows the lists.
	first struct {
		nodes   [32]EmbNode
		ptrs    [48]*EmbNode
		links   [32]link
		alts    [16]*EmbNode
		chains  [16][]link
		env     [16]binding
		condSet [16]ScopeEdge
		ints    [64]int
		uses    [8]plan.Use
	}
}

var compileScratchPool = sync.Pool{New: func() any { return newCompileScratch() }}

// getCompileScratch draws an empty scratch from the pool.
func getCompileScratch() *compileScratch {
	return compileScratchPool.Get().(*compileScratch)
}

// release resets the scratch and returns it to the pool.
func (s *compileScratch) release() {
	s.reset()
	compileScratchPool.Put(s)
}

// newCompileScratch returns an empty scratch whose lists start in its
// inline first chunks.
func newCompileScratch() *compileScratch {
	s := new(compileScratch)
	f := &s.first
	s.emb.nodes, s.emb.ptrs, s.emb.links = f.nodes[:0], f.ptrs[:0], f.links[:0]
	s.emb.alts, s.emb.chains = f.alts[:0], f.chains[:0]
	s.env, s.condSet = f.env[:0], f.condSet[:0]
	s.ints, s.uses = f.ints[:0], f.uses[:0]
	return s
}

// reset empties the scratch for the next compile.
func (s *compileScratch) reset() {
	s.emb.reset()
	s.env = truncate(s.env, arenaLimit)
	s.condSet = truncate(s.condSet, arenaLimit)
	s.ints = truncate(s.ints, arenaLimit)
	s.uses = truncate(s.uses, arenaLimit)
}

// compileProgram compiles a query into an executable program against the
// current sketch state, tagged with the given generation, in scratch drawn
// from the pool for the duration of the call.
func (sk *Sketch) compileProgram(q *twig.Query, canonical string, gen uint64) *plan.Program {
	s := getCompileScratch()
	defer s.release()
	return s.compile(sk, q, canonical, gen)
}

// compile is compileProgram's work. The compiler reuses the interpreter's
// own enumeration and term computations (enumerate, estimator.scan,
// valueFraction, existsFraction, avgCount), evaluating every constant in
// the interpreter's order, so the frozen constants are the bits the
// interpreter would produce. Its working memory is the scratch; the
// program gets a few allocations sized to what it keeps.
func (s *compileScratch) compile(sk *Sketch, q *twig.Query, canonical string, gen uint64) *plan.Program {
	roots, truncated := sk.enumerate(&s.emb, q, nil)
	// Every compiled node comes from one slab sized by the embedding node
	// count (pruned subtrees leave it short). The roots take its front.
	n := 0
	for _, r := range roots {
		n += countEmbNodes(r) // the virtual root compiles too
	}
	p := &plan.Program{
		Canonical:  canonical,
		Query:      q,
		Generation: gen,
		Truncated:  truncated,
		Embeddings: make([]plan.Emb, len(roots)),
		Nodes:      make([]plan.Node, n),
	}
	pc := planCompiler{sk: sk, s: s, prog: p, est: estimator{sk: sk}, next: len(roots)}
	for i, r := range roots {
		pc.est.condSet = s.condSet[:0]
		pc.est.scan(r)
		s.condSet = pc.est.condSet
		pc.node(i, r, false)
		p.Embeddings[i] = plan.Emb{
			Base: float64(sk.Syn.Node(r.Syn).Count()),
			Root: &p.Nodes[i],
		}
	}
	p.Nodes = p.Nodes[:pc.next]
	p.NumNodes = pc.next
	p.Ints = own(s.ints)
	p.Uses = own(s.uses)
	return p
}

// own copies a scratch list into memory of the program's own, or returns
// nil for an empty list.
func own[T any](l []T) []T {
	if len(l) == 0 {
		return nil
	}
	return append([]T(nil), l...)
}

// binding is one compile-time scope-edge binding: the slot that carries
// the edge's bucket coordinate below an enumerating ancestor.
type binding struct {
	edge ScopeEdge
	slot int
}

// planCompiler compiles one embedding at a time. s.env is the compile-time
// image of the interpreter's runtime assignment map: a stack binding each
// scope edge expanded by an enumerating ancestor to the slot that will
// carry the bucket's coordinate at execution time, innermost last, pushed
// and popped around a node's subtree like the interpreter's per-bucket
// set/delete. next is the first free position of the program's node slab:
// a node reserves one run for all its children before compiling them.
type planCompiler struct {
	sk   *Sketch
	s    *compileScratch
	est  estimator
	prog *plan.Program
	next int
}

// slotOf returns the slot bound to a scope edge by the innermost
// enumerating ancestor.
func (pc *planCompiler) slotOf(se ScopeEdge) (int, bool) {
	env := pc.s.env
	for i := len(env) - 1; i >= 0; i-- {
		if env[i].edge == se {
			return env[i].slot, true
		}
	}
	return 0, false
}

// node compiles one embedding node into the program's node at position
// at, mirroring the interpreter's contrib (estimate.go) decision for
// decision: the same predicate factors in the same multiplication order,
// the same covered/uncovered split, the same needEnum criterion, and the
// same early zero cutoffs — except that everything depending only on
// (query shape, sketch state) is evaluated now and stored.
//
// The node's uses and index lists are appended to the scratch lists and
// complete before its children compile, so each is one run that later
// appends leave alone; a node that compiles to ModeZero takes its runs
// back.
func (pc *planCompiler) node(at int, n *EmbNode, skipSelfValue bool) {
	sk, sc := pc.sk, pc.s
	s := sk.Summaries[n.Syn]
	var scope []ScopeEdge
	var vdims []*ValueDim
	if s != nil && s.Hist != nil {
		scope = s.Scope
		vdims = s.ValueDims
	}

	usesAt, intsAt := len(sc.uses), len(sc.ints)
	factor := 1.0
	if n.Value != nil && !skipSelfValue {
		if idx := valueDimIdx(s, n.Syn); idx >= 0 {
			sc.uses = append(sc.uses, plan.Use{Dim: idx, Overlap: vdims[idx-len(scope)], Pred: n.Value, CountDim: -1})
		} else {
			factor *= sk.valueFraction(n.Syn, n.Value)
		}
	}
	for _, br := range n.Branches {
		if u, ok := pc.est.branchValueUse(s, scope, vdims, n, br); ok {
			sc.uses = append(sc.uses, plan.Use{Dim: u.dim, Overlap: u.vd, Pred: u.pred, CountDim: u.countDim})
			continue
		}
		v, _, _ := sk.existsFraction(n.Syn, br.Steps, 0)
		factor *= v
	}

	pn := &pc.prog.Nodes[at] // zeroed by make
	pn.Index, pn.Factor, pn.UncBase = int32(at), factor, 1
	// zero makes pn a ModeZero node, whose Factor is its constant 0, and
	// gives back the runs and conditioning values it took.
	dvalsAt := pc.prog.DValsLen
	zero := func() {
		sc.uses, sc.ints = sc.uses[:usesAt], sc.ints[:intsAt]
		pc.prog.DValsLen = dvalsAt
		*pn = plan.Node{Index: pn.Index, Mode: plan.ModeZero}
	}
	if factor == 0 {
		zero()
		return
	}
	if len(n.Children) == 0 && len(sc.uses) == usesAt {
		pn.Mode = plan.ModeLeaf
		return
	}

	// Constant capacities keep the split lists on the stack for the usual
	// handful of children.
	covered := make([]coveredChild, 0, 4)
	uncovered := make([]coveredChild, 0, 4)
	for _, c := range n.Children {
		cc := coveredChild{child: c, dim: scopeIndex(scope, ScopeEdge{From: n.Syn, To: c.Syn})}
		if c.Value != nil {
			if idx := valueDimIdx(s, c.Syn); idx >= 0 {
				sc.uses = append(sc.uses, plan.Use{Dim: idx, Overlap: vdims[idx-len(scope)], Pred: c.Value, CountDim: -1})
				cc.skip = true
			}
		}
		if cc.dim >= 0 {
			covered = append(covered, cc)
		} else {
			uncovered = append(uncovered, cc)
		}
	}
	pn.Uses, pn.NumUses = int32(usesAt), int32(len(sc.uses)-usesAt)

	// D_i: scope dims bound by enumerating ancestors, read off the
	// compile-time environment in scope order (the interpreter reads its
	// assignment map in the same order), then the slot of each.
	for i, se := range scope {
		if _, ok := pc.slotOf(se); ok {
			sc.ints = append(sc.ints, i)
		}
	}
	nd := len(sc.ints) - intsAt
	for k := intsAt; k < intsAt+nd; k++ {
		slot, _ := pc.slotOf(scope[sc.ints[k]])
		sc.ints = append(sc.ints, slot)
	}
	pn.Ints, pn.NumD = int32(intsAt), int32(nd)
	pn.DOff = int32(pc.prog.DValsLen)
	pc.prog.DValsLen += nd

	needEnum := pn.NumUses > 0
	for _, cc := range covered {
		if pc.est.conditioned(scope[cc.dim]) {
			needEnum = true
			break
		}
	}

	unc := 1.0
	for _, c := range uncovered {
		unc *= sk.avgCount(n.Syn, c.child.Syn)
	}
	pn.UncBase = unc
	if unc == 0 {
		zero()
		return
	}

	if !needEnum {
		if len(covered) > 0 {
			if s == nil || s.Hist == nil {
				zero()
				return
			}
			pn.Hist = s.Hist
			pc.covDims(covered)
		}
		pn.Mode = plan.ModeFactorized
		pc.children(pn, covered, uncovered)
		return
	}

	if s == nil || s.Hist == nil {
		zero()
		return
	}
	pn.Mode = plan.ModeEnumerated
	pn.Hist = s.Hist
	pc.covDims(covered)
	// Bind this node's expanded dims to fresh slots for the subtree, then
	// pop the bindings, uncovering any outer binding of the same edge —
	// the lexical image of the interpreter's copied-and-extended
	// assignment map.
	envAt := len(sc.env)
	for _, cc := range covered {
		slot := pc.prog.NumSlots
		pc.prog.NumSlots++
		sc.ints = append(sc.ints, slot)
		sc.env = append(sc.env, binding{edge: scope[cc.dim], slot: slot})
	}
	pc.children(pn, covered, uncovered)
	sc.env = sc.env[:envAt]
}

// covDims appends the covered children's scope dimensions to the scratch
// index list.
func (pc *planCompiler) covDims(covered []coveredChild) {
	for _, cc := range covered {
		pc.s.ints = append(pc.s.ints, cc.dim)
	}
}

// children reserves one run of the node slab for pn's covered then
// uncovered children, in child order, and compiles them into it.
func (pc *planCompiler) children(pn *plan.Node, covered, uncovered []coveredChild) {
	at := pc.next
	pc.next += len(covered) + len(uncovered)
	pn.Kids, pn.NumCov, pn.NumUnc = int32(at), int32(len(covered)), int32(len(uncovered))
	for i, cc := range covered {
		pc.node(at+i, cc.child, cc.skip)
	}
	at += len(covered)
	for i, cc := range uncovered {
		pc.node(at+i, cc.child, cc.skip)
	}
}
