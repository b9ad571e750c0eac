package xsketch

import (
	"context"
	"slices"
	"strings"
	"sync"

	"xsketch/internal/pathexpr"
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
// asserted in planner_test.go). A miss is kept cheap as well: the
// canonical key and every signature are rendered by appending, and the
// compiled nodes come from slabs (allocations capped by
// TestPlanCompileAllocs in the root package).
//
// Invalidation rides on the estimator-cache generation (estcache.go):
// every program records the generation it was compiled under, every
// mutation advances the generation via InvalidateEstimatorCache, and both
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
// cache miss pays for parsing and compilation.
func (sk *Sketch) PlanQueryText(text string) (*plan.Program, error) {
	gen := sk.generation()
	c := sk.planCache()
	var norm string
	if c != nil {
		norm = twig.NormalizeText(text)
		if p := c.Lookup(norm, gen); p != nil {
			return p, nil
		}
	}
	q, err := twig.Parse(text)
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
// and compiles on a miss.
func (sk *Sketch) planParsed(c *plan.Cache, q *twig.Query, norm string, gen uint64) *plan.Program {
	canonical := q.String()
	if c != nil {
		if p := c.Promote(canonical, norm, gen); p != nil {
			return p
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

// EstimateQueryPlanned estimates a twig query through the compiled-plan
// path: the plan is compiled once per canonical query (per sketch
// generation) and reused from the plan cache afterwards. Results are
// bit-identical to EstimateQuery for any mix of planned and interpreted
// calls; the cache-hit path performs zero allocations.
func (sk *Sketch) EstimateQueryPlanned(text string) (EstimateResult, error) {
	p, err := sk.PlanQueryText(text)
	if err != nil {
		return EstimateResult{}, err
	}
	return sk.EstimatePlanContext(context.Background(), p)
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

// compileProgram compiles a query into an executable program against the
// current sketch state, tagged with the given generation. The compiler
// reuses the interpreter's own enumeration and term computations
// (EmbeddingsTruncated, estimator.scan, valueFraction, existsFraction,
// avgCount), evaluating every constant in the interpreter's order, so the
// frozen constants are the bits the interpreter would produce.
func (sk *Sketch) compileProgram(q *twig.Query, canonical string, gen uint64) *plan.Program {
	ems, truncated := sk.EmbeddingsTruncated(q)
	p := &plan.Program{
		Canonical:  canonical,
		Query:      q,
		Generation: gen,
		Truncated:  truncated,
		Tags:       sk.internTags(q),
		Embeddings: make([]plan.Emb, 0, len(ems)),
	}
	// Every compiled node, and every child pointer, comes from one slab
	// sized by the embedding node count (pruned subtrees leave it short).
	n := 0
	for _, em := range ems {
		n += em.Size() + 1 // the virtual root compiles too
	}
	pc := &planCompiler{sk: sk, prog: p, env: map[ScopeEdge]int{},
		est:   &estimator{sk: sk, condSet: map[ScopeEdge]bool{}},
		nodes: make([]plan.Node, n), kids: make([]*plan.Node, n)}
	for _, em := range ems {
		clear(pc.est.condSet)
		pc.est.scan(em.Root)
		root := pc.node(em.Root, false)
		p.Embeddings = append(p.Embeddings, plan.Emb{
			Base: float64(sk.Syn.Node(em.Root.Syn).Count()),
			Root: root,
		})
	}
	return p
}

// internTags resolves every distinct step label of the query (including
// branch predicates) to its document tag ID, sorted by label for
// deterministic plan rendering. A query has a handful of labels, so each
// new one is inserted into the sorted slice in place.
func (sk *Sketch) internTags(q *twig.Query) []plan.Tag {
	tags := make([]plan.Tag, 0, 8)
	q.Walk(func(n, _ *twig.Node, _ int) {
		if n.Path != nil {
			tags = sk.internStepTags(tags, n.Path.Steps)
		}
	})
	return tags
}

// internStepTags adds the labels of steps and their branches to the
// sorted tag table.
func (sk *Sketch) internStepTags(tags []plan.Tag, steps []*pathexpr.Step) []plan.Tag {
	for _, st := range steps {
		i, found := slices.BinarySearchFunc(tags, st.Label, func(t plan.Tag, label string) int {
			return strings.Compare(t.Label, label)
		})
		if !found {
			id := -1
			if tag, ok := sk.Syn.Doc.LookupTag(st.Label); ok {
				id = int(tag)
			}
			tags = slices.Insert(tags, i, plan.Tag{Label: st.Label, ID: id})
		}
		for _, br := range st.Branches {
			tags = sk.internStepTags(tags, br.Steps)
		}
	}
	return tags
}

// planCompiler compiles one embedding at a time. env is the compile-time
// image of the interpreter's runtime assignment map: it binds each scope
// edge expanded by an enumerating ancestor to the slot that will carry the
// bucket's coordinate at execution time, with lexical push/pop mirroring
// the per-bucket set/delete of the interpreter. nodes and kids are the
// program's node and child-pointer slabs, consumed front to back.
type planCompiler struct {
	sk    *Sketch
	est   *estimator
	prog  *plan.Program
	env   map[ScopeEdge]int
	nodes []plan.Node
	kids  []*plan.Node
}

// takeKids reserves room for n child pointers from the slab, as an empty
// slice with capacity n.
func (pc *planCompiler) takeKids(n int) []*plan.Node {
	k := pc.kids[:0:n]
	pc.kids = pc.kids[n:]
	return k
}

// node compiles one embedding node, mirroring the interpreter's contrib
// (estimate.go) decision for decision: the same predicate factors in the
// same multiplication order, the same covered/uncovered split, the same
// needEnum criterion, and the same early zero cutoffs — except that
// everything depending only on (query shape, sketch state) is evaluated
// now and stored.
func (pc *planCompiler) node(n *EmbNode, skipSelfValue bool) *plan.Node {
	sk := pc.sk
	s := sk.Summaries[n.Syn]
	var scope []ScopeEdge
	var vdims []*ValueDim
	if s != nil && s.Hist != nil {
		scope = s.Scope
		vdims = s.ValueDims
	}

	var uses []plan.Use
	factor := 1.0
	if n.Value != nil && !skipSelfValue {
		if idx := valueDimIdx(s, n.Syn); idx >= 0 {
			uses = append(uses, plan.Use{Dim: idx, Overlap: vdims[idx-len(scope)], Pred: n.Value, CountDim: -1})
		} else {
			factor *= sk.valueFraction(n.Syn, n.Value)
		}
	}
	for _, br := range n.Branches {
		if u, ok := pc.est.branchValueUse(s, scope, vdims, n, br); ok {
			uses = append(uses, plan.Use{Dim: u.dim, Overlap: u.vd, Pred: u.pred, CountDim: u.countDim})
			continue
		}
		v, _ := pc.est.existsFraction(n.Syn, br.Steps)
		factor *= v
	}

	pn := &pc.nodes[0]
	pc.nodes = pc.nodes[1:]
	*pn = plan.Node{Syn: int(n.Syn), Index: pc.prog.NumNodes, Factor: factor, UncBase: 1}
	pc.prog.NumNodes++
	if factor == 0 {
		pn.Mode = plan.ModeZero
		return pn
	}
	if len(n.Children) == 0 && len(uses) == 0 {
		pn.Mode = plan.ModeLeaf
		return pn
	}

	// Constant capacities keep the split lists on the stack for the usual
	// handful of children.
	covered := make([]coveredChild, 0, 4)
	uncovered := make([]coveredChild, 0, 4)
	for _, c := range n.Children {
		cc := coveredChild{child: c, dim: scopeIndex(scope, ScopeEdge{From: n.Syn, To: c.Syn})}
		if c.Value != nil {
			if idx := valueDimIdx(s, c.Syn); idx >= 0 {
				uses = append(uses, plan.Use{Dim: idx, Overlap: vdims[idx-len(scope)], Pred: c.Value, CountDim: -1})
				cc.skip = true
			}
		}
		if cc.dim >= 0 {
			covered = append(covered, cc)
		} else {
			uncovered = append(uncovered, cc)
		}
	}

	// D_i: scope dims bound by enumerating ancestors, read off the
	// compile-time environment in scope order (the interpreter reads its
	// assignment map in the same order).
	for i, se := range scope {
		if slot, ok := pc.env[se]; ok {
			pn.DDims = append(pn.DDims, i)
			pn.DSlots = append(pn.DSlots, slot)
		}
	}
	pn.DOff = pc.prog.DValsLen
	pc.prog.DValsLen += len(pn.DDims)

	needEnum := len(uses) > 0
	for _, cc := range covered {
		if pc.est.condSet[scope[cc.dim]] {
			needEnum = true
			break
		}
	}

	unc := 1.0
	for _, c := range uncovered {
		v, _ := pc.est.avgCount(n.Syn, c.child.Syn)
		unc *= v
	}
	pn.UncBase = unc
	if unc == 0 {
		pn.Mode = plan.ModeZero
		return pn
	}
	pn.Uses = uses

	if !needEnum {
		if len(covered) > 0 {
			if s == nil || s.Hist == nil {
				pn.Mode = plan.ModeZero
				return pn
			}
			pn.Hist = s.Hist
			for _, cc := range covered {
				pn.CovDims = append(pn.CovDims, cc.dim)
			}
		}
		pn.Mode = plan.ModeFactorized
		pc.children(pn, covered, uncovered)
		return pn
	}

	if s == nil || s.Hist == nil {
		pn.Mode = plan.ModeZero
		return pn
	}
	pn.Mode = plan.ModeEnumerated
	pn.Hist = s.Hist
	// Bind this node's expanded dims to fresh slots for the subtree, and
	// restore any shadowed outer bindings afterwards — the lexical image
	// of the interpreter's copied-and-extended assignment map.
	type shadow struct {
		edge ScopeEdge
		slot int
		had  bool
	}
	shadows := make([]shadow, 0, 4)
	for _, cc := range covered {
		pn.CovDims = append(pn.CovDims, cc.dim)
		slot := pc.prog.NumSlots
		pc.prog.NumSlots++
		pn.CovSlots = append(pn.CovSlots, slot)
		edge := scope[cc.dim]
		old, had := pc.env[edge]
		shadows = append(shadows, shadow{edge: edge, slot: old, had: had})
		pc.env[edge] = slot
	}
	pc.children(pn, covered, uncovered)
	for i := len(shadows) - 1; i >= 0; i-- {
		sh := shadows[i]
		if sh.had {
			pc.env[sh.edge] = sh.slot
		} else {
			delete(pc.env, sh.edge)
		}
	}
	return pn
}

// children compiles pn's covered then uncovered children, in child order,
// into child lists reserved from the slab before recursing.
func (pc *planCompiler) children(pn *plan.Node, covered, uncovered []coveredChild) {
	pn.Covered = pc.takeKids(len(covered))
	pn.Uncovered = pc.takeKids(len(uncovered))
	for _, cc := range covered {
		pn.Covered = append(pn.Covered, pc.node(cc.child, cc.skip))
	}
	for _, cc := range uncovered {
		pn.Uncovered = append(pn.Uncovered, pc.node(cc.child, cc.skip))
	}
}
