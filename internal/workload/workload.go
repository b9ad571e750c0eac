package workload

import (
	"math/rand"
	"slices"

	"xsketch/internal/eval"
	"xsketch/internal/pathexpr"
	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
)

// Kind selects a workload flavour.
type Kind int

const (
	// KindP is the paper's P workload: branching predicates, no values.
	KindP Kind = iota
	// KindPV is the P+V workload: branching plus value predicates on half
	// the queries.
	KindPV
	// KindSimple restricts queries to simple path expressions (child axis,
	// no predicates), the CST-comparison workload.
	KindSimple
	// KindNegative generates zero-selectivity queries.
	KindNegative
)

// String names the workload kind the way the paper's experiments do.
func (k Kind) String() string {
	switch k {
	case KindP:
		return "P"
	case KindPV:
		return "P+V"
	case KindSimple:
		return "simple"
	case KindNegative:
		return "negative"
	}
	return "?"
}

// Config controls generation.
type Config struct {
	Kind Kind
	// NumQueries is the workload size (paper: 1000 for P and P+V, 500 for
	// the simple-path comparison).
	NumQueries int
	// MinNodes/MaxNodes bound the twig node count (paper: uniform 4..8).
	MinNodes, MaxNodes int
	// Seed drives the deterministic random stream.
	Seed int64
	// BranchProb is the probability of converting a grown child into a
	// branching predicate instead of a twig node (P and P+V only).
	BranchProb float64
	// DescendantProb is the probability of rooting the query at //tag
	// instead of the full label path (disabled for Simple).
	DescendantProb float64
	// MultiStepProb is the probability of extending a twig node's path by
	// an extra navigational step.
	MultiStepProb float64
	// Anchors, when non-empty, restricts twig roots to (the internal
	// elements among) these document elements. XBUILD uses this to sample
	// queries "around the regions transformed by the candidate operations"
	// (paper Section 5).
	Anchors []xmltree.NodeID
}

// DefaultConfig mirrors the paper's workload parameters for the given
// kind.
func DefaultConfig(kind Kind) Config {
	cfg := Config{
		Kind:           kind,
		NumQueries:     1000,
		MinNodes:       4,
		MaxNodes:       8,
		Seed:           1,
		BranchProb:     0.25,
		DescendantProb: 0.3,
		MultiStepProb:  0.3,
	}
	if kind == KindSimple {
		cfg.NumQueries = 500
		cfg.BranchProb = 0
		cfg.DescendantProb = 0
		cfg.MultiStepProb = 0.3
	}
	return cfg
}

// Query is a generated twig with its exact selectivity.
type Query struct {
	Twig  *twig.Query
	Truth int64
}

// Workload is a set of generated queries.
type Workload struct {
	Kind    Kind
	Queries []Query
}

// Stats summarizes a workload as in the paper's Table 2.
type Stats struct {
	// Count is the number of queries.
	Count int
	// AvgResult is the average true cardinality ("Avg. Result").
	AvgResult float64
	// AvgFanout is the average internal-twig-node fanout ("Avg. Fanout").
	AvgFanout float64
	// AvgNodes is the average twig node count.
	AvgNodes float64
	// WithValuePreds counts queries carrying at least one value predicate.
	WithValuePreds int
}

// Stats computes the workload summary.
func (w *Workload) Stats() Stats {
	var s Stats
	s.Count = len(w.Queries)
	if s.Count == 0 {
		return s
	}
	fanoutSum, fanoutN := 0.0, 0
	for _, q := range w.Queries {
		s.AvgResult += float64(q.Truth)
		s.AvgNodes += float64(q.Twig.NodeCount())
		if f := q.Twig.AvgFanout(); f > 0 {
			fanoutSum += f
			fanoutN++
		}
		if q.Twig.CountValuePreds() > 0 {
			s.WithValuePreds++
		}
	}
	s.AvgResult /= float64(s.Count)
	s.AvgNodes /= float64(s.Count)
	if fanoutN > 0 {
		s.AvgFanout = fanoutSum / float64(fanoutN)
	}
	return s
}

// Truths returns the true counts in query order.
func (w *Workload) Truths() []int64 {
	out := make([]int64, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = q.Truth
	}
	return out
}

// Generate builds a workload over the document.
func Generate(d *xmltree.Document, cfg Config) *Workload {
	g := &generator{
		doc: d,
		ev:  eval.New(d),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cfg: cfg,
	}
	g.prepare()
	w := &Workload{Kind: cfg.Kind}
	attempts := 0
	maxAttempts := cfg.NumQueries * 30
	for len(w.Queries) < cfg.NumQueries && attempts < maxAttempts {
		attempts++
		var q *twig.Query
		if cfg.Kind == KindNegative {
			q = g.negativeQuery()
		} else {
			q = g.positiveQuery()
		}
		if q == nil {
			continue
		}
		truth := g.ev.Selectivity(q)
		switch cfg.Kind {
		case KindNegative:
			if truth != 0 {
				continue
			}
		default:
			if truth <= 0 {
				continue // should not happen by construction; skip defensively
			}
		}
		w.Queries = append(w.Queries, Query{Twig: q, Truth: truth})
	}
	return w
}

type generator struct {
	doc *xmltree.Document
	ev  *eval.Evaluator
	rng *rand.Rand
	cfg Config
	// anchorTags lists the tags that have internal elements; anchorsByTag
	// holds the eligible twig-root elements per tag. Sampling a tag first
	// keeps workloads spread across the schema instead of concentrating on
	// the most numerous element kind.
	anchorTags   []xmltree.TagID
	anchorsByTag map[xmltree.TagID][]xmltree.NodeID
	// childTags[tag] records which child tags occur under parents of the
	// given tag, for negative-query construction (nil for other kinds).
	childTags map[xmltree.TagID]map[xmltree.TagID]bool
	// stepWitness maps each step of the query under construction to the
	// document element it was sampled from; value predicates are centered
	// on witness values so queries stay positive.
	stepWitness map[*pathexpr.Step]xmltree.NodeID
	// domains memoizes xmltree.ValueDomain per tag: each lookup scans the
	// whole document.
	domains map[xmltree.TagID][2]int64
}

// prepare gathers the eligible twig roots: every internal non-root
// element, or only the internal ones among Anchors. Anchored workloads
// visit a sorted, deduplicated copy of the anchors, so they cost time in
// the anchor set rather than the document and depend only on the set.
// The document-wide child-tag table is built for negative workloads
// only, its one reader.
func (g *generator) prepare() {
	d := g.doc
	g.anchorsByTag = make(map[xmltree.TagID][]xmltree.NodeID)
	addAnchor := func(id xmltree.NodeID) {
		n := d.Node(id)
		if len(n.Children) == 0 || id == d.Root() {
			return
		}
		if len(g.anchorsByTag[n.Tag]) == 0 {
			g.anchorTags = append(g.anchorTags, n.Tag)
		}
		g.anchorsByTag[n.Tag] = append(g.anchorsByTag[n.Tag], id)
	}
	if len(g.cfg.Anchors) > 0 {
		anchors := slices.Clone(g.cfg.Anchors)
		slices.Sort(anchors)
		for _, id := range slices.Compact(anchors) {
			addAnchor(id)
		}
	} else {
		for i := 0; i < d.Len(); i++ {
			addAnchor(xmltree.NodeID(i))
		}
	}
	if g.cfg.Kind != KindNegative {
		return
	}
	g.childTags = make(map[xmltree.TagID]map[xmltree.TagID]bool)
	for i := 0; i < d.Len(); i++ {
		n := d.Node(xmltree.NodeID(i))
		if len(n.Children) == 0 {
			continue
		}
		m := g.childTags[n.Tag]
		if m == nil {
			m = make(map[xmltree.TagID]bool)
			g.childTags[n.Tag] = m
		}
		for _, c := range n.Children {
			m[d.Node(c).Tag] = true
		}
	}
}

// node-in-progress: a twig node with the witness element that produced it.
type growth struct {
	node    *twig.Node
	witness xmltree.NodeID
}

// positiveQuery grows a twig from a random anchor element.
func (g *generator) positiveQuery() *twig.Query {
	if len(g.anchorTags) == 0 {
		return nil
	}
	d := g.doc
	tag := g.anchorTags[g.rng.Intn(len(g.anchorTags))]
	pool := g.anchorsByTag[tag]
	anchor := pool[g.rng.Intn(len(pool))]
	target := g.cfg.MinNodes + g.rng.Intn(g.cfg.MaxNodes-g.cfg.MinNodes+1)

	g.stepWitness = make(map[*pathexpr.Step]xmltree.NodeID)
	rootPath := g.rootPath(anchor)
	q := twig.New(rootPath)
	frontier := []growth{{q.Root, anchor}}
	nodes := 1
	// Fanout cap keeps twigs near the paper's ~2 average internal fanout;
	// the root cap relaxes when a shallow document leaves no other way to
	// reach the minimum node count.
	rootCap := 2
	for nodes < target {
		if len(frontier) == 0 {
			// Relax the root cap only when the minimum node count is not
			// yet met; otherwise accept the smaller twig.
			if nodes >= g.cfg.MinNodes || rootCap >= 5 {
				break
			}
			rootCap++
			frontier = append(frontier, growth{q.Root, anchor})
			continue
		}
		// Bias growth toward the most recently added node so twigs develop
		// depth rather than star shapes.
		gi := len(frontier) - 1
		if g.rng.Float64() < 0.3 {
			gi = g.rng.Intn(len(frontier))
		}
		cur := frontier[gi]
		cap := 2
		if cur.node == q.Root {
			cap = rootCap
		}
		children := d.Node(cur.witness).Children
		if len(children) == 0 || len(cur.node.Children) >= cap {
			frontier = append(frontier[:gi], frontier[gi+1:]...)
			continue
		}
		// Prefer child witnesses that have children of their own, so the
		// twig can keep growing downward.
		childWitness := children[g.rng.Intn(len(children))]
		if len(d.Node(childWitness).Children) == 0 {
			for tries := 0; tries < 3; tries++ {
				alt := children[g.rng.Intn(len(children))]
				if len(d.Node(alt).Children) > 0 {
					childWitness = alt
					break
				}
			}
		}
		// Avoid degenerate twigs that request the same child tag twice
		// under one node: drop this growth site instead.
		if g.hasChildLabel(cur.node, d.Tag(d.Node(childWitness).Tag)) {
			frontier = append(frontier[:gi], frontier[gi+1:]...)
			continue
		}
		path, finalWitness := g.growPath(childWitness)
		if path == nil {
			frontier = append(frontier[:gi], frontier[gi+1:]...)
			continue
		}
		if g.cfg.BranchProb > 0 && g.rng.Float64() < g.cfg.BranchProb {
			// Attach as a branching predicate on the parent's last step
			// instead of a new twig node. Always positive: the witness has
			// this child.
			last := cur.node.Path.Steps[len(cur.node.Path.Steps)-1]
			last.Branches = append(last.Branches, path)
			continue
		}
		n := q.AddChild(cur.node, path)
		nodes++
		frontier = append(frontier, growth{n, finalWitness})
	}
	if nodes < g.cfg.MinNodes {
		return nil
	}
	if g.cfg.Kind == KindPV && g.rng.Intn(2) == 0 {
		g.attachValuePreds(q)
	}
	return q
}

// hasChildLabel reports whether the twig node already selects the given
// label via a child twig node or a branching predicate on its final step.
func (g *generator) hasChildLabel(n *twig.Node, label string) bool {
	for _, c := range n.Children {
		if len(c.Path.Steps) > 0 && c.Path.Steps[0].Label == label {
			return true
		}
	}
	last := n.Path.Steps[len(n.Path.Steps)-1]
	for _, br := range last.Branches {
		if len(br.Steps) > 0 && br.Steps[0].Label == label {
			return true
		}
	}
	return false
}

// rootPath derives the twig root's path expression from the anchor's
// root-to-anchor label path: either the full child-axis chain or //tag.
func (g *generator) rootPath(anchor xmltree.NodeID) *pathexpr.Path {
	d := g.doc
	if g.cfg.DescendantProb > 0 && g.rng.Float64() < g.cfg.DescendantProb {
		s := &pathexpr.Step{Axis: pathexpr.Descendant, Label: d.Tag(d.Node(anchor).Tag)}
		g.stepWitness[s] = anchor
		return &pathexpr.Path{Steps: []*pathexpr.Step{s}}
	}
	// Witness chain: the elements from the root down to the anchor.
	var chain []xmltree.NodeID
	for id := anchor; id != d.Root(); id = d.Node(id).Parent {
		chain = append(chain, id)
	}
	p := &pathexpr.Path{}
	// chain is anchor-first; emit steps root-downward. The document root's
	// own tag is skipped: paths are evaluated from the root element.
	for i := len(chain) - 1; i >= 0; i-- {
		s := &pathexpr.Step{Axis: pathexpr.Child, Label: d.Tag(d.Node(chain[i]).Tag)}
		g.stepWitness[s] = chain[i]
		p.Steps = append(p.Steps, s)
	}
	if len(p.Steps) == 0 {
		return nil
	}
	return p
}

// growPath builds a (possibly multi-step) child-axis path starting at the
// given witness element, returning the path and the witness of its final
// step.
func (g *generator) growPath(witness xmltree.NodeID) (*pathexpr.Path, xmltree.NodeID) {
	d := g.doc
	first := &pathexpr.Step{Axis: pathexpr.Child, Label: d.Tag(d.Node(witness).Tag)}
	g.stepWitness[first] = witness
	p := &pathexpr.Path{Steps: []*pathexpr.Step{first}}
	cur := witness
	for g.cfg.MultiStepProb > 0 && g.rng.Float64() < g.cfg.MultiStepProb {
		children := d.Node(cur).Children
		if len(children) == 0 {
			break
		}
		next := children[g.rng.Intn(len(children))]
		s := &pathexpr.Step{Axis: pathexpr.Child, Label: d.Tag(d.Node(next).Tag)}
		g.stepWitness[s] = next
		p.Steps = append(p.Steps, s)
		cur = next
	}
	return p, cur
}

// attachValuePreds adds one or two value predicates to steps whose
// witnesses carry values. Each predicate covers a random 10% range of the
// tag's value domain positioned to include the witness value (guaranteeing
// positivity).
func (g *generator) attachValuePreds(q *twig.Query) {
	d := g.doc
	// Candidate steps: those whose witness element carries a value. The
	// predicate's 10% range is positioned to contain the witness value, so
	// the witness binding tuple remains valid and the query stays positive.
	type cand struct {
		step    *pathexpr.Step
		tag     xmltree.TagID
		witness xmltree.NodeID
	}
	var collectPath func(p *pathexpr.Path, cands []cand) []cand
	collectPath = func(p *pathexpr.Path, cands []cand) []cand {
		for _, s := range p.Steps {
			if w, ok := g.stepWitness[s]; ok && s.Value == nil && d.Node(w).HasValue {
				if tag, ok := d.LookupTag(s.Label); ok {
					cands = append(cands, cand{s, tag, w})
				}
			}
			for _, br := range s.Branches {
				cands = collectPath(br, cands)
			}
		}
		return cands
	}
	collect := func() []cand {
		var cands []cand
		q.Walk(func(n, _ *twig.Node, _ int) { cands = collectPath(n.Path, cands) })
		return cands
	}
	cands := collect()
	if len(cands) == 0 {
		// No valued step yet: extend a leaf twig node's path down to a
		// valued child of its witness (safe only at leaves, where no twig
		// children depend on the path's endpoint).
		for _, n := range q.Nodes() {
			if len(n.Children) > 0 {
				continue
			}
			last := n.Path.Steps[len(n.Path.Steps)-1]
			w, ok := g.stepWitness[last]
			if !ok {
				continue
			}
			for _, c := range d.Node(w).Children {
				if !d.Node(c).HasValue {
					continue
				}
				s := &pathexpr.Step{Axis: pathexpr.Child, Label: d.Tag(d.Node(c).Tag)}
				g.stepWitness[s] = c
				n.Path.Steps = append(n.Path.Steps, s)
				break
			}
			if cands = collect(); len(cands) > 0 {
				break
			}
		}
	}
	if len(cands) == 0 {
		// Last resort: attach a value-predicated branching predicate to a
		// node whose witness has a valued child (safe anywhere — branches
		// never move a node's endpoint).
		for _, n := range q.Nodes() {
			last := n.Path.Steps[len(n.Path.Steps)-1]
			w, ok := g.stepWitness[last]
			if !ok {
				continue
			}
			for _, c := range d.Node(w).Children {
				if !d.Node(c).HasValue {
					continue
				}
				s := &pathexpr.Step{Axis: pathexpr.Child, Label: d.Tag(d.Node(c).Tag)}
				g.stepWitness[s] = c
				last.Branches = append(last.Branches, &pathexpr.Path{Steps: []*pathexpr.Step{s}})
				break
			}
			if cands = collect(); len(cands) > 0 {
				break
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	nPreds := 1 + g.rng.Intn(2)
	for i := 0; i < nPreds && len(cands) > 0; i++ {
		ci := g.rng.Intn(len(cands))
		c := cands[ci]
		cands = append(cands[:ci], cands[ci+1:]...)
		lo, hi := g.valueDomain(c.tag)
		width := (hi - lo + 1) / 10
		if width < 1 {
			width = 1
		}
		v := d.Node(c.witness).Value
		start := v - g.rng.Int63n(width)
		if start < lo {
			start = lo
		}
		end := start + width - 1
		if end < v {
			end = v
		}
		if end > hi {
			end = hi
		}
		c.step.Value = &pathexpr.ValuePred{Lo: start, Hi: end}
	}
}

// valueDomain returns xmltree.ValueDomain's [lo, hi] for tag, computed
// once per generator.
func (g *generator) valueDomain(tag xmltree.TagID) (lo, hi int64) {
	dom, ok := g.domains[tag]
	if !ok {
		if g.domains == nil {
			g.domains = make(map[xmltree.TagID][2]int64)
		}
		dom[0], dom[1], _ = xmltree.ValueDomain(g.doc, tag)
		g.domains[tag] = dom
	}
	return dom[0], dom[1]
}

// negativeQuery builds a structurally plausible query with zero
// selectivity by growing a positive query and then retargeting one leaf to
// a tag that never occurs under its parent tag.
func (g *generator) negativeQuery() *twig.Query {
	q := g.positiveQuery()
	if q == nil {
		return nil
	}
	d := g.doc
	// Pick a leaf twig node and change its final step's label to a tag that
	// exists in the document but never under the leaf's parent-step tag.
	var leaves []*twig.Node
	q.Walk(func(n, _ *twig.Node, _ int) {
		if len(n.Children) == 0 {
			leaves = append(leaves, n)
		}
	})
	leaf := leaves[g.rng.Intn(len(leaves))]
	steps := leaf.Path.Steps
	last := steps[len(steps)-1]
	var parentTag xmltree.TagID
	ok := false
	if len(steps) >= 2 {
		parentTag, ok = d.LookupTag(steps[len(steps)-2].Label)
	}
	if !ok {
		// Single-step leaf path: the parent is the twig parent's final
		// step; fall back to the document-wide tag set.
		parentTag, ok = d.LookupTag(last.Label)
		if !ok {
			return nil
		}
	}
	under := g.childTags[parentTag]
	allTags := d.Tags()
	// Try a few random tags that never occur under parentTag.
	for tries := 0; tries < 20; tries++ {
		t := allTags[g.rng.Intn(len(allTags))]
		id, _ := d.LookupTag(t)
		if under[id] || t == last.Label {
			continue
		}
		last.Label = t
		last.Value = nil
		last.Branches = nil
		return q
	}
	return nil
}
