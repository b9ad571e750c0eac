package twig

import (
	"bytes"
	"fmt"
	"strconv"

	"xsketch/internal/pathexpr"
)

// Node is one node of a twig query. Its Path is evaluated relative to the
// parent node's elements (or to the document root for the query root).
type Node struct {
	// Var is an optional variable name (kept for display; semantics are
	// positional).
	Var      string
	Path     *pathexpr.Path
	Children []*Node
}

// Query is a twig query: a rooted tree of path-labeled nodes.
type Query struct {
	Root *Node
}

// New builds a query from a root path expression.
func New(rootPath *pathexpr.Path) *Query {
	return &Query{Root: &Node{Var: "t0", Path: rootPath}}
}

// AddChild attaches a new twig node with the given path under parent and
// returns it.
func (q *Query) AddChild(parent *Node, path *pathexpr.Path) *Node {
	n := &Node{Var: fmt.Sprintf("t%d", q.NodeCount()), Path: path}
	parent.Children = append(parent.Children, n)
	return n
}

// NodeCount returns the number of twig nodes in the query.
func (q *Query) NodeCount() int {
	count := 0
	q.Walk(func(*Node, *Node, int) { count++ })
	return count
}

// Walk visits every node in depth-first (pre-)order, passing the node, its
// parent (nil for the root) and its depth.
func (q *Query) Walk(fn func(n, parent *Node, depth int)) {
	var rec func(n, parent *Node, depth int)
	rec = func(n, parent *Node, depth int) {
		fn(n, parent, depth)
		for _, c := range n.Children {
			rec(c, n, depth+1)
		}
	}
	if q.Root != nil {
		rec(q.Root, nil, 0)
	}
}

// Nodes returns all twig nodes in depth-first order.
func (q *Query) Nodes() []*Node {
	var out []*Node
	q.Walk(func(n, _ *Node, _ int) { out = append(out, n) })
	return out
}

// Leaves returns the number of leaf twig nodes.
func (q *Query) Leaves() int {
	n := 0
	q.Walk(func(node, _ *Node, _ int) {
		if len(node.Children) == 0 {
			n++
		}
	})
	return n
}

// AvgFanout returns the average number of children over internal twig nodes
// (the paper's Table 2 "Avg. Fanout"); 0 for a single-node query.
func (q *Query) AvgFanout() float64 {
	internal, children := 0, 0
	q.Walk(func(n, _ *Node, _ int) {
		if len(n.Children) > 0 {
			internal++
			children += len(n.Children)
		}
	})
	if internal == 0 {
		return 0
	}
	return float64(children) / float64(internal)
}

// IsPathQuery reports whether the twig degenerates to a single path (every
// node has at most one child).
func (q *Query) IsPathQuery() bool {
	ok := true
	q.Walk(func(n, _ *Node, _ int) {
		if len(n.Children) > 1 {
			ok = false
		}
	})
	return ok
}

// IsSimple reports whether every node's path is simple (child axis only, no
// predicates); with IsPathQuery this characterises the paper's "simple path"
// CST-comparison workload.
func (q *Query) IsSimple() bool {
	ok := true
	q.Walk(func(n, _ *Node, _ int) {
		if !n.Path.IsSimple() {
			ok = false
		}
	})
	return ok
}

// CountValuePreds returns the number of value predicates anywhere in the
// query (step predicates and branch predicates included).
func (q *Query) CountValuePreds() int {
	total := 0
	q.Walk(func(n, _ *Node, _ int) { total += n.Path.CountValuePreds() })
	return total
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		out := &Node{Var: n.Var, Path: n.Path.Clone()}
		for _, c := range n.Children {
			out.Children = append(out.Children, rec(c))
		}
		return out
	}
	if q.Root == nil {
		return &Query{}
	}
	return &Query{Root: rec(q.Root)}
}

// String renders the query as a for-clause. Variables are renumbered in
// depth-first order, matching the paper's convention.
func (q *Query) String() string {
	return string(q.AppendTo(make([]byte, 0, 64)))
}

// AppendTo appends the query's for-clause rendering (String) to b and
// returns the extended buffer.
func (q *Query) AppendTo(b []byte) []byte {
	b = append(b, "for "...)
	if q.Root != nil {
		next := 0
		b = appendBinding(b, q.Root, -1, &next)
	}
	return b
}

// appendBinding appends the binding of n and its subtree in pre-order:
// "tI in PATH" for the root (parent < 0), "tI in tP/PATH" otherwise, with
// the separator dropped when the rendered path already starts with "//".
// next is the pre-order index the binding takes.
func appendBinding(b []byte, n *Node, parent int, next *int) []byte {
	i := *next
	*next++
	if i > 0 {
		b = append(b, ", "...)
	}
	b = append(strconv.AppendInt(append(b, 't'), int64(i), 10), " in "...)
	switch {
	case parent < 0 && n.Path == nil:
		b = append(b, "<nil>"...)
	case parent < 0:
		b = n.Path.AppendTo(b)
	default:
		b = append(strconv.AppendInt(append(b, 't'), int64(parent), 10), '/')
		sep := len(b) - 1
		b = n.Path.AppendTo(b)
		if bytes.HasPrefix(b[sep+1:], []byte("//")) {
			b = append(b[:sep], b[sep+1:]...)
		}
	}
	for _, c := range n.Children {
		b = appendBinding(b, c, i, next)
	}
	return b
}
