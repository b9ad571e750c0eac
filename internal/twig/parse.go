package twig

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"xsketch/internal/pathexpr"
)

// Parse parses a twig query in the XQuery-style for-clause notation:
//
//	for t0 in //movie[type=5], t1 in t0/actor, t2 in t0/producer
//
// The leading "for" keyword is optional. Each binding is "<var> in <path>";
// the first binding's path is absolute, subsequent bindings must be rooted
// at a previously defined variable ("tK/<path>"). A binding rooted at a
// variable becomes a child twig node of that variable's node, mirroring the
// paper's equivalence between for-clauses and twig trees.
//
// The text is whitespace-normalized first (see NormalizeText), so every
// later delimiter check ("for " prefix, " in " separator) only ever sees
// single ASCII spaces: "for\tt0 in //a" and "t0  in\n//a" parse exactly
// like their canonical spellings.
func Parse(src string) (*Query, error) {
	return ParseNormalized(NormalizeText(src))
}

// ParseNormalized parses text that is already in whitespace normal form
// (NormalizeText(text) == text), skipping the normalization pass that
// Parse makes; Parse(src) is ParseNormalized(NormalizeText(src)). The
// bindings are scanned in place, and the query's nodes, paths, steps and
// value predicates come from a few allocations sized up front.
func ParseNormalized(text string) (*Query, error) {
	s := text
	if rest, ok := cutPrefixFold(s, "for "); ok {
		s = rest
	}
	if s == "" {
		return nil, fmt.Errorf("twig: empty query")
	}
	var endBuf [16]int
	ends, err := scanBindings(s, endBuf[:0])
	if err != nil {
		return nil, err
	}
	n := len(ends)
	nodes := make([]Node, n)
	// parent[i] is the index of binding i's parent node (unused for the
	// root); the child lists are linked once every binding has parsed.
	var parentBuf [16]int
	parent := parentBuf[:0]
	var sl pathexpr.Slab
	sl.Reserve(pathexpr.TallyText(s), n)
	start := 0
	for i, end := range ends {
		b := trimSpaces(s[start:end])
		start = end + 1
		name, expr, err := splitBinding(b)
		if err != nil {
			return nil, err
		}
		if lookupVar(nodes[:i], name) >= 0 {
			return nil, fmt.Errorf("twig: duplicate variable %q", name)
		}
		// Does the expression start with a known variable?
		head, rest := splitHead(expr)
		pi := lookupVar(nodes[:i], head)
		if pi >= 0 {
			if rest == "" {
				return nil, fmt.Errorf("twig: binding %q: missing path after variable %q", b, head)
			}
			expr = rest
		} else if i != 0 {
			return nil, fmt.Errorf("twig: binding %q does not reference a previous variable", b)
		}
		p, err := sl.Parse(expr)
		if err != nil {
			return nil, fmt.Errorf("twig: binding %q: %w", b, err)
		}
		nodes[i] = Node{Var: name, Path: p}
		parent = append(parent, pi)
	}
	linkChildren(nodes, parent)
	return &Query{Root: &nodes[0]}, nil
}

// linkChildren sets every node's child list, in binding order, from one
// shared array; parent[i] is the index of node i's parent (i > 0). A first
// pass counts each node's children in the length of its list, a second
// gives each parent its run of the array, a third fills the runs.
func linkChildren(nodes []Node, parent []int) {
	if len(nodes) < 2 {
		return
	}
	kids := make([]*Node, len(nodes)-1)
	for _, p := range parent[1:] {
		nodes[p].Children = kids[:len(nodes[p].Children)+1]
	}
	off := 0
	for i := range nodes {
		if c := len(nodes[i].Children); c > 0 {
			nodes[i].Children = kids[off : off : off+c]
			off += c
		}
	}
	for i := 1; i < len(nodes); i++ {
		p := &nodes[parent[i]]
		p.Children = append(p.Children, &nodes[i])
	}
}

// lookupVar returns the index of the node in bound whose variable is
// name, or -1; a twig binds a handful of variables, so a scan beats a map.
func lookupVar(bound []Node, name string) int {
	for i := range bound {
		if bound[i].Var == name {
			return i
		}
	}
	return -1
}

// scanBindings appends to ends the end offset of every comma-separated
// binding of s, splitting only on commas outside brackets. It rejects
// unbalanced brackets and empty bindings.
func scanBindings(s string, ends []int) ([]int, error) {
	depth := 0
	start := 0
	empty := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("twig: unbalanced ']' in %q", s)
			}
		case ',':
			if depth == 0 {
				empty = empty || trimSpaces(s[start:i]) == ""
				ends = append(ends, i)
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("twig: unbalanced '[' in %q", s)
	}
	if empty || trimSpaces(s[start:]) == "" {
		return nil, fmt.Errorf("twig: empty binding in %q", s)
	}
	return append(ends, len(s)), nil
}

// trimSpaces drops leading and trailing ASCII spaces, the only whitespace
// normal-form text holds.
func trimSpaces(s string) string {
	for len(s) > 0 && s[0] == ' ' {
		s = s[1:]
	}
	for len(s) > 0 && s[len(s)-1] == ' ' {
		s = s[:len(s)-1]
	}
	return s
}

// MustParse is Parse but panics on error; intended for tests and constants.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// NormalizeText canonicalizes the whitespace of a query text: leading and
// trailing whitespace is dropped and every interior run of Unicode
// whitespace (tabs, newlines, NBSP, ...) collapses to one ASCII space.
// Every other byte, including bytes that are not valid UTF-8, is kept
// verbatim, so texts with equal normal forms parse identically and the
// normal form is the spelling-insensitive cache key for compiled query
// plans. Input that is already normal is returned unchanged without
// allocating, keeping the plan-cache hit path allocation-free.
func NormalizeText(s string) string {
	if isNormal(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	pending := false
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			// Collapse the run; drop it entirely when nothing precedes it.
			pending = b.Len() > 0
			i += size
			continue
		}
		if pending {
			b.WriteByte(' ')
			pending = false
		}
		b.WriteString(s[i : i+size])
		i += size
	}
	return b.String()
}

// isNormal reports whether s is already in normal form: no leading,
// trailing or doubled space and no other whitespace. ASCII bytes are
// checked directly; only non-ASCII runes are decoded.
func isNormal(s string) bool {
	prevSpace := true // a leading space is not normal
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if unicode.IsSpace(r) {
				return false
			}
			i += size - 1
			prevSpace = false
			continue
		}
		switch {
		case c > ' ':
			prevSpace = false
		case c == ' ':
			if prevSpace {
				return false
			}
			prevSpace = true
		case c >= '\t' && c <= '\r':
			return false
		default:
			prevSpace = false // other control bytes are not whitespace
		}
	}
	return !prevSpace || s == ""
}

func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix) {
		return s[len(prefix):], true
	}
	return s, false
}

func splitBinding(b string) (name, expr string, err error) {
	idx := strings.Index(b, " in ")
	if idx < 0 {
		return "", "", fmt.Errorf("twig: binding %q lacks ' in '", b)
	}
	name = strings.TrimSpace(b[:idx])
	expr = strings.TrimSpace(b[idx+len(" in "):])
	if !validName(name) {
		return "", "", fmt.Errorf("twig: bad variable name %q", name)
	}
	if expr == "" {
		return "", "", fmt.Errorf("twig: binding %q lacks a path", b)
	}
	return name, expr, nil
}

// validName reports whether name can name a variable: it is not empty and
// holds no slash, bracket or whitespace. Parse normalizes whitespace up
// front, but the guard still rejects any Unicode space on its own so
// direct callers cannot smuggle a tab/newline-containing name through.
func validName(name string) bool {
	for _, r := range name {
		if r == '/' || r == '[' || r == ']' || unicode.IsSpace(r) {
			return false
		}
	}
	return name != ""
}

// splitHead splits "t0/actor" into ("t0", "/actor") and "t0//b" into
// ("t0", "//b"), preserving the axis slashes so pathexpr.Parse sees them.
// For absolute paths it returns ("", expr) when the head cannot be a
// variable reference (leading slash or predicates) or (head, "") when there
// is no slash at all.
func splitHead(expr string) (head, rest string) {
	idx := strings.IndexByte(expr, '/')
	switch {
	case idx < 0:
		return expr, ""
	case idx == 0:
		return "", expr
	}
	// Only treat as a variable head if the segment has no predicates.
	seg := expr[:idx]
	if strings.IndexByte(seg, '[') >= 0 || strings.IndexByte(seg, ']') >= 0 {
		return "", expr
	}
	return seg, expr[idx:]
}
