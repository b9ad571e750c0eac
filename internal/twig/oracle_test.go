package twig

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"xsketch/internal/pathexpr"
)

// FmtString is the fmt-based renderer that Query.String replaced, kept as
// the oracle the appending renderers (Query.String, pathexpr's Path and
// ValuePred AppendTo) are checked against byte for byte. It is exported
// only to this package's external tests.
func FmtString(q *Query) string {
	var parts []string
	names := make(map[*Node]string)
	i := 0
	q.Walk(func(n, parent *Node, _ int) {
		name := fmt.Sprintf("t%d", i)
		names[n] = name
		i++
		if parent == nil {
			parts = append(parts, fmt.Sprintf("%s in %s", name, fmtPath(n.Path)))
		} else {
			ps := fmtPath(n.Path)
			sep := "/"
			if strings.HasPrefix(ps, "//") {
				sep = ""
			}
			parts = append(parts, fmt.Sprintf("%s in %s%s%s", name, names[parent], sep, ps))
		}
	})
	return "for " + strings.Join(parts, ", ")
}

// fmtPath is the fmt-based Path.String; a nil path renders as fmt renders
// a nil Stringer.
func fmtPath(p *pathexpr.Path) string {
	if p == nil {
		return "<nil>"
	}
	var b strings.Builder
	for i, s := range p.Steps {
		if i == 0 {
			if s.Axis == pathexpr.Descendant {
				b.WriteString("//")
			}
		} else {
			b.WriteString(s.Axis.String())
		}
		b.WriteString(s.Label)
		if s.Value != nil {
			fmt.Fprintf(&b, "[%s]", fmtValue(*s.Value))
		}
		for _, br := range s.Branches {
			fmt.Fprintf(&b, "[%s]", fmtPath(br))
		}
	}
	return b.String()
}

// fmtValue is the fmt-based ValuePred.String.
func fmtValue(v pathexpr.ValuePred) string {
	switch {
	case v.Lo == math.MinInt64 && v.Hi == math.MaxInt64:
		return ""
	case v.Lo == v.Hi:
		return fmt.Sprintf("=%d", v.Lo)
	case v.Lo == math.MinInt64:
		return fmt.Sprintf("<=%d", v.Hi)
	case v.Hi == math.MaxInt64:
		return fmt.Sprintf(">=%d", v.Lo)
	default:
		return fmt.Sprintf("=%d:%d", v.Lo, v.Hi)
	}
}

// oracleParse is the split-based parser that ParseNormalized replaced,
// kept as the oracle FuzzParse checks the in-place parser against: it
// splits the bindings into substrings, resolves variables through a map
// and parses every path with its own heap-allocated parser (oraclePath).
// It has the current parser's two fixes: its labels are decoded as UTF-8,
// and it normalizes with the current NormalizeText, which keeps
// non-whitespace bytes verbatim.
func oracleParse(src string) (*Query, error) {
	s := NormalizeText(src)
	if rest, ok := cutPrefixFold(s, "for "); ok {
		s = rest
	}
	if s == "" {
		return nil, fmt.Errorf("twig: empty query")
	}
	bindings, err := splitBindings(s)
	if err != nil {
		return nil, err
	}
	vars := make(map[string]*Node)
	var q *Query
	for i, b := range bindings {
		name, expr, err := splitBinding(b)
		if err != nil {
			return nil, err
		}
		if _, dup := vars[name]; dup {
			return nil, fmt.Errorf("twig: duplicate variable %q", name)
		}
		head, rest := splitHead(expr)
		if parent, ok := vars[head]; ok {
			if rest == "" {
				return nil, fmt.Errorf("twig: binding %q: missing path after variable %q", b, head)
			}
			p, err := oraclePath(rest)
			if err != nil {
				return nil, fmt.Errorf("twig: binding %q: %w", b, err)
			}
			n := &Node{Var: name, Path: p}
			parent.Children = append(parent.Children, n)
			vars[name] = n
			continue
		}
		if i != 0 {
			return nil, fmt.Errorf("twig: binding %q does not reference a previous variable", b)
		}
		p, err := oraclePath(expr)
		if err != nil {
			return nil, fmt.Errorf("twig: binding %q: %w", b, err)
		}
		root := &Node{Var: name, Path: p}
		q = &Query{Root: root}
		vars[name] = root
	}
	return q, nil
}

// splitBindings splits on commas that are not nested inside brackets.
func splitBindings(s string) ([]string, error) {
	var out []string
	depth := 0
	start := 0
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
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("twig: unbalanced '[' in %q", s)
	}
	out = append(out, strings.TrimSpace(s[start:]))
	for _, b := range out {
		if b == "" {
			return nil, fmt.Errorf("twig: empty binding in %q", s)
		}
	}
	return out, nil
}

// oraclePath is the path parser that pathexpr's slab parser replaced.
func oraclePath(src string) (*pathexpr.Path, error) {
	p := &oracleParser{src: src}
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errorf("unexpected %q", p.rest())
	}
	return path, nil
}

type oracleParser struct {
	src string
	pos int
}

func (p *oracleParser) eof() bool { return p.pos >= len(p.src) }

func (p *oracleParser) rest() string { return p.src[p.pos:] }

func (p *oracleParser) errorf(format string, args ...any) error {
	return fmt.Errorf("pathexpr: at offset %d of %q: %s", p.pos, p.src, fmt.Sprintf(format, args...))
}

func (p *oracleParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *oracleParser) accept(c byte) bool {
	if !p.eof() && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *oracleParser) parsePath() (*pathexpr.Path, error) {
	path := &pathexpr.Path{}
	axis := pathexpr.Child
	if p.accept('/') {
		if p.accept('/') {
			axis = pathexpr.Descendant
		}
	}
	for {
		step, err := p.parseStep(axis)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
		if !p.accept('/') {
			break
		}
		axis = pathexpr.Child
		if p.accept('/') {
			axis = pathexpr.Descendant
		}
	}
	return path, nil
}

func (p *oracleParser) parseStep(axis pathexpr.Axis) (*pathexpr.Step, error) {
	label := p.parseLabel()
	if label == "" {
		return nil, p.errorf("expected element label")
	}
	step := &pathexpr.Step{Axis: axis, Label: label}
	for p.accept('[') {
		if err := p.parseBracket(step); err != nil {
			return nil, err
		}
		if !p.accept(']') {
			return nil, p.errorf("expected ']'")
		}
	}
	return step, nil
}

func (p *oracleParser) parseLabel() string {
	start := p.pos
	for !p.eof() {
		c, size := utf8.DecodeRuneInString(p.src[p.pos:])
		if c == utf8.RuneError && size == 1 {
			break
		}
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' || c == '@' || c == '.' {
			p.pos += size
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *oracleParser) parseBracket(step *pathexpr.Step) error {
	c := p.peek()
	if c == '>' || c == '<' || c == '=' {
		v, err := p.parseComparison()
		if err != nil {
			return err
		}
		return p.restrict(step, v)
	}
	branch, err := p.parsePath()
	if err != nil {
		return err
	}
	if c := p.peek(); c == '>' || c == '<' || c == '=' {
		v, err := p.parseComparison()
		if err != nil {
			return err
		}
		if err := p.restrict(branch.Steps[len(branch.Steps)-1], v); err != nil {
			return err
		}
	}
	step.Branches = append(step.Branches, branch)
	return nil
}

func (p *oracleParser) parseComparison() (pathexpr.ValuePred, error) {
	switch {
	case p.accept('>'):
		eq := p.accept('=')
		n, err := p.parseInt()
		if err != nil {
			return pathexpr.ValuePred{}, err
		}
		if !eq {
			if n == math.MaxInt64 {
				return pathexpr.ValuePred{}, p.errorf("range overflow")
			}
			n++
		}
		return pathexpr.ValuePred{Lo: n, Hi: math.MaxInt64}, nil
	case p.accept('<'):
		eq := p.accept('=')
		n, err := p.parseInt()
		if err != nil {
			return pathexpr.ValuePred{}, err
		}
		if !eq {
			if n == math.MinInt64 {
				return pathexpr.ValuePred{}, p.errorf("range overflow")
			}
			n--
		}
		return pathexpr.ValuePred{Lo: math.MinInt64, Hi: n}, nil
	case p.accept('='):
		lo, err := p.parseInt()
		if err != nil {
			return pathexpr.ValuePred{}, err
		}
		if p.accept(':') {
			hi, err := p.parseInt()
			if err != nil {
				return pathexpr.ValuePred{}, err
			}
			if hi < lo {
				return pathexpr.ValuePred{}, p.errorf("empty range %d:%d", lo, hi)
			}
			return pathexpr.ValuePred{Lo: lo, Hi: hi}, nil
		}
		return pathexpr.ValuePred{Lo: lo, Hi: lo}, nil
	}
	return pathexpr.ValuePred{}, p.errorf("expected comparison operator")
}

func (p *oracleParser) parseInt() (int64, error) {
	start := p.pos
	p.accept('-')
	for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start || (p.src[start] == '-' && p.pos == start+1) {
		return 0, p.errorf("expected integer")
	}
	n, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return 0, p.errorf("bad integer %q: %v", p.src[start:p.pos], err)
	}
	return n, nil
}

// restrict intersects v into step's value predicate, rejecting an empty
// intersection like an empty =lo:hi range.
func (p *oracleParser) restrict(step *pathexpr.Step, v pathexpr.ValuePred) error {
	if step.Value != nil {
		if step.Value.Lo > v.Lo {
			v.Lo = step.Value.Lo
		}
		if step.Value.Hi < v.Hi {
			v.Hi = step.Value.Hi
		}
		if v.Hi < v.Lo {
			return p.errorf("empty range %d:%d", v.Lo, v.Hi)
		}
	}
	step.Value = &v
	return nil
}
