package pathexpr

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Parse parses the concrete path syntax described in the package comment.
func Parse(src string) (*Path, error) {
	var sl Slab
	sl.Reserve(TallyText(src), 1)
	return sl.Parse(src)
}

// MustParse is Parse but panics on error; intended for tests and constants.
func MustParse(src string) *Path {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Slab hands out the Paths, Steps, ValuePreds and pointer lists of parsed
// paths from a few shared arrays, sized by Reserve from a Tally of the
// text to be parsed, so one parse costs a handful of allocations
// rather than several per step. When a reservation runs short the slab
// takes a fresh array; elements already handed out stay valid. The parsed
// paths own the arrays: a slab is not reused, and is not safe for
// concurrent use.
type Slab struct {
	paths    []Path
	steps    []Step
	values   []ValuePred
	stepPtrs []*Step
	branches []*Path
}

// Tally counts what parsing a text takes from a slab.
type Tally struct {
	branches, steps, values int
}

// TallyText counts what parsing s takes from a slab. The counts are exact
// for well-formed text whose first root path starts with a label and whose
// other roots start with a slash, and one step over otherwise.
func TallyText(s string) Tally {
	var t Tally
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !counted[c] {
			continue // the bulk of a text: label, number and space bytes
		}
		next := byte(0)
		if i+1 < len(s) {
			next = s[i+1]
		}
		switch c {
		case '/', '[':
			if !isDelim(next) {
				t.steps++ // a label starts after a separator or bracket
			}
			if c == '[' && next != '=' && next != '<' && next != '>' && next != ']' {
				t.branches++ // a branch predicate
			}
		case '<', '>', '=':
			if next != '=' || c == '=' {
				t.values++ // a comparison; "<=" and ">=" count once
			}
		}
	}
	return t
}

// counted marks the bytes TallyText counts at.
var counted = [256]bool{'/': true, '[': true, '<': true, '>': true, '=': true}

// Reserve sizes the slab for parsing a text holding roots top-level path
// expressions, tallied by t.
func (sl *Slab) Reserve(t Tally, roots int) {
	sl.paths = make([]Path, 0, roots+t.branches)
	sl.steps = make([]Step, 0, t.steps+1)
	sl.stepPtrs = make([]*Step, 0, t.steps+1)
	if t.values > 0 {
		sl.values = make([]ValuePred, 0, t.values)
	}
	if t.branches > 0 {
		sl.branches = make([]*Path, 0, t.branches)
	}
}

// isDelim reports whether c cannot start a step label.
func isDelim(c byte) bool {
	switch c {
	case '/', '[', ']', '=', '<', '>', ':', ',', ' ':
		return true
	}
	return false
}

// Parse parses src like the package-level Parse, taking the result's
// memory from the slab.
func (sl *Slab) Parse(src string) (*Path, error) {
	// The parser works on a copy of the slab's slices, which keeps the
	// slab itself off the heap.
	p := &parser{src: src, sl: *sl}
	path, err := p.parsePath()
	*sl = p.sl
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errorf("unexpected %q", p.rest())
	}
	return path, nil
}

// take returns a pointer to a fresh element of *chunk, replacing the chunk
// with a larger one when it is full.
func take[T any](chunk *[]T) *T {
	if len(*chunk) == cap(*chunk) {
		*chunk = make([]T, 0, max(2*cap(*chunk), 4))
	}
	*chunk = (*chunk)[:len(*chunk)+1]
	return &(*chunk)[len(*chunk)-1]
}

// copyInto returns a copy of elems in fresh memory from *chunk, replacing
// the chunk with a larger one when it lacks room.
func copyInto[T any](chunk *[]T, elems []T) []T {
	c := *chunk
	if cap(c)-len(c) < len(elems) {
		c = make([]T, 0, max(2*cap(c), len(elems)))
	}
	out := append(c[len(c):len(c):len(c)+len(elems)], elems...)
	*chunk = c[:len(c)+len(elems)]
	return out
}

type parser struct {
	src string
	pos int
	sl  Slab
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) rest() string { return p.src[p.pos:] }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("pathexpr: at offset %d of %q: %s", p.pos, p.src, fmt.Sprintf(format, args...))
}

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) accept(c byte) bool {
	if !p.eof() && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// parsePath parses a (possibly relative) path: [/ | //] step (/ | // step)*
// The steps are gathered on the stack and copied into the slab at the
// end, since nested branch paths take slab memory in between.
func (p *parser) parsePath() (*Path, error) {
	var buf [8]*Step
	steps := buf[:0]
	axis := Child
	if p.accept('/') {
		if p.accept('/') {
			axis = Descendant
		}
	}
	for {
		step, err := p.parseStep(axis)
		if err != nil {
			return nil, err
		}
		steps = append(steps, step)
		if !p.accept('/') {
			break
		}
		axis = Child
		if p.accept('/') {
			axis = Descendant
		}
	}
	path := take(&p.sl.paths)
	path.Steps = copyInto(&p.sl.stepPtrs, steps)
	return path, nil
}

func (p *parser) parseStep(axis Axis) (*Step, error) {
	label := p.parseLabel()
	if label == "" {
		return nil, p.errorf("expected element label")
	}
	step := take(&p.sl.steps)
	step.Axis, step.Label = axis, label
	var buf [4]*Path
	branches := buf[:0]
	for p.accept('[') {
		br, err := p.parseBracket(step)
		if err != nil {
			return nil, err
		}
		if br != nil {
			branches = append(branches, br)
		}
		if !p.accept(']') {
			return nil, p.errorf("expected ']'")
		}
	}
	if len(branches) > 0 {
		step.Branches = copyInto(&p.sl.branches, branches)
	}
	return step, nil
}

// parseLabel consumes the longest run of label runes: letters, digits and
// "_-@.", decoded as UTF-8. An invalid UTF-8 byte ends the label.
func (p *parser) parseLabel() string {
	src, i := p.src, p.pos
	for i < len(src) {
		if c := src[i]; c < utf8.RuneSelf {
			if !labelASCII[c] {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[i:])
		if r == utf8.RuneError && size == 1 || !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		i += size
	}
	label := src[p.pos:i]
	p.pos = i
	return label
}

// labelASCII marks the ASCII label runes.
var labelASCII = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		r := rune(c)
		t[c] = unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '@' || r == '.'
	}
	return t
}()

// parseBracket parses the content of one [...] predicate onto step,
// returning the branch path it holds, or nil for a value predicate.
func (p *parser) parseBracket(step *Step) (*Path, error) {
	c := p.peek()
	if c == '>' || c == '<' || c == '=' {
		// Value predicate on the step's own element.
		v, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		return nil, p.restrict(step, v)
	}
	// Branching predicate: a relative path, possibly with a trailing
	// comparison applied to the final step.
	branch, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if c := p.peek(); c == '>' || c == '<' || c == '=' {
		v, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		if err := p.restrict(branch.Steps[len(branch.Steps)-1], v); err != nil {
			return nil, err
		}
	}
	return branch, nil
}

// restrict applies value predicate v to step, intersecting it with the
// step's existing predicate. An empty intersection is rejected like an
// empty =lo:hi range: it would render as exactly such a range, which
// Parse refuses.
func (p *parser) restrict(step *Step, v ValuePred) error {
	if step.Value == nil {
		step.Value = take(&p.sl.values)
		*step.Value = v
		return nil
	}
	v.Lo, v.Hi = max(v.Lo, step.Value.Lo), min(v.Hi, step.Value.Hi)
	if v.Hi < v.Lo {
		return p.errorf("empty range %d:%d", v.Lo, v.Hi)
	}
	*step.Value = v
	return nil
}

// parseComparison parses >N, >=N, <N, <=N, =N or =N:M (inclusive range).
func (p *parser) parseComparison() (ValuePred, error) {
	switch {
	case p.accept('>'):
		eq := p.accept('=')
		n, err := p.parseInt()
		if err != nil {
			return ValuePred{}, err
		}
		if !eq {
			if n == math.MaxInt64 {
				return ValuePred{}, p.errorf("range overflow")
			}
			n++
		}
		return ValuePred{Lo: n, Hi: math.MaxInt64}, nil
	case p.accept('<'):
		eq := p.accept('=')
		n, err := p.parseInt()
		if err != nil {
			return ValuePred{}, err
		}
		if !eq {
			if n == math.MinInt64 {
				return ValuePred{}, p.errorf("range overflow")
			}
			n--
		}
		return ValuePred{Lo: math.MinInt64, Hi: n}, nil
	case p.accept('='):
		lo, err := p.parseInt()
		if err != nil {
			return ValuePred{}, err
		}
		if p.accept(':') {
			hi, err := p.parseInt()
			if err != nil {
				return ValuePred{}, err
			}
			if hi < lo {
				return ValuePred{}, p.errorf("empty range %d:%d", lo, hi)
			}
			return ValuePred{Lo: lo, Hi: hi}, nil
		}
		return ValuePred{Lo: lo, Hi: lo}, nil
	}
	return ValuePred{}, p.errorf("expected comparison operator")
}

func (p *parser) parseInt() (int64, error) {
	start := p.pos
	if p.accept('-') {
	}
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
