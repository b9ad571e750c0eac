package pathexpr

import (
	"math"
	"strconv"
)

// Axis selects how a step navigates from its context element.
type Axis int

const (
	// Child matches children of the context element ("/").
	Child Axis = iota
	// Descendant matches descendants at any depth ("//").
	Descendant
)

// String renders the axis in XPath notation ("/" or "//").
func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// ValuePred is an inclusive integer range predicate [Lo, Hi] over an
// element's value. Open ends use math.MinInt64 / math.MaxInt64. An element
// without a value never satisfies a ValuePred.
type ValuePred struct {
	Lo, Hi int64
}

// Any returns a predicate matching every valued element.
func AnyValue() ValuePred { return ValuePred{math.MinInt64, math.MaxInt64} }

// Matches reports whether a value satisfies the predicate.
func (v ValuePred) Matches(x int64) bool { return x >= v.Lo && x <= v.Hi }

// String renders the predicate in parseable form.
func (v ValuePred) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends the predicate's parseable form (String) to b and
// returns the extended buffer.
func (v ValuePred) AppendTo(b []byte) []byte {
	switch {
	case v.Lo == math.MinInt64 && v.Hi == math.MaxInt64:
		return b
	case v.Lo == v.Hi:
		return strconv.AppendInt(append(b, '='), v.Lo, 10)
	case v.Lo == math.MinInt64:
		return strconv.AppendInt(append(b, "<="...), v.Hi, 10)
	case v.Hi == math.MaxInt64:
		return strconv.AppendInt(append(b, ">="...), v.Lo, 10)
	default:
		b = strconv.AppendInt(append(b, '='), v.Lo, 10)
		return strconv.AppendInt(append(b, ':'), v.Hi, 10)
	}
}

// Step is one navigational step of a path expression.
type Step struct {
	Axis  Axis
	Label string
	// Value, when non-nil, restricts the value of the element reached by
	// this step (the σi of the paper).
	Value *ValuePred
	// Branches are branching predicates: each requires at least one match
	// of the nested relative path starting at the element reached by this
	// step (the [l̄i{σ̄i}] of the paper).
	Branches []*Path
}

// Path is a sequence of steps. The first step's axis is interpreted relative
// to the evaluation context (the document root for twig root paths, the
// parent twig node's elements otherwise).
type Path struct {
	Steps []*Step
}

// String renders the path in parseable concrete syntax.
func (p *Path) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the path's parseable concrete syntax (String) to b and
// returns the extended buffer.
func (p *Path) AppendTo(b []byte) []byte {
	for i, s := range p.Steps {
		if i == 0 {
			if s.Axis == Descendant {
				b = append(b, "//"...)
			}
		} else if s.Axis == Descendant {
			b = append(b, "//"...)
		} else {
			b = append(b, '/')
		}
		b = append(b, s.Label...)
		if s.Value != nil {
			b = append(s.Value.AppendTo(append(b, '[')), ']')
		}
		for _, br := range s.Branches {
			b = append(br.AppendTo(append(b, '[')), ']')
		}
	}
	return b
}

// Clone returns a deep copy of the path.
func (p *Path) Clone() *Path {
	if p == nil {
		return nil
	}
	out := &Path{Steps: make([]*Step, len(p.Steps))}
	for i, s := range p.Steps {
		ns := &Step{Axis: s.Axis, Label: s.Label}
		if s.Value != nil {
			v := *s.Value
			ns.Value = &v
		}
		for _, br := range s.Branches {
			ns.Branches = append(ns.Branches, br.Clone())
		}
		out.Steps[i] = ns
	}
	return out
}

// IsSimple reports whether the path uses only the child axis and carries no
// value or branching predicates (the paper's "simple path expressions").
func (p *Path) IsSimple() bool {
	for _, s := range p.Steps {
		if s.Axis == Descendant || s.Value != nil || len(s.Branches) > 0 {
			return false
		}
	}
	return true
}

// HasDescendant reports whether any step (including branch steps) uses the
// descendant axis.
func (p *Path) HasDescendant() bool {
	for _, s := range p.Steps {
		if s.Axis == Descendant {
			return true
		}
		for _, br := range s.Branches {
			if br.HasDescendant() {
				return true
			}
		}
	}
	return false
}

// CountValuePreds returns the number of value predicates in the path,
// including those nested in branching predicates.
func (p *Path) CountValuePreds() int {
	n := 0
	for _, s := range p.Steps {
		if s.Value != nil {
			n++
		}
		for _, br := range s.Branches {
			n += br.CountValuePreds()
		}
	}
	return n
}

// NewSimple builds a child-axis path from a sequence of labels.
func NewSimple(labels ...string) *Path {
	p := &Path{}
	for _, l := range labels {
		p.Steps = append(p.Steps, &Step{Axis: Child, Label: l})
	}
	return p
}
