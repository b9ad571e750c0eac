package twig

import (
	"fmt"
	"math"
	"strings"

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
