package twig

import (
	"strings"
	"testing"
)

// parseErrorSeeds are the texts TestParseErrors expects Parse to reject,
// and seeds of the differential fuzz.
var parseErrorSeeds = []string{
	"",
	"for ",
	"t0 in",
	"t0 a/b",
	"t0 in a, t1 in a/b",        // second binding must reference a variable
	"t0 in a, t0 in t0/b",       // duplicate variable
	"t0 in a, t1 in t0/",        // missing path after variable
	"t0 in a, t1 in tX/b",       // unknown variable
	"t0 in a[b, t1 in t0/c",     // unbalanced bracket
	"t0 in a]b",                 // unbalanced close  bracket
	"t 0 in a",                  // bad variable name
	"t0 in a, , t1 in t0/b",     // empty binding
	"t0 in a, t1 in t0/b[>bad]", // path error propagates
	"t0 in //a\xffb",            // invalid UTF-8 ends a label
	"t0 in 0[>0][=0]",           // empty value-predicate intersection
	"t0 in a, t1 in t0//a[>5][<3]",
}

// FuzzParse checks that the twig parser never panics; that it agrees with
// the split-based oracle parser on accept/reject, String() and the error
// text; that accepted queries round-trip through String, which renders the
// bytes of the fmt-based oracle; and that widening any space of the text
// changes neither the outcome nor the rendering.
func FuzzParse(f *testing.F) {
	for _, seed := range append([]string{
		"for t0 in //movie[/type=5], t1 in t0/actor, t2 in t0/producer",
		"t0 in a, t1 in t0/b, t2 in t1/c",
		"for t0 in author, t1 in t0/paper[year>2000], t2 in t1/keyword",
		"t0 in a",
		"t0 in a, t1 in t0//b",
		"for",
		"x in",
		"x in a, x in x/b",
		"t in a, u in t/b[c=1:2]",
		"t0 in //café",
		"t0 in //a\xffb",
		"t0  in //a\xffb",
	}, parseErrorSeeds...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		want, wantErr := oracleParse(src)
		if got, exp := outcome(q, err), outcome(want, wantErr); got != exp {
			t.Fatalf("Parse(%q) = %s, oracle %s", src, got, exp)
		}
		for i := 0; i < len(src); i++ {
			if src[i] != ' ' {
				continue
			}
			wide := src[:i] + " " + src[i:]
			qw, errw := Parse(wide)
			if got, exp := outcome(qw, errw), outcome(q, err); got != exp {
				t.Fatalf("Parse(%q) = %s, but Parse(%q) = %s", wide, got, src, exp)
			}
		}
		if err != nil {
			return
		}
		s := q.String()
		if want := FmtString(q); s != want {
			t.Fatalf("String %q != fmt oracle %q", s, want)
		}
		q2, err := Parse(s)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", src, s, err)
		}
		if q2.String() != s {
			t.Fatalf("rendering not a fixed point: %q -> %q", s, q2.String())
		}
		// Structural invariants on whatever was parsed.
		if q.NodeCount() < 1 {
			t.Fatalf("parsed query has %d nodes", q.NodeCount())
		}
	})
}

// outcome renders a parse result for comparison: the rendering of an
// accepted query, or the error text of a rejected one.
func outcome(q *Query, err error) string {
	if err != nil {
		return "error " + strings.TrimSpace(err.Error())
	}
	return "query " + q.String()
}
