package twig

import "testing"

// FuzzParse checks that the twig parser never panics, that accepted
// queries round-trip through String, and that String renders the bytes of
// the fmt-based oracle.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"for t0 in //movie[/type=5], t1 in t0/actor, t2 in t0/producer",
		"t0 in a, t1 in t0/b, t2 in t1/c",
		"for t0 in author, t1 in t0/paper[year>2000], t2 in t1/keyword",
		"t0 in a",
		"t0 in a, t1 in t0//b",
		"",
		"for",
		"x in",
		"x in a, x in x/b",
		"t0 in a[b, t1 in t0/c",
		"t in a, u in t/b[c=1:2]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
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
