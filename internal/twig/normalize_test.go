package twig

import "testing"

// TestNormalizeText pins the whitespace normal form: interior runs of any
// Unicode whitespace collapse to one ASCII space, outer whitespace is
// dropped, and already-normal input comes back verbatim.
func TestNormalizeText(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"   ", ""},
		{"\t\n", ""},
		{"t0 in //a", "t0 in //a"},
		{"  t0 in //a  ", "t0 in //a"},
		{"t0\tin\t//a", "t0 in //a"},
		{"t0\nin\r\n//a", "t0 in //a"},
		{"t0   in   //a", "t0 in //a"},
		{"for\tt0 in //a", "for t0 in //a"},
		{"t0 in //a", "t0 in //a"}, // NBSP is Unicode space
		{"for t0 in //a, t1 in t0/b", "for t0 in //a, t1 in t0/b"},
		// Bytes that are not valid UTF-8 are kept as they are.
		{"t0  in //a\xffb", "t0 in //a\xffb"},
		{"\tt0 in //caf\xc3 ", "t0 in //caf\xc3"},
	}
	for _, c := range cases {
		if got := NormalizeText(c.in); got != c.want {
			t.Errorf("NormalizeText(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNormalizeTextNoAllocOnNormalInput asserts the zero-allocation
// contract for already-normal text, which the plan-cache key lookup relies
// on.
func TestNormalizeTextNoAllocOnNormalInput(t *testing.T) {
	in := "for t0 in //item, t1 in t0/name"
	allocs := testing.AllocsPerRun(100, func() {
		if out := NormalizeText(in); len(out) != len(in) {
			t.Fatal("normal input changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("NormalizeText allocates %v/op on normal input", allocs)
	}
}

// TestParseWhitespaceForms is the regression table for the parser
// whitespace bugs: a tab after the "for" keyword, tabs/newlines/multi-space
// runs around " in ", and whitespace-bearing variable names.
func TestParseWhitespaceForms(t *testing.T) {
	want := MustParse("for t0 in //a, t1 in t0/b").String()
	good := []string{
		"for\tt0 in //a, t1 in t0/b",
		"for t0\tin\t//a, t1 in t0/b",
		"for t0 in //a,\n\tt1 in t0/b",
		"  for   t0   in   //a ,  t1  in  t0/b  ",
		"FOR\tt0 in //a, t1 in t0/b",
		"t0 in //a, t1 in t0/b",
		"t0 in //a, t1 in t0/b",
	}
	for _, src := range good {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := q.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", src, got, want)
		}
	}

	bad := []string{
		"t0  in //a\xffb",     // invalid UTF-8, whatever the spacing
		"for t0 x in //a",     // space inside the variable name
		"for t0\tx in //a",    // tab inside the variable name
		"for t0\nx in //a",    // newline inside the variable name
		"for t0[ in //a",      // bracket in the variable name
		"for t0/b in //a",     // slash in the variable name
		"for",                 // keyword only
		"for\t",               // keyword and trailing whitespace only
		"for  t0  in",         // binding without a path
		"t0 in //a,, t1 in b", // empty binding survives normalization
	}
	for _, src := range bad {
		if q, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %q, want error", src, q.String())
		}
	}
}

// TestSplitBindingRejectsUnicodeSpaceNames exercises the guard directly
// (bypassing Parse's normalization) so a future refactor cannot reopen the
// hole where only ASCII space was rejected.
func TestSplitBindingRejectsUnicodeSpaceNames(t *testing.T) {
	for _, b := range []string{"t0\tx in //a", "t0\nx in //a", "t0 x in //a"} {
		if _, _, err := splitBinding(b); err == nil {
			t.Errorf("splitBinding(%q) accepted a whitespace-bearing name", b)
		}
	}
}
