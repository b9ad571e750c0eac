package pathexpr

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	p, err := Parse("author/paper/keyword")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Steps) != 3 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	labels := []string{"author", "paper", "keyword"}
	for i, s := range p.Steps {
		if s.Label != labels[i] || s.Axis != Child || s.Value != nil || len(s.Branches) != 0 {
			t.Fatalf("step %d = %+v", i, s)
		}
	}
	if !p.IsSimple() {
		t.Fatal("IsSimple = false")
	}
}

func TestParseLeadingSlash(t *testing.T) {
	p1 := MustParse("/a/b")
	p2 := MustParse("a/b")
	if p1.String() != p2.String() {
		t.Fatalf("leading slash changed path: %q vs %q", p1, p2)
	}
}

func TestParseDescendant(t *testing.T) {
	p, err := Parse("//movie/actor")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Steps[0].Axis != Descendant || p.Steps[1].Axis != Child {
		t.Fatalf("axes = %v %v", p.Steps[0].Axis, p.Steps[1].Axis)
	}
	if p.IsSimple() {
		t.Fatal("IsSimple = true for descendant path")
	}
	if !p.HasDescendant() {
		t.Fatal("HasDescendant = false")
	}

	p2 := MustParse("a//b")
	if p2.Steps[0].Axis != Child || p2.Steps[1].Axis != Descendant {
		t.Fatalf("axes = %v %v", p2.Steps[0].Axis, p2.Steps[1].Axis)
	}
}

func TestParseValuePredOnStep(t *testing.T) {
	cases := []struct {
		src    string
		lo, hi int64
	}{
		{"year[>2000]", 2001, math.MaxInt64},
		{"year[>=2000]", 2000, math.MaxInt64},
		{"year[<2000]", math.MinInt64, 1999},
		{"year[<=2000]", math.MinInt64, 2000},
		{"year[=2000]", 2000, 2000},
		{"year[=1990:1999]", 1990, 1999},
		{"year[=-5:-1]", -5, -1},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		v := p.Steps[0].Value
		if v == nil || v.Lo != c.lo || v.Hi != c.hi {
			t.Fatalf("Parse(%q) value = %+v, want [%d,%d]", c.src, v, c.lo, c.hi)
		}
	}
}

func TestParseBranch(t *testing.T) {
	p, err := Parse("paper[year>2000]/title")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	brs := p.Steps[0].Branches
	if len(brs) != 1 {
		t.Fatalf("branches = %d", len(brs))
	}
	br := brs[0]
	if len(br.Steps) != 1 || br.Steps[0].Label != "year" {
		t.Fatalf("branch = %+v", br)
	}
	v := br.Steps[0].Value
	if v == nil || v.Lo != 2001 || v.Hi != math.MaxInt64 {
		t.Fatalf("branch value = %+v", v)
	}
}

func TestParseBranchLeadingSlash(t *testing.T) {
	// The paper writes //movie[/type=5]; a leading slash inside a branch is
	// a relative child step.
	p, err := Parse("//movie[/type=5]")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	br := p.Steps[0].Branches[0]
	if br.Steps[0].Label != "type" || br.Steps[0].Value == nil || br.Steps[0].Value.Lo != 5 {
		t.Fatalf("branch = %+v", br.Steps[0])
	}
}

func TestParseMultipleBrackets(t *testing.T) {
	p, err := Parse("paper[>1990][keyword][author/name]/title")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s := p.Steps[0]
	if s.Value == nil || s.Value.Lo != 1991 {
		t.Fatalf("value = %+v", s.Value)
	}
	if len(s.Branches) != 2 {
		t.Fatalf("branches = %d", len(s.Branches))
	}
	if len(s.Branches[1].Steps) != 2 {
		t.Fatalf("second branch steps = %d", len(s.Branches[1].Steps))
	}
}

func TestParseNestedBranch(t *testing.T) {
	p, err := Parse("a[b[c>3]/d]/e")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	br := p.Steps[0].Branches[0]
	if len(br.Steps) != 2 || br.Steps[1].Label != "d" {
		t.Fatalf("branch = %v", br)
	}
	inner := br.Steps[0].Branches[0]
	if inner.Steps[0].Label != "c" || inner.Steps[0].Value == nil || inner.Steps[0].Value.Lo != 4 {
		t.Fatalf("inner branch = %+v", inner.Steps[0])
	}
}

func TestParseValuePredIntersection(t *testing.T) {
	p := MustParse("year[>1990][<2000]")
	v := p.Steps[0].Value
	if v.Lo != 1991 || v.Hi != 1999 {
		t.Fatalf("intersected value = %+v", v)
	}
	// An empty intersection would render as an empty =lo:hi range, which
	// Parse rejects, so it is rejected with the same error at the
	// predicate that empties it.
	for src, want := range map[string]string{
		"0[>0][=0]":   `pathexpr: at offset 8 of "0[>0][=0]": empty range 1:0`,
		"//a[>5][<3]": `pathexpr: at offset 10 of "//a[>5][<3]": empty range 6:2`,
		"a[b[>5]<3]":  `pathexpr: at offset 9 of "a[b[>5]<3]": empty range 6:2`,
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error = %v, want %s", src, err, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"/",
		"a/",
		"a[",
		"a[]",
		"a[>]",
		"a[>2000",
		"a[=5:1]",
		"a b",
		"a[>2000]]",
		"[b]",
		"a//",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{
		"author/paper/keyword",
		"//movie/actor",
		"a//b/c",
		"paper[year>2000]/title",
		"paper[=1990:1999][keyword]",
		"a[b[c=4]/d]/e",
		"item[quantity>=2][payment][shipping]/mailbox//mail",
	}
	for _, src := range cases {
		p := MustParse(src)
		p2 := MustParse(p.String())
		if p.String() != p2.String() {
			t.Errorf("round trip %q -> %q -> %q", src, p, p2)
		}
	}
}

func TestValuePredMatches(t *testing.T) {
	v := ValuePred{Lo: 10, Hi: 20}
	for _, x := range []int64{10, 15, 20} {
		if !v.Matches(x) {
			t.Errorf("Matches(%d) = false", x)
		}
	}
	for _, x := range []int64{9, 21, -5} {
		if v.Matches(x) {
			t.Errorf("Matches(%d) = true", x)
		}
	}
	if !AnyValue().Matches(math.MinInt64) || !AnyValue().Matches(math.MaxInt64) {
		t.Error("AnyValue does not match extremes")
	}
}

func TestClone(t *testing.T) {
	p := MustParse("paper[year>2000][keyword]/title[=3]")
	c := p.Clone()
	if c.String() != p.String() {
		t.Fatalf("clone = %q, want %q", c, p)
	}
	// Mutating the clone must not affect the original.
	c.Steps[0].Branches[0].Steps[0].Value.Lo = 1
	c.Steps[1].Value.Hi = 99
	c.Steps[0].Label = "x"
	if p.Steps[0].Branches[0].Steps[0].Value.Lo == 1 ||
		p.Steps[1].Value.Hi == 99 || p.Steps[0].Label == "x" {
		t.Fatal("clone aliases original")
	}
	if (*Path)(nil).Clone() != nil {
		t.Fatal("nil clone not nil")
	}
}

func TestCountValuePreds(t *testing.T) {
	p := MustParse("a[>1][b[=2]/c]/d[e<5]")
	if got := p.CountValuePreds(); got != 3 {
		t.Fatalf("CountValuePreds = %d, want 3", got)
	}
}

func TestNewSimple(t *testing.T) {
	p := NewSimple("a", "b", "c")
	if p.String() != "a/b/c" {
		t.Fatalf("NewSimple = %q", p)
	}
}

// genPath builds a random valid path for the round-trip property test.
func genPath(rng *rand.Rand, depth int) *Path {
	labels := []string{"a", "b", "c", "dd", "e_1"}
	n := rng.Intn(3) + 1
	p := &Path{}
	for i := 0; i < n; i++ {
		s := &Step{Axis: Child, Label: labels[rng.Intn(len(labels))]}
		if rng.Intn(3) == 0 {
			s.Axis = Descendant
		}
		if rng.Intn(3) == 0 {
			lo := int64(rng.Intn(100))
			hi := lo + int64(rng.Intn(50))
			s.Value = &ValuePred{Lo: lo, Hi: hi}
		}
		if depth > 0 && rng.Intn(3) == 0 {
			s.Branches = append(s.Branches, genPath(rng, depth-1))
		}
		p.Steps = append(p.Steps, s)
	}
	return p
}

func TestParseStringInverse(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := genPath(rng, 2)
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Logf("Parse(%q): %v", s, err)
			return false
		}
		return p2.String() == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrorMentionsOffset(t *testing.T) {
	_, err := Parse("a[>x]")
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("err = %v", err)
	}
}

// TestParseLabelUTF8 pins label decoding: non-ASCII letters are label
// runes, decoded as UTF-8, and a byte that is not valid UTF-8 ends the
// label (it used to be read as a Latin-1 rune, splitting multi-byte
// letters and admitting 0xFF as "ÿ").
func TestParseLabelUTF8(t *testing.T) {
	for src, label := range map[string]string{
		"//café":  "café",
		"über/a":  "über",
		"名前[>=2]": "名前",
		"a-b.c_d": "a-b.c_d",
	} {
		p, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := p.Steps[0].Label; got != label {
			t.Errorf("Parse(%q) label = %q, want %q", src, got, label)
		}
		if p.String() != src {
			t.Errorf("Parse(%q).String() = %q", src, p.String())
		}
	}
	for src, want := range map[string]string{
		"//a\xffb":  `pathexpr: at offset 3 of "//a\xffb": unexpected "\xffb"`,
		"//caf\xc3": `pathexpr: at offset 5 of "//caf\xc3": unexpected "\xc3"`,
		"\xe9t\xe9": `pathexpr: at offset 0 of "\xe9t\xe9": expected element label`,
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error = %v, want %s", src, err, want)
		}
	}
}
