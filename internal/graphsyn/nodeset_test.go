package graphsyn

import "testing"

func TestNodeSet(t *testing.T) {
	var a, b NodeSet
	if a.Has(0) || a.Meets(b) {
		t.Fatal("empty sets hold or share an ID")
	}
	a.Add(3)
	a.Add(130)
	b.Add(64)
	if !a.Has(3) || !a.Has(130) || a.Has(64) || a.Has(-1) || a.Has(1000) {
		t.Fatalf("membership wrong: %b", a)
	}
	if a.Meets(b) || b.Meets(a) {
		t.Fatal("disjoint sets meet")
	}
	b.Add(130)
	if !a.Meets(b) || !b.Meets(a) {
		t.Fatal("sets sharing 130 do not meet")
	}
}
