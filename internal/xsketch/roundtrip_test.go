package xsketch_test

import (
	"bytes"
	"math"
	"testing"

	"xsketch/internal/catalog"
	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
	"xsketch/internal/xsketch"
)

// TestSaveLoadPreservesBuiltSketch checks that a sketch built with a
// non-default edge bucket budget survives a round trip through the catalog
// codec, the only serialized form of a sketch, with bit-identical estimates.
func TestSaveLoadPreservesBuiltSketch(t *testing.T) {
	d := xmltree.MotivatingSkewed()
	cfg := xsketch.DefaultConfig()
	cfg.InitialEdgeBuckets = 4
	sk := xsketch.New(d, cfg)
	var buf bytes.Buffer
	if err := catalog.Encode(&buf, sk); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	loaded, _, err := catalog.Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded Validate: %v", err)
	}
	if loaded.SizeBytes() != sk.SizeBytes() {
		t.Fatalf("size %d -> %d after round trip", sk.SizeBytes(), loaded.SizeBytes())
	}
	q := twig.MustParse("t0 in a, t1 in t0/b, t2 in t0/c")
	if a, b := sk.EstimateQuery(q), loaded.EstimateQuery(q); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("estimates differ: %v vs %v", a, b)
	}
}
