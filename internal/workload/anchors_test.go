package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"

	"xsketch/internal/xmltree"
)

// workloadHash is the sha256 of every query's text and truth, in order.
func workloadHash(w *Workload) string {
	h := sha256.New()
	for _, q := range w.Queries {
		h.Write([]byte(q.Twig.String()))
		h.Write([]byte{'\t'})
		h.Write(strconv.AppendInt(nil, q.Truth, 10))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnchoredWorkloadIgnoresAnchorOrder pins anchored generation: the
// workload depends on the set of anchors only, not on their order or on
// repeated entries, and matches fixed hashes so a change to how anchors
// are gathered cannot silently change the queries XBUILD scores.
func TestAnchoredWorkloadIgnoresAnchorOrder(t *testing.T) {
	d := testDoc()
	var anchors []xmltree.NodeID
	for i := 3; i < d.Len(); i += 7 {
		anchors = append(anchors, xmltree.NodeID(i))
	}
	shuffled := append([]xmltree.NodeID(nil), anchors...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	shuffled = append(shuffled, anchors[:len(anchors)/2]...)
	cases := []struct {
		kind Kind
		want string
	}{
		{KindPV, "94f05f35b3239e571c897e85936ee04cb69c4ef687fc75b5f62f43d7f248c510"},
		{KindNegative, "51c5f28fc174c22dd337546ff05c6d876c8597e5ff68d0b826ee7b8812bdb371"},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			cfg := smallCfg(tc.kind)
			cfg.NumQueries = 30
			cfg.MinNodes, cfg.MaxNodes = 2, 6
			cfg.Seed = 5
			cfg.Anchors = anchors
			sorted := workloadHash(Generate(d, cfg))
			cfg.Anchors = shuffled
			mixed := workloadHash(Generate(d, cfg))
			if sorted != tc.want {
				t.Errorf("sorted anchors: workload sha256 %s, want %s", sorted, tc.want)
			}
			if mixed != tc.want {
				t.Errorf("shuffled, duplicated anchors: workload sha256 %s, want %s", mixed, tc.want)
			}
		})
	}
}
