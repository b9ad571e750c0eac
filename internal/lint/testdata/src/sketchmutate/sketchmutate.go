// Fixture for the sketchmutate analyzer. The package is named xsketch so
// the fixture types match the protected-type rule exactly like the real
// internal/xsketch package does.
package xsketch

import "histogram"

// NodeSummary mirrors the real per-node summary state.
type NodeSummary struct {
	Buckets      int
	ValueBuckets int
	Scope        []int
}

// Sketch mirrors the real sketch: summaries keyed by node.
type Sketch struct {
	Summaries map[int]*NodeSummary
	total     int
}

// New is an approved constructor: initialization writes are fine.
func New() *Sketch {
	sk := &Sketch{}
	sk.Summaries = map[int]*NodeSummary{}
	sk.total = 1
	return sk
}

// RebuildNode is the approved mutation funnel.
func (sk *Sketch) RebuildNode(id int) {
	s := &NodeSummary{}
	s.Buckets = 4
	sk.Summaries[id] = s
}

// SetBuckets is approved: it rebuilds after the write.
func (sk *Sketch) SetBuckets(id, n int) {
	sk.Summaries[id].Buckets = n
	sk.RebuildNode(id)
}

// ownSummary is approved: it installs a private copy for the caller to
// write, so clones sharing the old summary never see the write.
func (sk *Sketch) ownSummary(id int) *NodeSummary {
	c := *sk.Summaries[id]
	sk.Summaries[id] = &c
	return &c
}

// SetValueBuckets is approved: it writes its own copy, then rebuilds the
// value summary.
func (sk *Sketch) SetValueBuckets(id, n int) {
	s := sk.ownSummary(id)
	s.ValueBuckets = n
	sk.rebuildValueSummary(s)
}

// rebuildValueSummary is the approved value-summary half of the rebuild
// funnel.
func (sk *Sketch) rebuildValueSummary(s *NodeSummary) {
	s.ValueBuckets++
}

// writeShared writes a summary it did not copy: a clone sharing it would
// see the write.
func (sk *Sketch) writeShared(id int) {
	sk.Summaries[id].ValueBuckets = 2 // want "write to NodeSummary.ValueBuckets outside approved mutators"
}

// Tweak bypasses the funnel from an unapproved function.
func Tweak(sk *Sketch) {
	sk.Summaries[0].Buckets = 8 // want "write to NodeSummary.Buckets outside approved mutators"
	sk.total++                  // want "write to Sketch.total outside approved mutators"
	delete(sk.Summaries, 0)     // want "write to Sketch.Summaries outside approved mutators"
}

func appendScope(s *NodeSummary) {
	s.Scope = append(s.Scope, 1) // want "write to NodeSummary.Scope outside approved mutators"
}

func touchHistogram(h *histogram.Value) {
	h.Total = 1 // want "write to Value.Total outside approved mutators"
}

func callHistogram(h *histogram.Value) {
	h.Bump() // ok: mutation through the owning package's API
}

type scratch struct{ n int }

func localState() int {
	var s scratch
	s.n = 3 // ok: not sketch state
	return s.n
}

func suppressedWrite(sk *Sketch) {
	//lint:allow sketchmutate fixture demonstrates an accepted exception
	sk.total = 9
}
