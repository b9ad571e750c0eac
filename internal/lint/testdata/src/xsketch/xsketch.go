// Package xsketch is a fixture mirror of the real sketch API for the
// detachedmutate analyzer: the package and type names match the real
// internal/xsketch so the analyzer's type rule binds, and the listed
// mutators are the ones that panic on detached sketches.
package xsketch

// ScopeEdge mirrors the real scope-edge descriptor.
type ScopeEdge struct{ From, To int }

// Sketch mirrors the real sketch.
type Sketch struct{ detached bool }

// Detached reports whether the sketch was loaded from the stored form.
func (sk *Sketch) Detached() bool { return sk.detached }

// RebuildNode mirrors the real detached-panicking mutator.
func (sk *Sketch) RebuildNode(id int) {}

// RebuildAll mirrors the real detached-panicking mutator.
func (sk *Sketch) RebuildAll() {}

// SetBuckets mirrors the real detached-panicking mutator.
func (sk *Sketch) SetBuckets(id, n int) bool { return true }

// SetValueBuckets mirrors the real detached-panicking mutator.
func (sk *Sketch) SetValueBuckets(id, n int) bool { return true }

// AddValueDim mirrors the real detached-panicking mutator.
func (sk *Sketch) AddValueDim(a, b, n int) bool { return true }

// AddScopeEdge mirrors the real detached-panicking mutator.
func (sk *Sketch) AddScopeEdge(id int, e ScopeEdge) {}
