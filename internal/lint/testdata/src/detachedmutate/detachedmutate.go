// Package detachedmutate exercises the detachedmutate analyzer: calls to
// detached-panicking sketch mutators are flagged unless dominated by a
// Detached() guard on the same receiver.
package detachedmutate

import "xsketch"

func unguarded(sk *xsketch.Sketch) {
	sk.RebuildAll()          // want "sk.RebuildAll panics on a detached"
	sk.RebuildNode(1)        // want "sk.RebuildNode panics on a detached"
	sk.SetBuckets(1, 8)      // want "sk.SetBuckets panics on a detached"
	sk.SetValueBuckets(1, 8) // want "sk.SetValueBuckets panics on a detached"
	sk.AddValueDim(1, 2, 4)  // want "sk.AddValueDim panics on a detached"
}

func guardedBranch(sk *xsketch.Sketch) {
	if !sk.Detached() {
		sk.RebuildAll()
	}
}

func guardedEarlyReturn(sk *xsketch.Sketch) {
	if sk.Detached() {
		return
	}
	sk.RebuildNode(1)
}

func guardedElse(sk *xsketch.Sketch) {
	if sk.Detached() {
		return
	} else {
		sk.RebuildAll()
	}
}

func guardedConjunction(sk *xsketch.Sketch, force bool) {
	if force && !sk.Detached() {
		sk.RebuildAll()
	}
}

func guardedDisjunctReturn(sk *xsketch.Sketch) {
	if sk == nil || sk.Detached() {
		return
	}
	sk.AddScopeEdge(1, xsketch.ScopeEdge{From: 1, To: 2})
}

func wrongReceiver(a, b *xsketch.Sketch) {
	if a.Detached() {
		return
	}
	b.RebuildAll() // want "b.RebuildAll panics on a detached"
}

func guardOutsideClosure(sk *xsketch.Sketch) {
	if sk.Detached() {
		return
	}
	f := func() {
		// The closure may run long after the guard; the boundary resets
		// the analysis, matching divguard's closure rule.
		sk.RebuildAll() // want "sk.RebuildAll panics on a detached"
	}
	f()
}

func suppressed(sk *xsketch.Sketch) {
	//lint:allow detachedmutate startup-only path, sketches here are always attached
	sk.RebuildAll()
}
