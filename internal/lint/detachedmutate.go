package lint

import (
	"go/ast"
	"go/token"

	"xsketch/internal/lint/analysis"
)

// DetachedMutate flags calls to sketch mutation entry points that panic on
// detached sketches — RebuildNode, RebuildAll, AddValueDim, SetBuckets,
// SetValueBuckets, AddScopeEdge — in code reachable from catalog-served paths (the serve
// and catalog packages and the xserve binary, per the analyzer targets).
// Sketches loaded from a catalog are detached: they estimate perfectly
// well but carry no document extents, so the rebuild entry points reject
// them with a panic. In an HTTP handler or an admin reload path that
// panic is a request-killing 500 waiting for the first catalog-backed
// deployment. A call is accepted when it is dominated by a Detached()
// guard on the same receiver — an enclosing `if !sk.Detached()` branch, an
// `if sk.Detached()` else-branch, or a prior diverging
// `if sk.Detached() { return ... }` — and flagged otherwise.
var DetachedMutate = &analysis.Analyzer{
	Name: "detachedmutate",
	Doc:  "flags detached-panicking sketch mutations on catalog-served code paths",
	Run:  runDetachedMutate,
}

// detachedPanicking lists the xsketch.Sketch methods that panic when the
// receiver is detached (see sketch.go, valuedim.go).
var detachedPanicking = map[string]bool{
	"RebuildNode":     true,
	"RebuildAll":      true,
	"AddValueDim":     true,
	"SetBuckets":      true,
	"SetValueBuckets": true,
	"AddScopeEdge":    true,
}

func runDetachedMutate(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := typeFuncOf(pass, call)
			if fn == nil || !detachedPanicking[fn.Name()] {
				return
			}
			if methodOnNamed(pass, call, "xsketch", "Sketch", fn.Name()) == nil {
				return
			}
			sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			recv := rootIdent(sel.X)
			if recv == nil {
				return
			}
			if detachedGuardOnPath(pass, call, stack, recv.Name) {
				return
			}
			pass.Reportf(call.Pos(),
				"%s.%s panics on a detached (catalog-loaded) sketch; guard with %s.Detached() before mutating, or add //lint:allow detachedmutate",
				recv.Name, fn.Name(), recv.Name)
		})
	}
	return nil, nil
}

// detachedGuardOnPath walks the call's ancestor chain for a dominating
// Detached() guard on recvName, stopping at function boundaries.
func detachedGuardOnPath(pass *analysis.Pass, call ast.Node, stack []ast.Node, recvName string) bool {
	inner := call
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		case *ast.IfStmt:
			if inner == ast.Node(s.Body) && condImpliesAttached(pass, s.Cond, recvName) {
				return true
			}
			if s.Else != nil && inner == ast.Node(s.Else) && condImpliesDetached(pass, s.Cond, recvName) {
				return true
			}
		case *ast.BlockStmt:
			if priorDetachedGuard(pass, s.List, inner, recvName) {
				return true
			}
		case *ast.CaseClause:
			if priorDetachedGuard(pass, s.Body, inner, recvName) {
				return true
			}
		case *ast.CommClause:
			if priorDetachedGuard(pass, s.Body, inner, recvName) {
				return true
			}
		}
		inner = stack[i]
	}
	return false
}

// priorDetachedGuard scans the statements before inner for a diverging
// `if recv.Detached() { return/panic/... }` early-exit guard.
func priorDetachedGuard(pass *analysis.Pass, list []ast.Stmt, inner ast.Node, recvName string) bool {
	idx := -1
	for i, st := range list {
		if ast.Node(st) == inner {
			idx = i
			break
		}
	}
	for j := 0; j < idx; j++ {
		ifs, ok := list[j].(*ast.IfStmt)
		if !ok {
			continue
		}
		if condImpliesDetached(pass, ifs.Cond, recvName) && blockDiverges(ifs.Body) {
			return true
		}
	}
	return false
}

// condImpliesAttached reports whether cond being true implies the sketch
// is attached: `!recv.Detached()` or a conjunction containing it.
func condImpliesAttached(pass *analysis.Pass, cond ast.Expr, recvName string) bool {
	switch e := stripParens(cond).(type) {
	case *ast.UnaryExpr:
		return e.Op == token.NOT && isDetachedCall(pass, e.X, recvName)
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return condImpliesAttached(pass, e.X, recvName) || condImpliesAttached(pass, e.Y, recvName)
		}
	}
	return false
}

// condImpliesDetached reports whether cond being true implies the sketch
// is detached — and, dually, its falsity implies attached for || chains:
// `recv.Detached()` or a disjunction containing it.
func condImpliesDetached(pass *analysis.Pass, cond ast.Expr, recvName string) bool {
	switch e := stripParens(cond).(type) {
	case *ast.CallExpr:
		return isDetachedCall(pass, e, recvName)
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return condImpliesDetached(pass, e.X, recvName) || condImpliesDetached(pass, e.Y, recvName)
		}
	}
	return false
}

// isDetachedCall recognizes `recv.Detached()` (or `recv.Syn.Detached()`)
// where recv's root identifier is recvName.
func isDetachedCall(pass *analysis.Pass, e ast.Expr, recvName string) bool {
	call, ok := stripParens(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Detached" {
		return false
	}
	id := rootIdent(sel.X)
	return id != nil && id.Name == recvName
}
