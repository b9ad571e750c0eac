package lint

import (
	"go/ast"
	"go/types"

	"xsketch/internal/lint/analysis"
)

// CtxFlow checks that exported ...Context functions actually propagate
// their context. The estimator and serving layers expose context-aware
// entry points (EstimatePlanContext, EstimateBatchPlannedContext, the
// plan executor's EstimateContext) whose whole contract is cooperative
// cancellation: a request that drops its ctx — by calling
// context.Background()/TODO(), by passing some other context into a
// context-taking callee, or by never consulting ctx at all — keeps
// burning CPU after the client has gone away, which under load-shedding
// is exactly when the work is least affordable. Derivation through
// context.WithTimeout/WithCancel chains is recognized via the def-use
// layer, so `cctx, cancel := context.WithTimeout(ctx, d)` followed by
// calls on cctx is fine.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "exported ...Context functions must propagate ctx into context-taking calls",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if !isContextSuffixed(fd.Name.Name) {
				continue
			}
			ctxObj := contextParam(pass, fd)
			if ctxObj == nil {
				continue
			}
			checkCtxFunc(pass, fd, ctxObj)
		}
	}
	return nil, nil
}

// isContextSuffixed reports whether name follows the ...Context naming
// convention (and is not literally "Context", which would be an accessor).
func isContextSuffixed(name string) bool {
	const suffix = "Context"
	return len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix
}

// contextParam returns the object of fd's first parameter of type
// context.Context, or nil.
func contextParam(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Type.Params.List {
		if !isContextType(pass.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if obj := identObj(pass, name); obj != nil {
				return obj
			}
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named := namedTypeOf(t)
	return named != nil && named.Obj() != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

func checkCtxFunc(pass *analysis.Pass, fd *ast.FuncDecl, ctxObj types.Object) {
	d := collectDefUse(pass, fd.Body)
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && identObj(pass, id) == ctxObj {
			used = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isFreshContextCall(pass, call) {
			pass.Reportf(call.Pos(),
				"%s in exported %s drops the caller's ctx; derive child contexts from ctx instead, or add //lint:allow ctxflow",
				exprStr(call.Fun), fd.Name.Name)
			return true
		}
		checkCtxArgs(pass, d, fd, ctxObj, call)
		return true
	})
	if !used {
		pass.Reportf(fd.Name.Pos(),
			"exported %s never uses its ctx; propagate it into the blocking calls (or drop the Context suffix), or add //lint:allow ctxflow",
			fd.Name.Name)
	}
}

// isFreshContextCall reports calls to context.Background or context.TODO.
func isFreshContextCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := typeFuncOf(pass, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// checkCtxArgs flags context-typed arguments of call that do not derive
// from the function's own ctx parameter. Fresh-context arguments are
// skipped here — the Background/TODO call itself is already reported.
func checkCtxArgs(pass *analysis.Pass, d *defUse, fd *ast.FuncDecl, ctxObj types.Object, call *ast.CallExpr) {
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() && !sig.Variadic() {
			break
		}
		var pt types.Type
		if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil || !isContextType(pt) {
			continue
		}
		if containsFreshContextCall(pass, arg) {
			continue
		}
		if derivedFromCtx(pass, d, arg, ctxObj, 0) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"%s passes %s where the caller's ctx should flow; derive it from ctx, or add //lint:allow ctxflow",
			fd.Name.Name, exprStr(arg))
	}
}

func containsFreshContextCall(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isFreshContextCall(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// derivedFromCtx reports whether e's value derives from ctxObj: it is the
// parameter itself, an alias resolved through the def-use layer, or a call
// (context.WithTimeout, request wrappers) receiving a derived value as an
// argument.
func derivedFromCtx(pass *analysis.Pass, d *defUse, e ast.Expr, ctxObj types.Object, depth int) bool {
	if depth > maxOriginDepth {
		return false
	}
	for _, o := range d.origins(e) {
		switch x := o.(type) {
		case *ast.Ident:
			if identObj(pass, x) == ctxObj {
				return true
			}
		case *ast.CallExpr:
			for _, arg := range x.Args {
				if derivedFromCtx(pass, d, arg, ctxObj, depth+1) {
					return true
				}
			}
		}
	}
	return false
}
