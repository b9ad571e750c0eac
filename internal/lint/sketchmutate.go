package lint

import (
	"go/ast"
	"go/types"

	"xsketch/internal/lint/analysis"
)

// SketchMutate flags writes to Sketch and NodeSummary state — and to
// histogram internals from outside the histogram package — that happen
// outside the approved mutator set. PR 2 introduced an atomic-pointer
// estimator cache that RebuildNode/RebuildAll invalidate; a field write that
// bypasses that funnel leaves the cache serving estimates for a synopsis
// that no longer exists. Clones also share summaries, so a write to a
// summary the writer did not first copy (ownSummary) leaks into every
// clone. The approved mutators are the constructors and the rebuild funnel
// in package xsketch, plus the two refinement-application helpers in
// package build (which finish by calling RebuildNode).
var SketchMutate = &analysis.Analyzer{
	Name: "sketchmutate",
	Doc:  "flags Sketch/NodeSummary/histogram state writes outside the approved mutator set",
	Run:  runSketchMutate,
}

// approvedMutators lists, per package name, the functions allowed to write
// sketch state directly. Everything else must go through these.
var approvedMutators = map[string]map[string]bool{
	"xsketch": {
		"New":                 true,
		"FromSynopsis":        true,
		"Clone":               true,
		"Load":                true,
		"RebuildAll":          true,
		"RebuildNode":         true,
		"rebuildHistograms":   true,
		"rebuildValueSummary": true,
		"ownSummary":          true,
		"SetValueBuckets":     true,
		"AddValueDim":         true,
		"SetBuckets":          true,
		"AddScopeEdge":        true,
	},
	"build": {
		"apply":          true,
		"inheritSummary": true,
	},
}

func runSketchMutate(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					checkSketchWrite(pass, l, n, stack)
				}
			case *ast.IncDecStmt:
				checkSketchWrite(pass, n.X, n, stack)
			case *ast.CallExpr:
				if isBuiltinCall(pass, n, "delete") && len(n.Args) == 2 {
					checkSketchWrite(pass, n.Args[0], n, stack)
				}
			}
		})
	}
	return nil, nil
}

func checkSketchWrite(pass *analysis.Pass, lvalue ast.Expr, at ast.Node, stack []ast.Node) {
	field, owner := protectedField(pass, lvalue)
	if field == "" {
		return
	}
	fn := enclosingFuncName(stack)
	if approvedMutators[pass.Pkg.Name()][fn] {
		return
	}
	where := fn
	if where == "" {
		where = "package scope"
	}
	pass.Reportf(lvalue.Pos(),
		"write to %s.%s outside approved mutators (in %s): mutate through RebuildNode/refinement ops so the estimator cache is invalidated, or add //lint:allow sketchmutate",
		owner, field, where)
}

// protectedField walks an lvalue's selector chain and returns the written
// field name and owning type when the write targets protected state:
// a field of xsketch.Sketch or xsketch.NodeSummary anywhere, or a field of
// any histogram-package type from outside package histogram.
func protectedField(pass *analysis.Pass, e ast.Expr) (field, owner string) {
	for {
		switch x := stripParens(e).(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if named := namedTypeOf(pass.TypeOf(x.X)); named != nil {
				if name, prot := protectedNamed(pass, named); prot {
					return x.Sel.Name, name
				}
			}
			e = x.X
		default:
			return "", ""
		}
	}
}

// namedTypeOf unwraps pointers down to a named type, or nil.
func namedTypeOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// protectedNamed reports whether the named type's state is protected from
// the current package. Matching is by package *name* rather than full import
// path so analysistest fixtures declaring `package xsketch` exercise the
// same rule as the real packages.
func protectedNamed(pass *analysis.Pass, named *types.Named) (string, bool) {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch obj.Pkg().Name() {
	case "xsketch":
		if obj.Name() == "Sketch" || obj.Name() == "NodeSummary" {
			return obj.Name(), true
		}
	case "histogram":
		if pass.Pkg.Name() != "histogram" && obj.Exported() {
			return obj.Name(), true
		}
	}
	return "", false
}
