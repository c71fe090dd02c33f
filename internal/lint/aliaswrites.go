package lint

import (
	"go/ast"
	"go/types"
)

// aliasWrites is sharedmut's per-function alias dataflow. A source is an
// expression yielding a value that aliases state the function does not own:
// a *Shared accessor call. Pass 1 is a fixed point over assignments: a
// variable is tainted when assigned a source or any selector/index/slice
// path rooted at a tainted variable; a multi-value assignment from one source call taints
// every left-hand identifier, conservatively. Pass 2 reports each write
// through a source or a tainted path — index, field and element-field
// assignment, delete, append, sort.*/slices.* on it, and ++/-- of an
// element — unless the line carries //lint:sharedwrite <reason>.
func aliasWrites(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	isSource := func(e ast.Expr) bool { return isSharedCall(info, e) }
	report := func(at ast.Node, what string) {
		if !pass.Escaped(at.Pos(), "sharedwrite") {
			pass.Reportf(at.Pos(),
				"%s through zero-clone Shared view: mutates live automaton state aliased by other frontier entries — write to a clone or annotate //lint:sharedwrite <reason>", what)
		}
	}
	tainted := make(map[types.Object]bool)
	lhsObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	// rootIdent unwraps selector/index/slice paths to their root identifier.
	var rootIdent func(e ast.Expr) *ast.Ident
	rootIdent = func(e ast.Expr) *ast.Ident {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			return rootIdent(x.X)
		case *ast.IndexExpr:
			return rootIdent(x.X)
		case *ast.SliceExpr:
			return rootIdent(x.X)
		}
		return nil
	}
	taintedPath := func(e ast.Expr) bool {
		if isSource(e) {
			return true
		}
		if id := rootIdent(e); id != nil {
			return tainted[info.Uses[id]]
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr) {
				if obj := lhsObj(lhs); obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			if len(as.Lhs) != len(as.Rhs) {
				// v, ok := a.HeadShared(g): one call, many results.
				if len(as.Rhs) == 1 && isSource(as.Rhs[0]) {
					for _, lhs := range as.Lhs {
						mark(lhs)
					}
				}
				return true
			}
			for i, lhs := range as.Lhs {
				if taintedPath(as.Rhs[i]) {
					mark(lhs)
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr:
					if taintedPath(l.X) {
						report(l, "index write")
					}
				case *ast.SelectorExpr:
					// v[i].Field = x hides the index inside the selector.
					if idx, ok := ast.Unparen(l.X).(*ast.IndexExpr); ok && taintedPath(idx.X) {
						report(l, "element field write")
					} else if taintedPath(l.X) {
						report(l, "field write")
					}
				}
			}
		case *ast.CallExpr:
			if len(n.Args) == 0 || !taintedPath(n.Args[0]) {
				return true
			}
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				// append may write the backing array in place when capacity allows.
				if fun.Name == "delete" || fun.Name == "append" {
					report(n, fun.Name)
				}
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok {
					if pn, ok := info.Uses[id].(*types.PkgName); ok {
						if p := pn.Imported().Path(); p == "sort" || p == "slices" {
							report(n, "in-place sort")
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && taintedPath(idx.X) {
				report(n, "increment")
			}
		}
		return true
	})
}
