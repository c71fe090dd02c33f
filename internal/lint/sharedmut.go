package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Sharedmut returns the sharedmut analyzer. Methods whose name ends in
// "Shared" are this repository's zero-clone accessors: they return interior
// maps/slices of an automaton's state without copying, so invariant checkers
// and environments can read them allocation-free. Writing through such a
// view corrupts the live state that every sibling frontier entry aliases.
// The analyzer reports every write aliasWrites finds, per function body,
// through a *Shared call result or a variable derived from one: index and
// field assignment, delete, append (may write the shared backing array in
// place when capacity allows) and sort.*/slices.* (reorder it).
// Deliberate writes carry //lint:sharedwrite <reason>.
func Sharedmut() *Analyzer {
	a := &Analyzer{
		Name: "sharedmut",
		Doc:  "results of zero-clone *Shared accessors must not be written through (escape: //lint:sharedwrite)",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					aliasWrites(pass, fd)
				}
			}
		}
	}
	return a
}

// isSharedCall reports whether e is a call to a method named *Shared.
func isSharedCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := callee(info, call)
	if obj == nil {
		return false
	}
	name := obj.Name()
	return strings.HasSuffix(name, "Shared") && name != "Shared"
}
