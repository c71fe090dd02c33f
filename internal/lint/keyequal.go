package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// renderMethods are the methods that produce a canonical rendering of a
// protocol value: the message key, the String form, and the unexported
// key() helpers the cores used to build on top of them.
var renderMethods = map[string]bool{"MsgKey": true, "String": true, "key": true}

// Keyequal returns the keyequal analyzer: inside a protocol core or a
// specification automaton — a package whose import path contains one of
// the segments — an == or != whose operands are both calls of MsgKey(),
// String() or a method named key is reported. A rendering is for traces,
// error text and the fingerprint fallback. As an equality test it formats
// and allocates both sides on every head check, and it is not injective,
// because payloads may contain the delimiters the renderings join with; the
// cores and the specs they are checked against compare with EqualMsg/Equal.
// There is no escape directive: nothing in scope needs to compare two
// renderings.
func Keyequal(segments ...string) *Analyzer {
	a := &Analyzer{
		Name: "keyequal",
		Doc:  "protocol cores and specs compare messages with EqualMsg/Equal, never by rendered key (no escape)",
	}
	a.Run = func(pass *Pass) {
		if !slices.ContainsFunc(segments, func(seg string) bool { return strings.Contains(pass.Path+"/", seg) }) {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				cmp, ok := n.(*ast.BinaryExpr)
				if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
					return true
				}
				x, y := renderCall(pass, cmp.X), renderCall(pass, cmp.Y)
				if x != "" && y != "" {
					pass.Reportf(cmp.OpPos,
						"%s() %s %s(): equality by rendering allocates both sides and is not injective — compare with EqualMsg/Equal", x, cmp.Op, y)
				}
				return true
			})
		}
	}
	return a
}

// renderCall returns the method name when e is a call of a rendering
// method, "" otherwise.
func renderCall(pass *Pass, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !renderMethods[sel.Sel.Name] {
		return ""
	}
	if s := pass.Info.Selections[sel]; s == nil || s.Kind() != types.MethodVal {
		return ""
	}
	return sel.Sel.Name
}
