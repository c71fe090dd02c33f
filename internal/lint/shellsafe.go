package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShellsafeConfig scopes the shellsafe analyzer: which functions are the
// macro-step seam, which types are core state, and where the cores live.
type ShellsafeConfig struct {
	// CorePkgPrefix exempts the pure cores themselves (they contain no
	// goroutines or channels by construction — modelpure enforces that).
	CorePkgPrefix string
	// StepFuncs lists the fully qualified names of the macro-step entry
	// points, as (*types.Func).FullName() renders package functions:
	// "path.Func". Calling one from inside a goroutine launched by a shell
	// breaks run-to-completion.
	StepFuncs []string
	// StateTypes lists qualified core state types ("path.Name"). A
	// goroutine literal whose body mentions a value of such a type (or of a
	// shell struct directly embedding one) captures core state into a
	// concurrent context.
	StateTypes []string
}

// DefaultShellsafeConfig returns the shellsafe configuration for this
// repository: the three Step entry points, and the four core node types
// together with the Filter seam.
func DefaultShellsafeConfig() ShellsafeConfig {
	return ShellsafeConfig{
		CorePkgPrefix: "repro/internal/protocol/",
		StepFuncs: []string{
			"repro/internal/protocol/dvscore.Step",
			"repro/internal/protocol/tocore.Step",
			"repro/internal/protocol/mcastcore.Step",
		},
		StateTypes: []string{
			"repro/internal/protocol/dvscore.Node",
			"repro/internal/protocol/dvscore.Filter",
			"repro/internal/protocol/dvscore.StaticNode",
			"repro/internal/protocol/tocore.Node",
			"repro/internal/protocol/mcastcore.Node",
		},
	}
}

// Shellsafe returns the shellsafe analyzer, which enforces the
// run-to-completion discipline around the macro-step seam:
//
//   - no goroutine may call a Step function: macro-steps are serialized on
//     the shell's event loop, and a concurrent Step races the automaton;
//   - no goroutine literal may capture core state (a value whose type is a
//     configured state type, or a shell struct directly containing one):
//     even read-only concurrent access observes half-applied macro-steps;
//   - in a package that calls Step, every channel send must sit in a select
//     with an escape hatch (a default clause or a receive case): a bare
//     blocking send on the event loop wedges the macro-step pump.
//
// Escape: //lint:shellsafe <reason>.
func Shellsafe(cfg ShellsafeConfig) *Analyzer {
	stepFuncs := make(map[string]bool, len(cfg.StepFuncs))
	for _, name := range cfg.StepFuncs {
		stepFuncs[name] = true
	}
	stateTypes := make(map[string]bool, len(cfg.StateTypes))
	for _, name := range cfg.StateTypes {
		stateTypes[name] = true
	}

	a := &Analyzer{
		Name: "shellsafe",
		Doc:  "run-to-completion around Step: no Step or core state in goroutines, no blocking sends on the loop (escape: //lint:shellsafe)",
	}
	a.Run = func(pass *Pass) {
		if strings.HasPrefix(pass.Path, cfg.CorePkgPrefix) {
			return
		}
		decls := funcDecls(pass.Package)
		callsStep := false
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						checkGoStmt(pass, g, stepFuncs, stateTypes, decls)
						return false // the goroutine's own body is handled there
					}
					if call, ok := n.(*ast.CallExpr); ok && isStepCall(pass, call, stepFuncs) {
						callsStep = true
					}
					return true
				})
			}
		}
		if callsStep {
			checkBlockingSends(pass)
		}
	}
	return a
}

// isStepCall reports whether call invokes one of the configured macro-step
// entry points.
func isStepCall(pass *Pass, call *ast.CallExpr, stepFuncs map[string]bool) bool {
	fn, ok := callee(pass.Info, call).(*types.Func)
	return ok && stepFuncs[fn.FullName()]
}

// touchesState reports whether t is a configured core state type, or a
// named struct directly containing one (one level deep: the shell layer
// structs hold their core in a field).
func touchesState(t types.Type, stateTypes map[string]bool) bool {
	if stateTypes[stateTypeName(t)] {
		return true
	}
	u := types.Unalias(t)
	if ptr, ok := u.(*types.Pointer); ok {
		u = types.Unalias(ptr.Elem())
	}
	st, ok := u.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if stateTypes[stateTypeName(st.Field(i).Type())] {
			return true
		}
	}
	return false
}

// checkGoStmt walks the body launched by one go statement — the literal's
// body, or the static callee's declaration and everything reachable from it
// — for Step calls and core state captures. At most one report per go
// statement: the fix is the same either way (move the work onto the loop).
func checkGoStmt(pass *Pass, g *ast.GoStmt, stepFuncs, stateTypes map[string]bool, decls map[types.Object]*ast.FuncDecl) {
	var bodies []*ast.BlockStmt
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		bodies = append(bodies, lit.Body)
	} else if fn := callee(pass.Info, g.Call); fn != nil {
		for obj := range reachable(pass.Package, decls, []types.Object{fn}) {
			if fd := decls[obj]; fd != nil && fd.Body != nil {
				bodies = append(bodies, fd.Body)
			}
		}
	}
	// The arguments of the go call itself also escape to the goroutine.
	for _, arg := range g.Call.Args {
		if tv, ok := pass.Info.Types[arg]; ok && touchesState(tv.Type, stateTypes) {
			if !pass.Escaped(g.Pos(), "shellsafe") {
				pass.Reportf(g.Pos(),
					"goroutine receives core state (%s): macro-steps are only atomic on the event loop — pass a clone or annotate //lint:shellsafe <reason>",
					stateDesc(tv.Type, stateTypes))
			}
			return
		}
	}
	for _, body := range bodies {
		var done bool
		ast.Inspect(body, func(n ast.Node) bool {
			if done {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && isStepCall(pass, call, stepFuncs) {
				if !pass.Escaped(g.Pos(), "shellsafe") {
					pass.Reportf(g.Pos(),
						"goroutine calls a core Step function: macro-steps must be serialized on the run-to-completion loop — dispatch onto the loop or annotate //lint:shellsafe <reason>")
				}
				done = true
				return false
			}
			if e, ok := n.(ast.Expr); ok {
				if tv, ok := pass.Info.Types[e]; ok && touchesState(tv.Type, stateTypes) {
					if !pass.Escaped(g.Pos(), "shellsafe") {
						pass.Reportf(g.Pos(),
							"goroutine captures core state (%s): macro-steps are only atomic on the event loop — pass a clone or annotate //lint:shellsafe <reason>",
							stateDesc(tv.Type, stateTypes))
					}
					done = true
					return false
				}
			}
			return true
		})
		if done {
			return
		}
	}
}

// stateDesc names the core state type t touches, for the report message.
func stateDesc(t types.Type, stateTypes map[string]bool) string {
	if name := stateTypeName(t); stateTypes[name] {
		return name
	}
	u := types.Unalias(t)
	if ptr, ok := u.(*types.Pointer); ok {
		u = types.Unalias(ptr.Elem())
	}
	if st, ok := u.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if name := stateTypeName(st.Field(i).Type()); stateTypes[name] {
				return "struct holding " + name
			}
		}
	}
	return t.String()
}

// checkBlockingSends flags channel sends outside a guarded select in a
// package that drives a core: a bare send can block the event loop holding
// the macro-step, wedging the whole node.
func checkBlockingSends(pass *Pass) {
	for _, f := range pass.Files {
		// guarded holds sends that are select comm clauses with an escape
		// hatch: a default clause or at least one receive case to fall
		// through to.
		guarded := make(map[*ast.SendStmt]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			hasEscape := false
			for _, clause := range sel.Body.List {
				cc := clause.(*ast.CommClause)
				if cc.Comm == nil { // default:
					hasEscape = true
				} else if _, isSend := cc.Comm.(*ast.SendStmt); !isSend {
					hasEscape = true // receive case
				}
			}
			if !hasEscape {
				return true
			}
			for _, clause := range sel.Body.List {
				if send, ok := clause.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
					guarded[send] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			send, ok := n.(*ast.SendStmt)
			if !ok || guarded[send] {
				return true
			}
			if pass.Escaped(send.Pos(), "shellsafe") {
				return true
			}
			pass.Reportf(send.Pos(),
				"blocking channel send in a package that drives a core Step loop: a full channel wedges the macro-step pump — use a select with default/receive or annotate //lint:shellsafe <reason>")
			return true
		})
	}
}
