package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// CorestepConfig scopes the corestep analyzer to a repository's protocol
// cores: the packages under CorePkgPrefix own the automaton state, and the
// rest of the tree may touch it only through the macro-step seam.
type CorestepConfig struct {
	// CorePkgPrefix is the import-path prefix of the pure protocol cores.
	// Packages under it are exempt: they ARE the automata.
	CorePkgPrefix string
	// StateTypes maps each qualified core state type ("path.Name", pointer
	// stripped) to its sanctioned method roster: constructors aside, these
	// are the only selectors the rest of the tree may use on that type.
	// Everything else — transitions, enabling predicates, queue heads — is
	// the automaton's own business and must be driven through Step.
	StateTypes map[string][]string
	// AliasAccessors names sanctioned methods (on any state type) whose
	// results alias interior core state without copying. Values derived
	// from them are tracked per function; writing through such a value is
	// reported even though the accessor call itself is sanctioned.
	AliasAccessors []string
	// FilterIfaces lists qualified interface names ("path.Name") that
	// protocol filters implement. A named type outside CorePkgPrefix
	// implementing one is reported: new filters belong under the protocol
	// tree, as extracted pure cores, or they dodge every core analyzer.
	FilterIfaces []string
}

// DefaultCorestepConfig returns the corestep configuration for this
// repository: the dvscore/tocore/staticcore state types with their
// read-only accessor rosters, the two Info accessors as alias sources, and
// the dvscore.Filter seam.
func DefaultCorestepConfig() CorestepConfig {
	return CorestepConfig{
		CorePkgPrefix: "repro/internal/protocol/",
		StateTypes: map[string][]string{
			"repro/internal/protocol/dvscore.Node": {
				"P", "Cur", "ClientCur", "Act", "Amb", "Use",
				"Attempted", "AttemptedShared", "HasAttempted", "Reg",
				"InfoSent", "InfoRcvd",
				"MsgsToVS", "MsgsFromVS", "SafeFromVS",
				"MsgsToVSShared", "MsgsFromVSLen", "SafeFromVSLen",
				"RegisteredIDs", "Clone", "AddFingerprint", "Permute",
			},
			// The shell seam: consumers holding a Filter may only observe
			// the client-facing projection the paper's DVS interface
			// exports; every transition goes through Step.
			"repro/internal/protocol/dvscore.Filter": {
				"ClientCur", "Amb",
			},
			"repro/internal/protocol/tocore.Node": {
				"P", "Current", "Status", "HighPrimary", "Established",
				"Order", "GotState", "NextReport", "NextConfirm", "Summary",
				"Clone", "AddFingerprint", "DelayLen", "SelfLabeledCount",
				"ConfirmedShared", "Permute",
			},
			"repro/internal/protocol/staticcore.Node": {
				"P", "ClientCur", "Amb", "Quorum",
			},
			"repro/internal/protocol/mcastcore.Node": {
				"P", "Groups", "Clock", "PendingCount",
				"Delivered", "DeliveredCount",
				"Clone", "AddFingerprint",
			},
		},
		AliasAccessors: []string{"InfoSent", "InfoRcvd"},
		FilterIfaces:   []string{"repro/internal/protocol/dvscore.Filter"},
	}
}

// Corestep returns the corestep analyzer: no package outside the protocol
// cores may read or write core state except through Step, the Outbox, and
// the sanctioned accessor rosters. Three rules:
//
//   - any selection of an unsanctioned method on a core state type (call,
//     method value, or method expression) is reported — these are the
//     fine-grained transitions only Step may compose;
//   - values obtained from alias accessors (InfoSent/InfoRcvd return
//     interior views/slices without copying) are tracked per function by
//     aliasWrites, as sharedmut's are, and writes through them are reported;
//   - a named type outside the core tree implementing a filter interface
//     is reported: protocol filters must be extracted as pure cores.
//
// The checker compositions in internal/core and internal/toimpl drive the
// fine-grained IOA actions by design; their sites carry audited
// //lint:corestep escapes (DESIGN.md §6.9).
func Corestep(cfg CorestepConfig) *Analyzer {
	sanctioned := make(map[string]map[string]bool, len(cfg.StateTypes))
	for tname, roster := range cfg.StateTypes {
		m := make(map[string]bool, len(roster))
		for _, name := range roster {
			m[name] = true
		}
		sanctioned[tname] = m
	}
	a := &Analyzer{
		Name: "corestep",
		Doc:  "core state is touched only via Step/Outbox/sanctioned accessors (escape: //lint:corestep)",
	}
	a.Run = func(pass *Pass) {
		if strings.HasPrefix(pass.Path, cfg.CorePkgPrefix) {
			return
		}
		checkFilterImpls(pass, cfg)
		for _, f := range pass.Files {
			checkStateSelections(pass, cfg, sanctioned, f)
		}
		// Rule 2: writes through values aliasing interior core state.
		isSource := func(e ast.Expr) bool { return isAliasCall(pass.Info, cfg, sanctioned, e) }
		report := func(at ast.Node, what string) {
			if !pass.Escaped(at.Pos(), "corestep") {
				pass.Reportf(at.Pos(),
					"%s through a value aliasing interior core state (alias accessor result): mutates the automaton behind Step's back — clone first or annotate //lint:corestep <reason>", what)
			}
		}
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					aliasWrites(pass, fd, isSource, report)
				}
			}
		}
	}
	return a
}

// stateTypeName returns the qualified name of t's pointer-stripped named
// type ("path.Name"), or "" if t is not named.
func stateTypeName(t types.Type) string {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// checkStateSelections is rule 1: every selector whose receiver is a
// configured state type must name a sanctioned method.
func checkStateSelections(pass *Pass, cfg CorestepConfig, sanctioned map[string]map[string]bool, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.Info.Selections[sel]
		if !ok {
			return true // qualified identifier, not a selection
		}
		fn, ok := s.Obj().(*types.Func)
		if !ok {
			return true // field selections can't cross the package boundary: core fields are unexported
		}
		recv := stateTypeName(s.Recv())
		roster, isState := sanctioned[recv]
		if !isState || roster[fn.Name()] {
			return true
		}
		if pass.Escaped(sel.Pos(), "corestep") {
			return true
		}
		pass.Reportf(sel.Pos(),
			"%s.%s is a core transition, not a sanctioned accessor: drive the automaton through Step and consume the Outbox, or annotate //lint:corestep <reason>",
			recv, fn.Name())
		return true
	})
}

// isAliasCall reports whether e is a call of a configured alias accessor
// on a state type: the source of corestep's rule 2.
func isAliasCall(info *types.Info, cfg CorestepConfig, sanctioned map[string]map[string]bool, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || !slices.Contains(cfg.AliasAccessors, fn.Name()) {
		return false
	}
	_, isState := sanctioned[stateTypeName(s.Recv())]
	return isState
}

// checkFilterImpls is rule 3: named non-core types implementing a filter
// interface.
func checkFilterImpls(pass *Pass, cfg CorestepConfig) {
	var ifaces []*types.Interface
	var inames []string
	for _, qname := range cfg.FilterIfaces {
		if it, name := lookupInterface(pass.Pkg, qname); it != nil {
			ifaces = append(ifaces, it)
			inames = append(inames, name)
		}
	}
	if len(ifaces) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() { // aliases denote the original type
					continue
				}
				obj, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				t := obj.Type()
				if types.IsInterface(t) {
					continue
				}
				for i, it := range ifaces {
					if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
						continue
					}
					if pass.Escaped(ts.Pos(), "corestep") {
						continue
					}
					pass.Reportf(ts.Pos(),
						"%s implements %s outside %s: protocol filters must be extracted as pure cores under the protocol tree (see internal/protocol/staticcore), or annotate //lint:corestep <reason>",
						obj.Name(), inames[i], strings.TrimSuffix(cfg.CorePkgPrefix, "/"))
				}
			}
		}
	}
}

// lookupInterface resolves a qualified interface name ("path.Name") through
// the package's transitive imports. Returns nil when the package cannot
// even see the interface's package — then nothing in it can be checked
// against the seam, and nothing needs to be.
func lookupInterface(pkg *types.Package, qname string) (*types.Interface, string) {
	i := strings.LastIndex(qname, ".")
	if i < 0 {
		return nil, ""
	}
	path, name := qname[:i], qname[i+1:]
	dep := findImport(pkg, path, make(map[string]bool))
	if dep == nil {
		return nil, ""
	}
	obj, ok := dep.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil, ""
	}
	it, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil, ""
	}
	return it, name
}

// findImport walks the transitive imports of pkg for the given path.
func findImport(pkg *types.Package, path string, seen map[string]bool) *types.Package {
	if pkg.Path() == path {
		return pkg
	}
	if seen[pkg.Path()] {
		return nil
	}
	seen[pkg.Path()] = true
	for _, dep := range pkg.Imports() {
		if found := findImport(dep, path, seen); found != nil {
			return found
		}
	}
	return nil
}
