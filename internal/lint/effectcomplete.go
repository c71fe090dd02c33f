package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// EffectcompleteConfig scopes the effectcomplete analyzer: the closed
// event/effect unions of the protocol cores, and the shell packages that
// must consume them exhaustively.
type EffectcompleteConfig struct {
	// Unions lists the qualified names ("path.Name") of the closed sum
	// types: sealed interfaces whose variants all live in the defining
	// package. Every type switch over one of them, anywhere in the tree,
	// must handle every variant explicitly — a default case does not count,
	// because it is exactly what silently swallows a newly added Effect.
	Unions []string
	// Require maps a package import path to the unions it must consume: at
	// least one complete type switch over each listed union must appear in
	// the package. This catches the deletion failure mode — a shell that
	// stops switching over Effects entirely would otherwise go quiet.
	Require map[string][]string
	// RequireFuncs maps a package import path to functions in it (named as
	// (*types.Func).FullName renders them: "path.Func", "(*path.T).Method")
	// and the unions each must cover: one switch in the function's body
	// whose non-default clauses between them name every variant, either as
	// a case type (a type switch over the union: an encoder) or as a
	// composite literal in the clause body (a switch over a wire tag that
	// constructs the variant: a decoder). Require is satisfied by any one
	// complete switch in the package, which would let one half of a codec
	// go partial behind the other; this pins each half by name, and a
	// listed function that is missing is itself a finding.
	RequireFuncs map[string]map[string][]string
}

// DefaultEffectcompleteConfig returns the effectcomplete configuration for
// this repository: the six core unions, required in the shells and in the
// conformance recorder/replayer, with both halves of the trace codec pinned
// function by function.
func DefaultEffectcompleteConfig() EffectcompleteConfig {
	const (
		dvsEvent  = "repro/internal/protocol/dvscore.Event"
		dvsEffect = "repro/internal/protocol/dvscore.Effect"
		toEvent   = "repro/internal/protocol/tocore.Event"
		toEffect  = "repro/internal/protocol/tocore.Effect"
		mcEvent   = "repro/internal/protocol/mcastcore.Event"
		mcEffect  = "repro/internal/protocol/mcastcore.Effect"
	)
	return EffectcompleteConfig{
		Unions: []string{dvsEvent, dvsEffect, toEvent, toEffect, mcEvent, mcEffect},
		Require: map[string][]string{
			// dvsg consumes the DVS core's effects; tob the TO core's; the
			// multicast coordinator the mcast core's.
			"repro/internal/dvsg":  {dvsEffect},
			"repro/internal/tob":   {toEffect},
			"repro/internal/mcast": {mcEffect},
			// The conformance layer encodes, decodes and renders all six
			// unions.
			"repro/internal/conform": {dvsEvent, dvsEffect, toEvent, toEffect, mcEvent, mcEffect},
		},
		RequireFuncs: map[string]map[string][]string{
			// The stream trace codec (conform/wire.go): a variant the
			// encoder cannot tag ends the trace, one the decoder cannot
			// construct makes every trace holding it unreadable.
			"repro/internal/conform": {
				"repro/internal/conform.appendDVSEvent":    {dvsEvent},
				"repro/internal/conform.appendDVSEffect":   {dvsEffect},
				"repro/internal/conform.appendTOEvent":     {toEvent},
				"repro/internal/conform.appendTOEffect":    {toEffect},
				"repro/internal/conform.appendMcastEvent":  {mcEvent},
				"repro/internal/conform.appendMcastEffect": {mcEffect},
				"repro/internal/conform.readDVSEvent":      {dvsEvent},
				"repro/internal/conform.readDVSEffect":     {dvsEffect},
				"repro/internal/conform.readTOEvent":       {toEvent},
				"repro/internal/conform.readTOEffect":      {toEffect},
				"repro/internal/conform.readMcastEvent":    {mcEvent},
				"repro/internal/conform.readMcastEffect":   {mcEffect},
			},
		},
	}
}

// Effectcomplete returns the effectcomplete analyzer: every type switch
// over a configured core union must name every variant of the union in its
// case clauses. Variants are enumerated from the union's defining package
// (every exported non-interface type in scope that implements the union),
// so adding a new Effect there immediately flags every consuming switch in
// the tree. A `default:` clause does not satisfy the check — silently
// dropping an unknown Effect is the failure mode this analyzer exists to
// prevent. Escape: //lint:effectcomplete <reason>.
func Effectcomplete(cfg EffectcompleteConfig) *Analyzer {
	a := &Analyzer{
		Name: "effectcomplete",
		Doc:  "type switches over core event/effect unions handle every variant (escape: //lint:effectcomplete)",
	}
	a.Run = func(pass *Pass) {
		// Resolve the unions visible from this package, with their variant
		// sets. Unions whose package this package does not import cannot be
		// switched over here, so skipping them is sound.
		type union struct {
			qname    string
			iface    *types.Interface
			variants map[string]bool // variant type name -> still missing
		}
		var unions []union
		for _, qname := range cfg.Unions {
			it := lookupInterface(pass.Pkg, qname)
			if it == nil {
				continue
			}
			unions = append(unions, union{qname: qname, iface: it, variants: unionVariants(pass.Pkg, qname, it)})
		}
		if len(unions) == 0 {
			return
		}

		// complete[qname] = true once this package contains at least one
		// exhaustive switch over the union (for the Require rule).
		complete := make(map[string]bool)

		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSwitchStmt)
				if !ok {
					return true
				}
				tag := typeSwitchTag(pass, ts)
				if tag == nil {
					return true
				}
				tname := stateTypeName(tag)
				for _, u := range unions {
					if tname != u.qname {
						continue
					}
					missing := coverClauses(pass, ts.Body.List, u.variants, false)
					if len(missing) == 0 {
						complete[u.qname] = true
						continue
					}
					if pass.Escaped(ts.Pos(), "effectcomplete") {
						continue
					}
					pass.Reportf(ts.Pos(),
						"type switch over %s does not handle %s: a shell that drops effects desynchronizes from the core — handle them or annotate //lint:effectcomplete <reason>",
						u.qname, strings.Join(missing, ", "))
				}
				return true
			})
		}

		for _, qname := range cfg.Require[pass.Path] {
			if complete[qname] {
				continue
			}
			pos := pass.Files[0].Package
			if pass.Escaped(pos, "effectcomplete") {
				continue
			}
			pass.Reportf(pos,
				"package %s must contain a complete type switch over %s (it consumes the union) but has none",
				pass.Path, qname)
		}

		required := cfg.RequireFuncs[pass.Path]
		if len(required) == 0 {
			return
		}
		byName := make(map[string]*ast.FuncDecl)
		for obj, fd := range funcDecls(pass.Package) {
			if fn, ok := obj.(*types.Func); ok && fd.Body != nil {
				byName[fn.FullName()] = fd
			}
		}
		fnames := make([]string, 0, len(required))
		for fname := range required {
			fnames = append(fnames, fname)
		}
		sort.Strings(fnames)
		for _, fname := range fnames {
			fd := byName[fname]
			if fd == nil {
				if pos := pass.Files[0].Package; !pass.Escaped(pos, "effectcomplete") {
					pass.Reportf(pos, "function %s is required to cover %s but is not declared",
						fname, strings.Join(required[fname], ", "))
				}
				continue
			}
			for _, u := range unions {
				if !slices.Contains(required[fname], u.qname) || pass.Escaped(fd.Pos(), "effectcomplete") {
					continue
				}
				if missing := bestSwitchCover(pass, fd.Body, u.variants); len(missing) > 0 {
					pass.Reportf(fd.Pos(),
						"%s must name every variant of %s in the clauses of one switch (as a case type or a composite literal; default: does not count), but none names %s",
						fname, u.qname, strings.Join(missing, ", "))
				}
			}
		}
	}
	return a
}

// bestSwitchCover returns the variants left unnamed by whichever switch in
// body (type switch or expression switch) names the most.
func bestSwitchCover(pass *Pass, body *ast.BlockStmt, variants map[string]bool) []string {
	best := coverClauses(pass, nil, variants, false)
	ast.Inspect(body, func(n ast.Node) bool {
		var clauses []ast.Stmt
		switch s := n.(type) {
		case *ast.TypeSwitchStmt:
			clauses = s.Body.List
		case *ast.SwitchStmt:
			clauses = s.Body.List
		default:
			return true
		}
		if missing := coverClauses(pass, clauses, variants, true); len(missing) < len(best) {
			best = missing
		}
		return true
	})
	return best
}

// unionVariants enumerates the variants of a sealed union: the named
// non-interface types declared in the union's own package whose value or
// pointer form implements it.
func unionVariants(pkg *types.Package, qname string, iface *types.Interface) map[string]bool {
	path := qname[:strings.LastIndex(qname, ".")]
	dep := findImport(pkg, path, make(map[string]bool))
	if dep == nil {
		return nil
	}
	variants := make(map[string]bool)
	scope := dep.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			variants[path+"."+name] = true
		}
	}
	return variants
}

// typeSwitchTag returns the static type of the expression a type switch
// switches over, or nil.
func typeSwitchTag(pass *Pass, ts *ast.TypeSwitchStmt) types.Type {
	var x ast.Expr
	switch assign := ts.Assign.(type) {
	case *ast.AssignStmt: // switch v := e.(type)
		if len(assign.Rhs) != 1 {
			return nil
		}
		ta, ok := assign.Rhs[0].(*ast.TypeAssertExpr)
		if !ok {
			return nil
		}
		x = ta.X
	case *ast.ExprStmt: // switch e.(type)
		ta, ok := assign.X.(*ast.TypeAssertExpr)
		if !ok {
			return nil
		}
		x = ta.X
	default:
		return nil
	}
	tv, ok := pass.Info.Types[x]
	if !ok {
		return nil
	}
	return tv.Type
}

// coverClauses returns the sorted variant names NOT named by the non-default
// clauses: in a case list, or (with literals) as a composite literal in a
// clause body. A default clause covers nothing.
func coverClauses(pass *Pass, clauses []ast.Stmt, variants map[string]bool, literals bool) []string {
	missing := make(map[string]bool, len(variants))
	for v := range variants {
		missing[v] = true
	}
	for _, stmt := range clauses {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok || cc.List == nil {
			continue
		}
		for _, ce := range cc.List {
			if tv, ok := pass.Info.Types[ce]; ok && tv.IsType() {
				delete(missing, stateTypeName(tv.Type))
			}
		}
		if !literals {
			continue
		}
		for _, body := range cc.Body {
			ast.Inspect(body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					if tv, ok := pass.Info.Types[lit]; ok {
						delete(missing, stateTypeName(tv.Type))
					}
				}
				return true
			})
		}
	}
	out := make([]string, 0, len(missing))
	for v := range missing {
		// Report bare variant names: the union is already named in the message.
		out = append(out, v[strings.LastIndex(v, ".")+1:])
	}
	sort.Strings(out)
	return out
}
