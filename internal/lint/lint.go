package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a single package through the
// Pass and reports diagnostics; analyzers never mutate the package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// directive is one parsed //lint:<name> <reason> escape comment. A directive
// applies to the source line it sits on; a directive alone on its line
// applies to the next line (so field declarations and statements can carry
// the annotation either inline or immediately above).
type directive struct {
	name   string
	reason string
	pos    token.Position
}

// knownDirectives is the closed set of escape hatches; anything else spelled
// //lint: is reported as malformed so typos cannot silently disable a check.
var knownDirectives = map[string]bool{
	"fpignore": true, // fpcomplete: field is derived/config, not state
	"fporder":  true, // fporder: iteration order provably cannot leak
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	*Package

	diags      *[]Diagnostic
	directives map[string]map[int][]directive // filename -> line -> directives
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Escaped reports whether an escape directive of the given name covers pos.
// Directives with an empty reason never match: the reason is the audit trail
// and the driver separately flags reasonless directives as malformed.
func (p *Pass) Escaped(pos token.Pos, name string) bool {
	position := p.Fset.Position(pos)
	for _, d := range p.directives[position.Filename][position.Line] {
		if d.name == name && d.reason != "" {
			return true
		}
	}
	return false
}

// parseDirectives scans every comment in the package for //lint: escapes and
// returns them keyed by the line they govern, plus diagnostics for malformed
// ones (unknown name, missing reason).
func parseDirectives(pkg *Package) (map[string]map[int][]directive, []Diagnostic) {
	byLine := make(map[string]map[int][]directive)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		code := codeLines(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(text, " ")
				// A reason never spans an embedded comment (this lets test
				// fixtures append // want expectations after a directive).
				if i := strings.Index(reason, "//"); i >= 0 {
					reason = reason[:i]
				}
				reason = strings.TrimSpace(reason)
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case !knownDirectives[name]:
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  fmt.Sprintf("unknown lint directive %q", name),
					})
					continue
				case reason == "":
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  fmt.Sprintf("lint:%s directive needs a reason", name),
					})
					continue
				}
				line := pos.Line
				// A comment alone on its line governs the next line.
				if !code[line] {
					line++
				}
				if byLine[pos.Filename] == nil {
					byLine[pos.Filename] = make(map[int][]directive)
				}
				byLine[pos.Filename][line] = append(byLine[pos.Filename][line],
					directive{name: name, reason: reason, pos: pos})
			}
		}
	}
	return byLine, bad
}

// codeLines returns the set of source lines on which some non-comment AST
// node begins; a directive comment on any other line is "alone" and governs
// the following line instead of its own.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		if n.Pos().IsValid() {
			lines[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
	return lines
}

// RunAnalyzers applies each analyzer to each package and returns all
// diagnostics sorted by position for deterministic output.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs, bad := parseDirectives(pkg)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Package:    pkg,
				diags:      &diags,
				directives: dirs,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// --- shared structural helpers used by several analyzers ---

// funcDecls maps each function/method object declared in the package to its
// declaration, the basis for intra-package reachability.
func funcDecls(pkg *Package) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name != nil {
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// callee resolves the statically-known target of a call expression: a
// package-level function, a method (through the selection), or nil for
// dynamic calls (function values, interface methods bound elsewhere).
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// reachable walks the intra-package call graph from the given roots and
// returns every declaration reachable through statically-resolvable calls.
func reachable(pkg *Package, decls map[types.Object]*ast.FuncDecl, roots []types.Object) map[types.Object]bool {
	seen := make(map[types.Object]bool)
	var visit func(obj types.Object)
	visit = func(obj types.Object) {
		if obj == nil || seen[obj] {
			return
		}
		seen[obj] = true
		decl, ok := decls[obj]
		if !ok || decl.Body == nil {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				visit(callee(pkg.Info, call))
			}
			return true
		})
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}

// receiverType returns the (possibly pointer-stripped) named receiver type
// of a method declaration, or nil for plain functions.
func receiverType(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := info.Types[fd.Recv.List[0].Type].Type
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
