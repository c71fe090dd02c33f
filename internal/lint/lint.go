package lint

import (
	"fmt"
	"go/token"
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

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// strayDirectives reports every //lint: comment in the package: no analyzer
// takes an escape, so a directive can only be a leftover or a typo.
func strayDirectives(pkg *Package) []Diagnostic {
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if text, ok := strings.CutPrefix(c.Text, "//lint:"); ok {
					name, _, _ := strings.Cut(text, " ")
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						Pos:      pkg.Fset.Position(c.Pos()),
						Message:  fmt.Sprintf("unknown lint directive %q", name),
					})
				}
			}
		}
	}
	return bad
}

// RunAnalyzers applies each analyzer to each package and returns all
// diagnostics sorted by position for deterministic output.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, strayDirectives(pkg)...)
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Package: pkg, diags: &diags})
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
