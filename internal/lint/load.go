// Package lint is a domain-specific static-analysis suite that
// machine-enforces the automaton discipline the checker's soundness rests
// on: fingerprint completeness, model determinism, canonical iteration order
// on the fingerprint path and structural message comparison (DESIGN.md
// §6.4). Clones and permutations are checked by the exploration audit
// (ioa.ExploreConfig.AuditFingerprints); effects and writes through Shared
// views by the conformance replay and the tests; run-to-completion by the
// race detector and the tob loop-liveness test (DESIGN.md §6.9).
//
// The suite is deliberately self-contained: it drives `go list -export` for
// package metadata and export data and type-checks target packages from
// source with go/types, so it needs nothing beyond the standard library and
// the go toolchain already required to build the tree.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked target package, ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test Go files, parsed with comments
	Pkg   *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath     string
	Name           string
	Dir            string
	Export         string
	GoFiles        []string
	IgnoredGoFiles []string
	DepOnly        bool
	Standard       bool
	Error          *struct{ Err string }
}

// Load runs `go list -deps -export -json patterns...` in dir and
// type-checks every non-dep-only, non-stdlib package from source.
// Dependencies (including the targets' mutual imports) are satisfied from
// the toolchain's export data, so loading is fast and needs no network.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && p.Name != "" {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, p := range targets {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:  p.ImportPath,
			Dir:   p.Dir,
			Fset:  fset,
			Files: files,
			Pkg:   tpkg,
			Info:  info,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
