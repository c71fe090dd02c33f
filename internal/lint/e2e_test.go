package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestTreeIsClean is the gate a change lands on: the default analyzer suite
// over the whole module must report nothing. No analyzer takes an escape,
// so a diagnostic here is a real discipline violation.
func TestTreeIsClean(t *testing.T) {
	pkgs, err := lint.Load(".", "repro/...")
	if err != nil {
		t.Fatalf("loading repro/...: %v", err)
	}
	diags := lint.RunAnalyzers(pkgs, lint.DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestLeftoverDirectiveIsUnknown: no analyzer takes an escape, so a
// //lint: directive left in the tree is reported, not obeyed.
func TestLeftoverDirectiveIsUnknown(t *testing.T) {
	diags := runOnScratch(t, "package scratch\n\ntype S struct {\n\t//lint:ignore fixed at construction\n\tn int\n}\n")
	if len(diags) != 1 || diags[0].Analyzer != "directive" || !strings.Contains(diags[0].Message, `unknown lint directive "ignore"`) {
		t.Fatalf("want one unknown-directive diagnostic, got %v", diags)
	}
}

// runOnScratch writes src as a one-file module in a temp dir and runs the
// default analyzer suite over it.
func runOnScratch(t *testing.T, src string) []lint.Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading scratch module: %v", err)
	}
	return lint.RunAnalyzers(pkgs, lint.DefaultAnalyzers())
}
