package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestTreeIsClean is the gate the PR lands on: the default analyzer suite
// over the whole module must report nothing. Every justified exception in the
// tree is expressed as a //lint:* directive with a reason, so a regression
// here is either a real discipline violation or a missing annotation.
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

// TestFpcompleteCatchesDeletedWrite proves the acceptance criterion end to
// end: deleting one field write from a WriteFp in a scratch module makes
// fpcomplete fail, and restoring it makes the module clean again.
func TestFpcompleteCatchesDeletedWrite(t *testing.T) {
	const broken = `package scratch

type W struct{}

func (W) Int(int) {}

type Label struct {
	ID    int
	Seqno int
}

func (a Label) WriteFp(w W) {
	w.Int(a.Seqno)
}
`
	diags := runOnScratch(t, broken)
	found := false
	for _, d := range diags {
		if d.Analyzer == "fpcomplete" && strings.Contains(d.Message, "field Label.ID") {
			found = true
		}
	}
	if !found {
		t.Fatalf("deleting the ID write did not trip fpcomplete; got %v", diags)
	}

	fixed := strings.Replace(broken, "w.Int(a.Seqno)", "w.Int(a.ID)\n\tw.Int(a.Seqno)", 1)
	if diags := runOnScratch(t, fixed); len(diags) != 0 {
		t.Fatalf("fixed scratch module should be clean, got %v", diags)
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
