package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestKeyequal runs the analyzer as DefaultAnalyzers configures it, so the
// fixtures pin its scope too: they sit under internal/protocol/ and
// internal/spec/ like the real cores and specs, and the shell fixture
// outside both stays silent.
func TestKeyequal(t *testing.T) {
	for _, a := range lint.DefaultAnalyzers() {
		if a.Name == "keyequal" {
			linttest.Run(t, "testdata", a, "./src/keyequal/...")
			return
		}
	}
	t.Fatal("keyequal is not in DefaultAnalyzers")
}
