package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestModelpure(t *testing.T) {
	cfg := lint.ModelpureConfig{
		PurePkgs:       []string{"linttest/src/modelpure"},
		AllowTimeFiles: []string{"src/modelpure/report.go"},
	}
	linttest.Run(t, "testdata", lint.Modelpure(cfg), "./src/modelpure", "./src/modelpurext")
}
