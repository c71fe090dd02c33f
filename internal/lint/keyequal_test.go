package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestKeyequal(t *testing.T) {
	linttest.Run(t, "testdata", lint.Keyequal("/src/keyequal/core/", "/src/keyequal/spec/"), "./src/keyequal/...")
}
