package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestEffectcomplete(t *testing.T) {
	cfg := lint.EffectcompleteConfig{
		Unions: []string{"linttest/src/effectcomplete/core.Effect"},
		Require: map[string][]string{
			"linttest/src/effectcomplete/good":  {"linttest/src/effectcomplete/core.Effect"},
			"linttest/src/effectcomplete/empty": {"linttest/src/effectcomplete/core.Effect"},
		},
		RequireFuncs: map[string]map[string][]string{
			"linttest/src/effectcomplete/wire": {
				"linttest/src/effectcomplete/wire.Encode":        {"linttest/src/effectcomplete/core.Effect"},
				"linttest/src/effectcomplete/wire.Decode":        {"linttest/src/effectcomplete/core.Effect"},
				"linttest/src/effectcomplete/wire.DecodePartial": {"linttest/src/effectcomplete/core.Effect"},
				"linttest/src/effectcomplete/wire.NoSwitch":      {"linttest/src/effectcomplete/core.Effect"},
				"linttest/src/effectcomplete/wire.Audited":       {"linttest/src/effectcomplete/core.Effect"},
				"linttest/src/effectcomplete/wire.Gone":          {"linttest/src/effectcomplete/core.Effect"},
			},
		},
	}
	linttest.Run(t, "testdata", lint.Effectcomplete(cfg), "./src/effectcomplete/...")
}
