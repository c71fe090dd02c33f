// Package toimpl is a shim, as internal/core is and until the same change:
// the two names bench/traced.go imports from here. TO-IMPL is in
// internal/protocol/tocore.
package toimpl

import "repro/internal/protocol/tocore"

type (
	LabelMsg   = tocore.LabelMsg
	SummaryMsg = tocore.SummaryMsg
)
