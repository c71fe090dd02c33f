// Package core is a shim: the three names bench/traced.go (its own module,
// off limits to most changes) imports from here. The benchmark-scoped
// change that gives bench/ a tap into buildStack deletes it; DVS-IMPL is in
// internal/protocol/dvscore, and nothing else in the tree imports this.
package core

import (
	"repro/internal/protocol/dvscore"
	"repro/internal/types"
)

type (
	InfoMsg       = dvscore.InfoMsg
	RegisteredMsg = dvscore.RegisteredMsg
)

func NewNode(p types.ProcID, initial types.View, inP0 bool) *dvscore.Node {
	return dvscore.NewNode(p, initial, inP0)
}
