// Package core implements the paper's primary contribution at the level the
// checker explores: the composed system DVS-IMPL (all VS-TO-DVS_p automata
// plus the VS service, with VS actions hidden), executable checkers for
// Invariants 5.1–5.6, and the refinement F of Figure 4 from DVS-IMPL to the
// DVS specification (Theorem 5.9).
//
// The VS-TO-DVS_p automaton itself lives in internal/protocol/dvscore — a
// pure protocol core shared verbatim with the live runtime (internal/dvsg).
// This package re-exports its types under their historical names so that the
// composition, the refinement, and external consumers read as before.
package core

import (
	"repro/internal/protocol/dvscore"
	"repro/internal/types"
)

// Node is the VS-TO-DVS_p automaton of Figure 3 (see dvscore.Node).
type Node = dvscore.Node

// Info is a ⟨act, amb⟩ pair as recorded in info-sent and info-rcvd.
type Info = dvscore.Info

// MsgFrom is a ⟨m, q⟩ pair buffered in msgs-from-vs / safe-from-vs.
type MsgFrom = dvscore.MsgFrom

// InfoMsg is an ⟨"info", act, amb⟩ message.
type InfoMsg = dvscore.InfoMsg

// RegisteredMsg is the ⟨"registered"⟩ message.
type RegisteredMsg = dvscore.RegisteredMsg

// NewNode returns VS-TO-DVS_p in its initial state.
func NewNode(p types.ProcID, initial types.View, inP0 bool) *Node {
	return dvscore.NewNode(p, initial, inP0)
}

// Purge deletes every non-client ("info" or "registered") message from q,
// per the refinement of Figure 4.
func Purge(q []types.Msg) []types.Msg { return dvscore.Purge(q) }
