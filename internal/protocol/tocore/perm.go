package tocore

import "repro/internal/types"

// PermuteMsg implements types.PermutableMsg: the label's view id and origin
// permute, the payload is opaque.
func (m LabelMsg) PermuteMsg(pi types.Perm) types.Msg {
	return LabelMsg{L: pi.Label(m.L), A: m.A}
}

// PermuteMsg implements types.PermutableMsg: the carried summary permutes.
func (m SummaryMsg) PermuteMsg(pi types.Perm) types.Msg {
	return SummaryMsg{X: pi.Summary(m.X)}
}

var (
	_ types.PermutableMsg = LabelMsg{}
	_ types.PermutableMsg = SummaryMsg{}
)

// Permute returns π(n): the DVS-TO-TO automaton of process π(p) whose state
// is the image of n's state under π. The receiver is not mutated.
//
// CAUTION: unlike the DVS layer, the Figure 5 algorithm is NOT equivariant
// under process permutations — gotstate.ChosenRep breaks ties by least
// process id and fullorder's tail sorts labels by (viewid, seqno, origin) —
// so π of a reachable TO-IMPL state need not be reachable. Permute and the
// Symmetric hooks on toimpl.Impl exist for orbit-soundness audits and
// experiments, not for sound state-space reduction; see DESIGN.md §6.7.
func (n *Node) Permute(pi types.Perm) *Node {
	p := pi.ID(n.p)
	c := &Node{
		p:           p,
		fpPre:       "t" + p.String() + ".",
		literal:     n.literal,
		current:     pi.View(n.current),
		currentOK:   n.currentOK,
		status:      n.status,
		hist:        n.hist.Permute(pi),
		nextSeqno:   n.nextSeqno,
		buffer:      pi.Labels(n.buffer),
		order:       pi.Labels(n.order),
		nextConfirm: n.nextConfirm,
		nextReport:  n.nextReport,
		highPrimary: pi.ViewID(n.highPrimary),
		gotstate:    pi.GotState(n.gotstate),
		safeExch:    pi.Set(n.safeExch),
		registered:  make(map[types.ViewID]bool, len(n.registered)),
		delay:       types.CloneSeq(n.delay),
		established: make(map[types.ViewID]bool, len(n.established)),
		buildOrder:  make(map[types.ViewID][]types.Label, len(n.buildOrder)),
	}
	for g, b := range n.registered {
		c.registered[pi.ViewID(g)] = b
	}
	for g, b := range n.established {
		c.established[pi.ViewID(g)] = b
	}
	for g, ord := range n.buildOrder {
		c.buildOrder[pi.ViewID(g)] = pi.Labels(ord)
	}
	return c
}
