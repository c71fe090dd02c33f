package tocore

import (
	"repro/internal/ioa"
	"repro/internal/types"
)

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
// Symmetric hooks on Impl exist for orbit-soundness audits and
// experiments, not for sound state-space reduction; see DESIGN.md §6.7. Nor
// can a digest be permuted without the labels it chains: the image is exact
// only while nothing has been dropped, as in every audited exploration.
func (n *Node) Permute(pi types.Perm) *Node {
	p := pi.ID(n.p)
	c := &Node{
		p:           p,
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
		universe:    pi.Set(n.universe),
		whole:       n.whole,
		stable:      n.stable,
		base:        n.base,
		digest:      n.digest,
		mismatch:    n.mismatch,
		highPrimary: pi.ViewID(n.highPrimary),
		gotstate:    pi.GotState(n.gotstate),
		safeExch:    pi.Set(n.safeExch),
		registered:  make(map[types.ViewID]bool, len(n.registered)),
		delay:       types.CloneSeq(n.delay),
		established: make(map[types.ViewID]bool, len(n.established)),
		buildOrder:  make(map[types.ViewID]types.Suffix, len(n.buildOrder)),
		boEnd:       n.boEnd,
	}
	for g, b := range n.registered {
		c.registered[pi.ViewID(g)] = b
	}
	for g, b := range n.established {
		c.established[pi.ViewID(g)] = b
	}
	for g, bo := range n.buildOrder {
		bo.Ord = pi.Labels(bo.Ord)
		c.buildOrder[pi.ViewID(g)] = bo
	}
	return c
}

// TO-IMPL implements the Symmetric hooks, but with a caveat the DVS layer
// does not have: the Figure 5 algorithm itself is NOT equivariant under
// process permutations — the state-exchange representative is chosen by
// least process id among the longest orders, and fullorder's tail sorts
// labels by (viewid, seqno, origin) — so exploring orbit representatives of
// TO-IMPL is not a sound reduction in general. The hooks exist for
// orbit-soundness audits (ExploreConfig.AuditSymmetry) and for experiments
// measuring how much of the space IS symmetric; see DESIGN.md §6.7.
var _ ioa.Symmetric = (*Impl)(nil)

// Permute returns π(im): a fresh TO-IMPL state with every process identity
// replaced by its image under π. The receiver is not mutated.
func (im *Impl) Permute(pi types.Perm) *Impl {
	c := &Impl{
		universe: pi.Set(im.universe),
		initial:  pi.View(im.initial),
		cfg:      im.cfg,
		dvs:      im.dvs.Permute(pi),
		nodes:    make(map[types.ProcID]*Node, len(im.nodes)),
		dropped:  make(map[types.ProcID][]types.Label, len(im.dropped)),
		syms:     im.syms, // conjugating a stabilizer by its own element is the identity
	}
	c.procs = c.universe.Sorted()
	for p, n := range im.nodes {
		c.nodes[pi.ID(p)] = n.Permute(pi)
	}
	for p, ls := range im.dropped {
		c.dropped[pi.ID(p)] = pi.Labels(ls)
	}
	return c
}

// EnableSymmetry installs the symmetry group — the permutations of the
// universe that fix the CURRENT state (see ioa.Stabilizer: call it on the
// initial state) — and returns its order. Note the equivariance caveat
// above: installing a group makes the hooks available, it does not make
// reduction sound for this composition.
func (im *Impl) EnableSymmetry() int {
	im.syms = ioa.Stabilizer(im, types.PermsOf(im.universe))
	return len(im.syms)
}

// Canonicalize implements ioa.Symmetric.
func (im *Impl) Canonicalize() ioa.Automaton { return ioa.Canonicalize(im, im.syms) }

// Orbit implements ioa.Symmetric.
func (im *Impl) Orbit() []ioa.Automaton { return ioa.Orbit(im, im.syms) }
