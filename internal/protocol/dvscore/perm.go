package dvscore

import (
	"repro/internal/ioa"
	"repro/internal/types"
)

// PermuteMsg implements types.PermutableMsg: the carried active and
// ambiguous views permute; Amb is re-sorted because permuting view-id
// origins can reorder ids.
func (m InfoMsg) PermuteMsg(pi types.Perm) types.Msg {
	amb := make([]types.View, len(m.Amb))
	for i, v := range m.Amb {
		amb[i] = pi.View(v)
	}
	types.SortViews(amb)
	return InfoMsg{Act: pi.View(m.Act), Amb: amb}
}

var _ types.PermutableMsg = InfoMsg{}

// permute returns π(i) with Amb re-sorted by (permuted) view id.
func (i Info) permute(pi types.Perm) Info {
	amb := make([]types.View, len(i.Amb))
	for j, v := range i.Amb {
		amb[j] = pi.View(v)
	}
	types.SortViews(amb)
	return Info{Act: pi.View(i.Act), Amb: amb}
}

// Permute returns π(n): the VS-TO-DVS automaton of process π(p) whose state
// is the image of n's state under π — memberships, view-id origins, message
// provenance, and buffered messages all permuted. The receiver is not
// mutated. Used by the symmetry reduction of the DVS-IMPL composition.
func (n *Node) Permute(pi types.Perm) *Node {
	p := pi.ID(n.p)
	c := &Node{
		p:           p,
		cur:         pi.View(n.cur),
		curOK:       n.curOK,
		clientCur:   pi.View(n.clientCur),
		clientCurOK: n.clientCurOK,
		act:         pi.View(n.act),
		amb:         make(map[types.ViewID]types.View, len(n.amb)),
		attempted:   make(map[types.ViewID]types.View, len(n.attempted)),
		infoRcvd:    make(map[procViewKey]Info, len(n.infoRcvd)),
		rcvdRgst:    make(map[types.ViewID]types.ProcSet, len(n.rcvdRgst)),
		msgsToVS:    make(map[types.ViewID][]types.Msg, len(n.msgsToVS)),
		msgsFromVS:  make(map[types.ViewID][]MsgFrom, len(n.msgsFromVS)),
		safeFromVS:  make(map[types.ViewID][]MsgFrom, len(n.safeFromVS)),
		reg:         make(map[types.ViewID]bool, len(n.reg)),
		infoSent:    make(map[types.ViewID]Info, len(n.infoSent)),
	}
	for id, v := range n.amb {
		c.amb[pi.ViewID(id)] = pi.View(v)
	}
	for id, v := range n.attempted {
		c.attempted[pi.ViewID(id)] = pi.View(v)
	}
	for k, i := range n.infoRcvd {
		c.infoRcvd[procViewKey{pi.ID(k.Q), pi.ViewID(k.G)}] = i.permute(pi)
	}
	for g, s := range n.rcvdRgst {
		c.rcvdRgst[pi.ViewID(g)] = pi.Set(s)
	}
	for g, q := range n.msgsToVS {
		c.msgsToVS[pi.ViewID(g)] = pi.Msgs(q)
	}
	for g, q := range n.msgsFromVS {
		c.msgsFromVS[pi.ViewID(g)] = permuteMsgFrom(pi, q)
	}
	for g, q := range n.safeFromVS {
		c.safeFromVS[pi.ViewID(g)] = permuteMsgFrom(pi, q)
	}
	for g, b := range n.reg {
		c.reg[pi.ViewID(g)] = b
	}
	for g, i := range n.infoSent {
		c.infoSent[pi.ViewID(g)] = i.permute(pi)
	}
	return c
}

func permuteMsgFrom(pi types.Perm, q []MsgFrom) []MsgFrom {
	out := make([]MsgFrom, len(q))
	for i, e := range q {
		out[i] = MsgFrom{M: pi.Msg(e.M), Q: pi.ID(e.Q)}
	}
	return out
}

// Symmetry reduction for DVS-IMPL. Every transition of the composition —
// the VS specification's actions, the VS-TO-DVS node actions, and the
// derived enabling conditions — is defined by set membership, majority
// intersection, and per-process bookkeeping, never by comparing process
// identifiers, so the composition is equivariant under any permutation of
// the universe: s --act--> s' implies π(s) --π(act)--> π(s'). The same
// holds for Invariants 5.1–5.6 and for the Figure 4 abstraction function.
// Exploring orbit representatives is therefore sound for DVS-IMPL whenever
// the environment's input enumeration is equivariant too (its proposed
// views closed under the group, all originating processes enumerated) —
// see DESIGN.md §6.7 and the symmetric bounded-environment mode.
var _ ioa.Symmetric = (*Impl)(nil)

// Permute returns π(im): a fresh DVS-IMPL state with every process identity
// replaced by its image under π — the inner VS state, each node's state,
// and the node indexing itself (π(im)'s node for π(p) is the permutation of
// im's node for p). The receiver is not mutated.
func (im *Impl) Permute(pi types.Perm) *Impl {
	c := &Impl{
		universe: pi.Set(im.universe),
		initial:  pi.View(im.initial),
		vs:       im.vs.Permute(pi),
		nodes:    make(map[types.ProcID]*Node, len(im.nodes)),
		syms:     im.syms, // conjugating a stabilizer by its own element is the identity
	}
	c.procs = c.universe.Sorted()
	for p, n := range im.nodes {
		c.nodes[pi.ID(p)] = n.Permute(pi)
	}
	return c
}

// EnableSymmetry installs the symmetry group — the permutations of the
// universe that fix the CURRENT state (see ioa.Stabilizer: call it on the
// initial state) — and returns its order. With the initial view covering
// the whole universe the group is the full symmetric group (order n!);
// asymmetric initial views yield the appropriate subgroup automatically.
func (im *Impl) EnableSymmetry() int {
	im.syms = ioa.Stabilizer(im, types.PermsOf(im.universe))
	return len(im.syms)
}

// Canonicalize implements ioa.Symmetric.
func (im *Impl) Canonicalize() ioa.Automaton { return ioa.Canonicalize(im, im.syms) }

// Orbit implements ioa.Symmetric.
func (im *Impl) Orbit() []ioa.Automaton { return ioa.Orbit(im, im.syms) }
