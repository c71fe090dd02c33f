package dvs

import (
	"repro/internal/ioa"
	"repro/internal/types"
)

var _ ioa.Symmetric = (*DVS)(nil)

// Permute returns π(a): a fresh DVS state with every process identity — in
// memberships, view-id origins, attempted/registered sets, queue entries,
// and pending messages — replaced by its image under π. The symmetry group
// is carried over unchanged (conjugating a stabilizer by one of its own
// elements is the identity). The receiver is not mutated.
func (a *DVS) Permute(pi types.Perm) *DVS {
	b := &DVS{
		literal:    a.literal,
		drained:    a.drained,
		syms:       a.syms,
		universe:   pi.Set(a.universe),
		initial:    pi.View(a.initial),
		created:    make(map[types.ViewID]types.View, len(a.created)),
		current:    make(map[types.ProcID]types.ViewID, len(a.current)),
		queues:     make(map[types.ViewID][]Entry, len(a.queues)),
		attempted:  make(map[types.ViewID]types.ProcSet, len(a.attempted)),
		registered: make(map[types.ViewID]types.ProcSet, len(a.registered)),
		pending:    make(map[procView][]types.Msg, len(a.pending)),
		next:       make(map[procView]int, len(a.next)),
		nextSafe:   make(map[procView]int, len(a.nextSafe)),
		rcvd:       make(map[procView]int, len(a.rcvd)),
	}
	for id, v := range a.created {
		b.created[pi.ViewID(id)] = pi.View(v)
	}
	for p, g := range a.current {
		b.current[pi.ID(p)] = pi.ViewID(g)
	}
	for g, q := range a.queues {
		nq := make([]Entry, len(q))
		for i, e := range q {
			nq[i] = Entry{M: pi.Msg(e.M), P: pi.ID(e.P)}
		}
		b.queues[pi.ViewID(g)] = nq
	}
	for g, s := range a.attempted {
		b.attempted[pi.ViewID(g)] = pi.Set(s)
	}
	for g, s := range a.registered {
		b.registered[pi.ViewID(g)] = pi.Set(s)
	}
	for k, msgs := range a.pending {
		b.pending[procView{pi.ID(k.P), pi.ViewID(k.G)}] = pi.Msgs(msgs)
	}
	for k, n := range a.next {
		b.next[procView{pi.ID(k.P), pi.ViewID(k.G)}] = n
	}
	for k, n := range a.nextSafe {
		b.nextSafe[procView{pi.ID(k.P), pi.ViewID(k.G)}] = n
	}
	for k, n := range a.rcvd {
		b.rcvd[procView{pi.ID(k.P), pi.ViewID(k.G)}] = n
	}
	return b
}

// EnableSymmetry installs the automaton's symmetry group — the
// permutations of the universe that fix the CURRENT state (see
// ioa.Stabilizer: call it on the initial state) — and returns its order.
func (a *DVS) EnableSymmetry() int {
	a.syms = ioa.Stabilizer(a, types.PermsOf(a.universe))
	return len(a.syms)
}

// Canonicalize implements ioa.Symmetric.
func (a *DVS) Canonicalize() (ioa.Automaton, ioa.Fp) { return ioa.Canonicalize(a, a.syms) }

// Orbit implements ioa.Symmetric.
func (a *DVS) Orbit() []ioa.Automaton { return ioa.Orbit(a, a.syms) }
