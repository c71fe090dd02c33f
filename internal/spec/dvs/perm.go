package dvs

import (
	"repro/internal/ioa"
	"repro/internal/types"
)

var _ ioa.Symmetric = (*DVS)(nil)

// EnableSymmetry installs the automaton's symmetry group — the
// permutations of the universe that fix the CURRENT state (see
// ioa.Stabilizer: call it on the initial state) — and returns its order.
func (a *DVS) EnableSymmetry() int {
	a.syms = ioa.Stabilizer(a, types.PermsOf(a.Universe()))
	return len(a.syms)
}

// Canonicalize implements ioa.Symmetric.
func (a *DVS) Canonicalize() (ioa.Automaton, ioa.Fp) { return ioa.Canonicalize(a, a.syms) }

// Orbit implements ioa.Symmetric.
func (a *DVS) Orbit() []ioa.Automaton { return ioa.Orbit(a, a.syms) }
