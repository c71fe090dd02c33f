package dvscore

import (
	"repro/internal/ioa"
	"repro/internal/types"
)

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
func (im *Impl) Canonicalize() (ioa.Automaton, ioa.Fp) { return ioa.Canonicalize(im, im.syms) }

// Orbit implements ioa.Symmetric.
func (im *Impl) Orbit() []ioa.Automaton { return ioa.Orbit(im, im.syms) }

// FixImage re-sorts Amb by the permuted view ids (ioa.Imager).
func (i *Info) FixImage(any) { types.SortViews(i.Amb) }

// FixImage re-sorts Amb by the permuted view ids (ioa.Imager).
func (m *InfoMsg) FixImage(any) { types.SortViews(m.Amb) }

// FixImage keeps procs the sorted universe (ioa.Imager).
func (im *Impl) FixImage(any) { im.procs = im.universe.Sorted() }
