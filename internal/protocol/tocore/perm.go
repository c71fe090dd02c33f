package tocore

import (
	"repro/internal/ioa"
	"repro/internal/types"
)

var _ ioa.Symmetric = (*Impl)(nil)

// EnableSymmetry installs the symmetry group — the permutations of the
// universe that fix the CURRENT state (see ioa.Stabilizer: call it on the
// initial state) — and returns its order. That makes the hooks available;
// it does not make reduction sound. Unlike the DVS layer, the Figure 5
// algorithm is NOT equivariant under process permutations — the
// state-exchange representative is chosen by least process id among the
// longest orders, and fullorder's tail sorts labels by (viewid, seqno,
// origin) — so π of a reachable TO-IMPL state need not be reachable. The
// hooks exist for orbit-soundness audits (ExploreConfig.AuditSymmetry) and
// for experiments measuring how much of the space IS symmetric; see
// DESIGN.md §6.7. Nor can a digest be permuted without the labels it
// chains: an image is exact only while nothing has been dropped, as in
// every audited exploration.
func (im *Impl) EnableSymmetry() int {
	im.syms = ioa.Stabilizer(im, types.PermsOf(im.universe))
	return len(im.syms)
}

// Canonicalize implements ioa.Symmetric.
func (im *Impl) Canonicalize() (ioa.Automaton, ioa.Fp) { return ioa.Canonicalize(im, im.syms) }

// Orbit implements ioa.Symmetric.
func (im *Impl) Orbit() []ioa.Automaton { return ioa.Orbit(im, im.syms) }

// FixImage keeps procs the sorted universe (ioa.Imager).
func (im *Impl) FixImage(any) { im.procs = im.universe.Sorted() }
