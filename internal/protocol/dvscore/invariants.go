package dvscore

import (
	"fmt"

	"repro/internal/ioa"
)

// Invariants 5.1–5.6 are mechanized once, against System (system.go), and
// shared with the runtime trace-conformance replayer. This file adapts them
// to DVS-IMPL states: the system cut is the composition's node map plus the
// VS specification's created set. See system.go for the formulas and for the
// notes on the amended forms of 5.2.3 and 5.3.1.

// system returns the invariant-checking cut of the composition. The nodes
// are shared, not cloned: the checks are read-only.
func (im *Impl) system() System {
	return System{Procs: im.procs, Nodes: im.nodes, Created: im.vs.Created()}
}

// CheckInvariant52Part3Literal checks part 3 of Invariant 5.2 exactly as
// printed in the paper; this bound is falsifiable on reachable states and is
// provided so tests can demonstrate the discrepancy.
func CheckInvariant52Part3Literal(im *Impl) error {
	return im.system().CheckInvariant52Part3Literal()
}

// CheckInvariant56 checks Invariant 5.6 (the corollary used in the
// refinement proof) on one state: the naive-filter comparison and the E5
// benchmark evaluate it alone.
func CheckInvariant56(im *Impl) error { return im.system().CheckInvariant56() }

// Invariants returns Invariants 5.1–5.6 (with 5.2.3 in amended form) as ioa
// invariants over *Impl states.
func Invariants() []ioa.Invariant {
	wrap := func(name string, check func(System) error) ioa.Invariant {
		return ioa.Invariant{
			Name: name,
			Check: func(a ioa.Automaton) error {
				im, ok := a.(*Impl)
				if !ok {
					return fmt.Errorf("DVS-IMPL invariant on %T", a)
				}
				return check(im.system())
			},
		}
	}
	return []ioa.Invariant{
		wrap("DVSIMPL-5.1", System.CheckInvariant51),
		wrap("DVSIMPL-5.2", System.CheckInvariant52),
		wrap("DVSIMPL-5.3", System.CheckInvariant53),
		wrap("DVSIMPL-5.4", System.CheckInvariant54),
		wrap("DVSIMPL-5.5", System.CheckInvariant55),
		wrap("DVSIMPL-5.6", System.CheckInvariant56),
	}
}
