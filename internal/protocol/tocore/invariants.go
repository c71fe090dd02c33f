package tocore

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/types"
)

// Invariants 6.1–6.3 and the confirmed-prefix agreement property are
// mechanized once, against System (system.go), and shared with the runtime
// trace-conformance replayer. This file adapts them to TO-IMPL states: the system cut is the composition's node map plus the DVS
// specification's created/attempted oracles and the summaries still in
// transit inside the service.

// AllState returns the derived variable allstate of Section 6.2: every
// summary present anywhere in the system state — recorded in some node's
// gotstate, pending in the DVS service, or ordered in a DVS per-view queue.
func (im *Impl) AllState() []types.Summary {
	var out []types.Summary
	for _, p := range im.procs {
		for _, x := range im.nodes[p].GotState() {
			out = append(out, x)
		}
	}
	for _, x := range im.transitSummariesShared() {
		out = append(out, x.Clone())
	}
	return out
}

// transitSummariesShared lists the summaries in the system state outside
// the nodes — pending in the DVS service or ordered in a DVS per-view
// queue — without defensive copies; the summaries are read-only.
func (im *Impl) transitSummariesShared() []types.Summary {
	var out []types.Summary
	for _, v := range im.dvs.CreatedShared() {
		g := v.ID
		for _, e := range im.dvs.QueueShared(g) {
			if sm, ok := e.M.(SummaryMsg); ok {
				out = append(out, sm.X)
			}
		}
		for _, p := range im.procs {
			for _, m := range im.dvs.PendingShared(p, g) {
				if sm, ok := m.(SummaryMsg); ok {
					out = append(out, sm.X)
				}
			}
		}
	}
	return out
}

// system returns the invariant-checking cut of the composition. The nodes,
// views, and summaries are shared, not cloned: the checks are read-only.
func (im *Impl) system() System {
	return System{
		Procs:     im.procs,
		Nodes:     im.nodes,
		Created:   im.dvs.CreatedShared(),
		Attempted: im.dvs.AttemptedShared,
		Extra:     im.transitSummariesShared(),
	}
}

// Invariants returns Invariants 6.1–6.3 plus the confirmed-prefix agreement
// check — the end-to-end property the invariants exist to support — as ioa
// invariants over *Impl states.
func Invariants() []ioa.Invariant {
	wrap := func(name string, cut func(*Impl) System, check func(System) error) ioa.Invariant {
		return ioa.Invariant{
			Name: name,
			Check: func(a ioa.Automaton) error {
				im, ok := a.(*Impl)
				if !ok {
					return fmt.Errorf("TO-IMPL invariant on %T", a)
				}
				return check(cut(im))
			},
		}
	}
	// The agreement check reads node state only, so its cut omits the
	// DVS-level oracles and the (allocation-heavy) in-transit summary scan.
	nodesOnly := func(im *Impl) System { return System{Procs: im.procs, Nodes: im.nodes} }
	return []ioa.Invariant{
		wrap("TOIMPL-6.1", (*Impl).system, System.CheckInvariant61),
		wrap("TOIMPL-6.2", (*Impl).system, System.CheckInvariant62),
		wrap("TOIMPL-6.3", (*Impl).system, System.CheckInvariant63),
		wrap("TOIMPL-confirmed-consistent", nodesOnly, System.CheckConfirmedConsistent),
	}
}
