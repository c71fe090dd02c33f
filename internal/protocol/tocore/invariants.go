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
	for _, v := range im.dvs.Created() {
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

// system returns the invariant-checking cut of the composition. The nodes
// and summaries are shared, not cloned: the checks are read-only.
func (im *Impl) system() System {
	sys := im.nodesOnly()
	sys.Created = im.dvs.Created()
	sys.Attempted = im.dvs.Attempted
	sys.Extra = im.transitSummariesShared()
	return sys
}

// nodesOnly is the cut without the DVS-level oracles and the
// (allocation-heavy) in-transit summary scan, for the checks that read node
// state only. Dropped is the longest of the nodes' dropped prefixes;
// checkTruncation is what makes it stand for them all.
func (im *Impl) nodesOnly() System {
	sys := System{Procs: im.procs, Nodes: im.nodes}
	if im.cfg.Universe {
		sys.Dropped = []types.Label{}
		for _, ls := range im.dropped {
			if len(ls) > len(sys.Dropped) {
				sys.Dropped = ls
			}
		}
	}
	return sys
}

// checkTruncation is the invariant truncation rests on, over the history
// variable: what p has dropped is what its base and digest say, none of it
// undelivered (with the frontier exactly where the rule puts it, so no drop
// was refused either); it is a prefix of, or extends, what any q has dropped
// followed by what q holds — p dropped only what q has or will have; and no
// exchange has met a representative it could not align with.
func (im *Impl) checkTruncation() error {
	for _, p := range im.procs {
		n, mine := im.nodes[p], im.dropped[p]
		if pre, _ := (types.Suffix{Ord: mine}).From(len(mine)); len(mine) != n.base || pre.Digest != n.digest {
			return fmt.Errorf("%s dropped %d labels but keeps base %d, or another digest", p, len(mine), n.base)
		}
		if n.base != min(n.stable, n.nextReport-1) {
			return fmt.Errorf("%s dropped %d labels with stable %d and nextreport %d", p, n.base, n.stable, n.nextReport)
		}
		if n.mismatch > 0 {
			return fmt.Errorf("%s could not align with a representative", p)
		}
		for _, q := range im.procs {
			if all := append(im.dropped[q][:len(im.dropped[q]):len(im.dropped[q])], im.nodes[q].order...); !types.Consistent(mine, all) {
				return fmt.Errorf("%s dropped %v, which %s neither holds nor can come to hold: %v", p, mine, q, all)
			}
		}
	}
	return nil
}

// Invariants returns Invariants 6.1–6.3 plus the confirmed-prefix agreement
// check — the end-to-end property the invariants exist to support — as ioa
// invariants over *Impl states.
func Invariants() []ioa.Invariant {
	wrap := func(name string, check func(*Impl) error) ioa.Invariant {
		return ioa.Invariant{
			Name: name,
			Check: func(a ioa.Automaton) error {
				im, ok := a.(*Impl)
				if !ok {
					return fmt.Errorf("TO-IMPL invariant on %T", a)
				}
				return check(im)
			},
		}
	}
	return []ioa.Invariant{
		wrap("TOIMPL-6.1", func(im *Impl) error { return im.system().CheckInvariant61() }),
		wrap("TOIMPL-6.2", func(im *Impl) error { return im.system().CheckInvariant62() }),
		wrap("TOIMPL-6.3", func(im *Impl) error { return im.system().CheckInvariant63() }),
		wrap("TOIMPL-confirmed-consistent", func(im *Impl) error { return im.nodesOnly().CheckConfirmedConsistent() }),
		wrap("TOIMPL-truncation", (*Impl).checkTruncation),
	}
}
