package tocore

import (
	"fmt"

	"repro/internal/types"
)

// This file mechanizes Invariants 6.1–6.3 of the paper, plus the end-to-end
// confirmed-prefix agreement property, as executable checks over a
// collection of DVS-TO-TO_p states. The formulas are written once, against
// System, and shared by both consumers: the exhaustive checker
// (invariants.go wraps them as ioa invariants over reachable TO-IMPL
// states, supplying the DVS specification's created/attempted oracles and
// the summaries still in transit inside the service) and the
// trace-conformance replayer (internal/conform, which reconstructs the
// oracles from the dvs-newview events in the recorded logs and, at a
// quiescent final cut, has no in-transit summaries).

// System is a global cut of the TO implementation: one DVS-TO-TO_p state
// per process plus the DVS-level view oracles.
type System struct {
	Procs []types.ProcID
	Nodes map[types.ProcID]*Node
	// Created is the DVS specification's created set (shared, sorted by id).
	Created []types.View
	// Attempted returns the set of processes that attempted (received
	// dvs-newview for) the created view with id g.
	Attempted func(g types.ViewID) types.ProcSet
	// Extra lists the summaries present in the system state outside the
	// nodes: pending in the DVS service or ordered in a DVS per-view queue.
	Extra []types.Summary
}

// allStateShared returns the derived variable allstate of Section 6.2:
// every summary present anywhere in the system state — recorded in some
// node's gotstate, plus the in-transit summaries in Extra. The summaries
// are shared (read-only).
func (s System) allStateShared() []types.Summary {
	n := len(s.Extra)
	for _, p := range s.Procs {
		n += len(s.Nodes[p].gotstate)
	}
	if n == 0 {
		return nil
	}
	out := make([]types.Summary, 0, n)
	for _, p := range s.Procs {
		for _, x := range s.Nodes[p].gotstate {
			out = append(out, x)
		}
	}
	return append(out, s.Extra...)
}

// CheckInvariant61 checks Invariant 6.1: for every x ∈ allstate there is a
// created view w with x.high = w.id that was attempted by all its members.
func (s System) CheckInvariant61() error {
	allstate := s.allStateShared()
	if len(allstate) == 0 {
		return nil
	}
	created := make(map[types.ViewID]types.View, len(s.Created))
	for _, v := range s.Created {
		created[v.ID] = v
	}
	for _, x := range allstate {
		w, ok := created[x.High]
		if !ok {
			return fmt.Errorf("6.1: summary high %s names no created view", x.High)
		}
		att := s.Attempted(w.ID)
		if !w.Members.Subset(att) {
			return fmt.Errorf("6.1: view %s (high of a summary) attempted only by %s", w, att)
		}
	}
	return nil
}

// CheckInvariant62 checks Invariant 6.2: if v ∈ created and some summary has
// high > v.id, then some member of v has moved past v.
func (s System) CheckInvariant62() error {
	var maxHigh types.ViewID
	hasSummary := false
	for _, x := range s.allStateShared() {
		hasSummary = true
		if maxHigh.Less(x.High) {
			maxHigh = x.High
		}
	}
	if !hasSummary {
		return nil
	}
	for _, v := range s.Created {
		if !v.ID.Less(maxHigh) {
			continue
		}
		ok := false
		for p := range v.Members {
			if cur, has := s.Nodes[p].Current(); has && v.ID.Less(cur.ID) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("6.2: view %s precedes an established summary (high %s) but no member moved past it", v, maxHigh)
		}
	}
	return nil
}

// CheckInvariant63 checks Invariant 6.3, instantiated at its strongest σ:
// for every created view v, let S = {p ∈ v.set : current.id_p > v.id}. If
// every p ∈ S has established v and their buildorders are consistent, take
// σ* = the longest common prefix of {buildorder[p, v.id] : p ∈ S}; then
// every summary x with x.high > v.id must have σ* ≤ x.ord. If some p ∈ S has
// not established v, the hypothesis only holds for σ = λ and the instance is
// vacuous. If S is empty the hypothesis holds for every σ, so no summary may
// have high > v.id at all.
func (s System) CheckInvariant63() error {
	allstate := s.allStateShared()
	if len(allstate) == 0 {
		// Every obligation below quantifies over a summary with high > v.id;
		// with no summaries anywhere the invariant is vacuous.
		return nil
	}
	for _, v := range s.Created {
		var sigma []types.Label
		vacuous := false
		sMembers := 0
		first := true
		for p := range v.Members {
			cur, has := s.Nodes[p].Current()
			if !has || !v.ID.Less(cur.ID) {
				continue
			}
			sMembers++
			if !s.Nodes[p].Established(v.ID) {
				vacuous = true
				break
			}
			bo := s.Nodes[p].buildOrder[v.ID]
			if first {
				sigma = bo
				first = false
			} else {
				sigma = types.CommonPrefix(sigma, bo)
			}
		}
		if vacuous {
			continue
		}
		for _, x := range allstate {
			if !v.ID.Less(x.High) {
				continue
			}
			if sMembers == 0 {
				return fmt.Errorf("6.3: summary with high %s exists but no member of %s moved past it", x.High, v)
			}
			if !types.IsPrefix(sigma, x.Ord) {
				return fmt.Errorf("6.3: common established prefix of view %s is not a prefix of a summary with high %s", v, x.High)
			}
		}
	}
	return nil
}

// CheckConfirmedConsistent is the end-to-end agreement property the
// invariants exist to support: the confirmed label prefixes of all nodes are
// pairwise consistent (one is a prefix of the other).
func (s System) CheckConfirmedConsistent() error {
	confirmed := make([][]types.Label, 0, len(s.Procs))
	for _, p := range s.Procs {
		n := s.Nodes[p]
		confirmed = append(confirmed, n.order[:n.nextConfirm-1])
	}
	if !types.Consistent(confirmed...) {
		return fmt.Errorf("confirmed orders inconsistent across nodes")
	}
	return nil
}
