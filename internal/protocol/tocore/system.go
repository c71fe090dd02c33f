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
	// Dropped is the history variable of truncation: every label any node
	// has dropped, as the one sequence they are all prefixes of (TO-IMPL
	// keeps each node's and checks that they are). With it a Suffix is
	// restored to the sequence it stands for and the formulas read as printed.
	// A replayed cut has none (nil), and compares suffixes from the highest
	// base among them on, the digests vouching for everything below.
	Dropped []types.Label
}

// align gives the sequences one base so that they compare label by label:
// 0 where Dropped supplies what each has lost, else the highest base among
// them, each digest rolled up to it. ok is false if one of them ends below
// that base — what it would be compared with no longer exists. err reports
// digests that disagree: two different sequences below the common base.
func (s System) align(seqs ...types.Suffix) (out []types.Suffix, ok bool, err error) {
	at := 0
	if s.Dropped == nil {
		for _, x := range seqs {
			at = max(at, x.Base)
		}
	}
	for _, x := range seqs {
		if s.Dropped != nil {
			pre, reach := types.Suffix{Ord: s.Dropped}.From(x.Base)
			if !reach || pre.Digest != x.Digest {
				return nil, false, fmt.Errorf("a sequence with base %d is not a suffix of the %d dropped labels", x.Base, len(s.Dropped))
			}
			x = types.Suffix{Ord: append(s.Dropped[:x.Base:x.Base], x.Ord...)}
		} else if x, ok = x.From(at); !ok {
			return nil, false, nil
		}
		if len(out) > 0 && x.Digest != out[0].Digest {
			return nil, false, fmt.Errorf("sequences differ below position %d", at)
		}
		out = append(out, x)
	}
	return out, true, nil
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
		for p := v.Members.First(); p >= 0; p = v.Members.Next(p) {
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
		var bos []types.Suffix
		vacuous := false
		for p := v.Members.First(); p >= 0; p = v.Members.Next(p) {
			cur, has := s.Nodes[p].Current()
			if !has || !v.ID.Less(cur.ID) {
				continue
			}
			if !s.Nodes[p].Established(v.ID) {
				vacuous = true
				break
			}
			bos = append(bos, s.Nodes[p].buildOrder[v.ID])
		}
		if vacuous {
			continue
		}
		// Orders and summaries are suffixes; an instance that cannot be
		// aligned (see align) says nothing.
		bos, ok, err := s.align(bos...)
		if err != nil {
			return fmt.Errorf("6.3: build orders of view %s: %w", v, err)
		}
		var sigma types.Suffix
		for i, bo := range bos {
			if i == 0 {
				sigma = bo
			} else {
				sigma.Ord = types.CommonPrefix(sigma.Ord, bo.Ord)
			}
		}
		for _, x := range allstate {
			if !v.ID.Less(x.High) {
				continue
			}
			if len(bos) == 0 {
				return fmt.Errorf("6.3: summary with high %s exists but no member of %s moved past it", x.High, v)
			}
			pair, ok2, err := s.align(sigma, x.Suffix())
			if err != nil {
				return fmt.Errorf("6.3: view %s and a summary with high %s: %w", v, x.High, err)
			}
			if ok && ok2 && !types.IsPrefix(pair[0].Ord, pair[1].Ord) {
				return fmt.Errorf("6.3: common established prefix of view %s is not a prefix of a summary with high %s", v, x.High)
			}
		}
	}
	return nil
}

// CheckConfirmedConsistent is the end-to-end agreement property the
// invariants exist to support: the confirmed label prefixes of all nodes are
// pairwise consistent (one is a prefix of the other). The whole orders are
// aligned, not the confirmed prefixes: a node drops only what is safe
// everywhere, so at a replayed cut, which is quiescent, every order reaches
// every base, and one that does not has lost labels another node confirmed.
func (s System) CheckConfirmedConsistent() error {
	orders := make([]types.Suffix, len(s.Procs))
	for i, p := range s.Procs {
		orders[i] = s.Nodes[p].suffix()
	}
	orders, ok, err := s.align(orders...)
	if err != nil {
		return fmt.Errorf("confirmed orders inconsistent across nodes: %w", err)
	}
	if !ok {
		return fmt.Errorf("confirmed orders inconsistent across nodes: an order ends below another node's base")
	}
	confirmed := make([][]types.Label, len(orders))
	for i, p := range s.Procs {
		confirmed[i] = orders[i].Ord[:max(0, s.Nodes[p].nextConfirm-1-orders[i].Base)]
	}
	if !types.Consistent(confirmed...) {
		return fmt.Errorf("confirmed orders inconsistent across nodes")
	}
	return nil
}
