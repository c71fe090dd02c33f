package dvscore

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// This file mechanizes Invariants 5.1–5.6 of the paper as executable checks
// over a collection of VS-TO-DVS_p states. The formulas are written once,
// against System, and shared by both consumers: the exhaustive checker
// (invariants.go wraps them as ioa invariants over reachable DVS-IMPL
// states) and the trace-conformance replayer (internal/conform evaluates
// them on the global cut reconstructed from runtime event logs).
//
// A note on Invariants 5.2.3 and 5.3.1: the paper's printed statements are
// slightly stronger than what the algorithm maintains.
//
//   - 5.2.3 as printed says every view in use_p = {act_p} ∪ amb_p has id
//     ≤ client-cur.id_p. But p updates act/amb upon *receiving* info
//     messages in its VS-current view cur_p, which may run ahead of
//     client-cur_p; p can therefore learn of views attempted by others with
//     ids strictly between client-cur.id_p and cur.id_p. The property the
//     proofs actually use at dvs-newview(v)_p steps is w.id < v.id = cur.id,
//     which follows from the amended bound w.id ≤ cur.id_p together with
//     Invariant 5.2.6 (info contents have ids < the view they were sent in).
//     CheckInvariant52Part3Literal checks the printed bound; CheckInvariant52
//     checks the amended bound. Tests demonstrate the printed bound is
//     violated on reachable states while the amended one holds.
//
//   - 5.3.1 as printed omits the premise w.id < g: after p attempts the view
//     v with v.id = g itself, v ∈ attempted_p but v is (correctly) not in
//     the info p sent for g. We check 5.3.1 with the w.id < g premise, which
//     is exactly the instance the proof of Invariant 5.4 uses.

// System is a global cut of the DVS implementation: one VS-TO-DVS_p state
// per process plus the set of views known to exist. The exhaustive checker
// populates Created with the VS specification's created set; the runtime
// replayer, which has no VS oracle, leaves Created nil and the formulas fall
// back to the views recoverable from the node states themselves (the union
// of the attempted sets for the derived variables, and each node's own
// info-sent/info-rcvd keys for the per-view quantifications — every such
// view is VS-created in any real execution, so the fallback checks the same
// instances).
type System struct {
	Procs   []types.ProcID
	Nodes   map[types.ProcID]*Node
	Created []types.View // shared, sorted by id; nil ⇒ derive from node states
}

// created returns the view universe the derived variables Att and TotReg
// range over: Created when supplied, else ∪_p attempted_p.
func (s System) created() []types.View {
	if s.Created != nil {
		return s.Created
	}
	byID := make(map[types.ViewID]types.View)
	for _, p := range s.Procs {
		for _, v := range s.Nodes[p].attempted {
			byID[v.ID] = v
		}
	}
	out := make([]types.View, 0, len(byID))
	for _, v := range byID {
		out = append(out, v)
	}
	types.SortViews(out)
	return out
}

// att returns Att = {v ∈ created | ∃p ∈ v.set: v ∈ attempted_p}, sorted by
// id.
func (s System) att() []types.View {
	var out []types.View
	for _, v := range s.created() {
		for p := v.Members.First(); p >= 0; p = v.Members.Next(p) {
			if _, ok := s.Nodes[p].attempted[v.ID]; ok {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// totReg returns TotReg = {v ∈ created | ∀p ∈ v.set: reg[v.id]_p}, sorted
// by id.
func (s System) totReg() []types.View {
	var out []types.View
	for _, v := range s.created() {
		all := true
		for p := v.Members.First(); p >= 0; p = v.Members.Next(p) {
			if !s.Nodes[p].reg[v.ID] {
				all = false
				break
			}
		}
		if all {
			out = append(out, v)
		}
	}
	return out
}

// totRegIDs returns the ids of the totally registered views, sorted.
func (s System) totRegIDs() []types.ViewID {
	tot := s.totReg()
	out := make([]types.ViewID, len(tot))
	for i, v := range tot {
		out[i] = v.ID
	}
	return out
}

// createdIDs returns the ids of Created, or nil if it is not supplied.
func (s System) createdIDs() []types.ViewID {
	if s.Created == nil {
		return nil
	}
	out := make([]types.ViewID, len(s.Created))
	for i, v := range s.Created {
		out[i] = v.ID
	}
	return out
}

// infoViewIDs returns the ids the per-view quantifications of 5.2(4,5,6) and
// 5.3 range over at node n: created, the createdIDs of a System that
// supplies Created, else the keys of n's own info-sent and info-rcvd maps,
// sorted.
func (s System) infoViewIDs(n *Node, created []types.ViewID) []types.ViewID {
	if s.Created != nil {
		return created
	}
	seen := make(map[types.ViewID]struct{}, len(n.infoSent))
	for g := range n.infoSent {
		seen[g] = struct{}{}
	}
	for k := range n.infoRcvd {
		seen[k.G] = struct{}{}
	}
	out := make([]types.ViewID, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// hasIDBetween reports whether the sorted id list has an element strictly
// between lo and hi.
func hasIDBetween(ids []types.ViewID, lo, hi types.ViewID) bool {
	for _, x := range ids {
		if !lo.Less(x) {
			continue
		}
		return x.Less(hi)
	}
	return false
}

// CheckInvariant51 checks Invariant 5.1: if v ∈ attempted_p and q ∈ v.set
// then cur.id_q ≥ v.id.
func (s System) CheckInvariant51() error {
	for _, p := range s.Procs {
		for _, v := range s.Nodes[p].attempted {
			for q := v.Members.First(); q >= 0; q = v.Members.Next(q) {
				nq := s.Nodes[q]
				if !nq.curOK || nq.cur.ID.Less(v.ID) {
					return fmt.Errorf("p=%s attempted %s but cur_%s < v.id", p, v, q)
				}
			}
		}
	}
	return nil
}

// CheckInvariant52 checks parts 1, 2, 4, 5, 6 of Invariant 5.2 as printed,
// and part 3 in the amended form w ∈ use_p ⇒ w.id ≤ cur.id_p.
func (s System) CheckInvariant52() error {
	totIDs, created := s.totRegIDs(), s.createdIDs()
	totReg := make(map[types.ViewID]struct{}, len(totIDs))
	for _, id := range totIDs {
		totReg[id] = struct{}{}
	}
	for _, p := range s.Procs {
		n := s.Nodes[p]
		act := n.act
		// (1) act_p ∈ TotReg.
		if _, ok := totReg[act.ID]; !ok {
			return fmt.Errorf("5.2(1): act_%s = %s not totally registered", p, act)
		}
		// (2) w ∈ amb_p ⇒ act.id_p < w.id.
		for _, w := range n.amb {
			if !act.ID.Less(w.ID) {
				return fmt.Errorf("5.2(2): amb_%s contains %s with id ≤ act.id %s", p, w, act.ID)
			}
		}
		// (3 amended) w ∈ use_p = {act} ∪ amb ⇒ w.id ≤ cur.id_p (when
		// cur ≠ ⊥; when cur = ⊥, use_p = {v0}).
		if n.curOK {
			cur := n.cur
			if cur.ID.Less(act.ID) {
				return fmt.Errorf("5.2(3 amended): use_%s contains %s with id > cur.id %s", p, act, cur.ID)
			}
			for _, w := range n.amb {
				if cur.ID.Less(w.ID) {
					return fmt.Errorf("5.2(3 amended): use_%s contains %s with id > cur.id %s", p, w, cur.ID)
				}
			}
		} else {
			if !act.ID.IsZero() {
				return fmt.Errorf("5.2(3 amended): use_%s contains %s with cur = ⊥", p, act)
			}
			for _, w := range n.amb {
				if !w.ID.IsZero() {
					return fmt.Errorf("5.2(3 amended): use_%s contains %s with cur = ⊥", p, w)
				}
			}
		}
		// (4,5,6) info-sent constraints.
		for _, g := range s.infoViewIDs(n, created) {
			info, ok := n.infoSent[g]
			if !ok {
				continue
			}
			if _, reg := totReg[info.Act.ID]; !reg {
				return fmt.Errorf("5.2(4): info-sent[%s]_%s has act %s not totally registered", g, p, info.Act)
			}
			for _, w := range info.Amb {
				if !info.Act.ID.Less(w.ID) {
					return fmt.Errorf("5.2(5): info-sent[%s]_%s has amb view %s with id ≤ act.id", g, p, w)
				}
			}
			if !info.Act.ID.Less(g) {
				return fmt.Errorf("5.2(6): info-sent[%s]_%s contains %s with id ≥ g", g, p, info.Act)
			}
			for _, w := range info.Amb {
				if !w.ID.Less(g) {
					return fmt.Errorf("5.2(6): info-sent[%s]_%s contains %s with id ≥ g", g, p, w)
				}
			}
		}
	}
	return nil
}

// CheckInvariant52Part3Literal checks part 3 of Invariant 5.2 exactly as
// printed in the paper: if client-cur_p ≠ ⊥ and w ∈ {act_p} ∪ amb_p then
// w.id ≤ client-cur.id_p. See the file comment: this printed bound is
// falsifiable on reachable states; it is provided so tests can demonstrate
// the discrepancy.
func (s System) CheckInvariant52Part3Literal() error {
	for _, p := range s.Procs {
		n := s.Nodes[p]
		if !n.clientCurOK {
			continue
		}
		cc := n.clientCur
		// use_p = {act} ∪ amb in id order: amb ids exceed act.id (5.2(2)).
		for _, w := range append([]types.View{n.act}, sortedViews(n.amb)...) {
			if cc.ID.Less(w.ID) {
				return fmt.Errorf("5.2(3 literal): use_%s contains %s with id > client-cur.id %s", p, w, cc.ID)
			}
		}
	}
	return nil
}

// CheckInvariant53 checks Invariant 5.3:
//
//	(1) if info-sent[g]_p = ⟨x, X⟩ and w ∈ attempted_p with w.id < g, then
//	    w ∈ {x} ∪ X or w.id < x.id;
//	(2) if info-rcvd[q, g]_p = ⟨x, X⟩ and w ∈ {x} ∪ X, then w ∈ use_p or
//	    w.id < act.id_p.
func (s System) CheckInvariant53() error {
	created := s.createdIDs()
	for _, p := range s.Procs {
		n := s.Nodes[p]
		actID := n.act.ID
		for _, g := range s.infoViewIDs(n, created) {
			if info, ok := n.infoSent[g]; ok {
				for _, w := range n.attempted {
					if !w.ID.Less(g) {
						continue
					}
					if viewIn(w, info.Act, info.Amb) || w.ID.Less(info.Act.ID) {
						continue
					}
					return fmt.Errorf("5.3(1): p=%s info-sent[%s] omits attempted %s", p, g, w)
				}
			}
			for _, q := range s.Procs {
				info, ok := n.infoRcvd[procViewKey{q, g}]
				if !ok {
					continue
				}
				if !n.inUse(info.Act.ID) && !info.Act.ID.Less(actID) {
					return fmt.Errorf("5.3(2): p=%s info-rcvd[%s,%s] view %s neither in use nor below act", p, q, g, info.Act)
				}
				for _, w := range info.Amb {
					if n.inUse(w.ID) || w.ID.Less(actID) {
						continue
					}
					return fmt.Errorf("5.3(2): p=%s info-rcvd[%s,%s] view %s neither in use nor below act", p, q, g, w)
				}
			}
		}
	}
	return nil
}

// CheckInvariant54 checks Invariant 5.4: if v ∈ attempted_p, q ∈ v.set,
// w ∈ attempted_q, w.id < v.id, and no x ∈ TotReg has w.id < x.id < v.id,
// then |v.set ∩ w.set| > |w.set|/2.
func (s System) CheckInvariant54() error {
	totIDs := s.totRegIDs()
	for _, p := range s.Procs {
		for _, v := range s.Nodes[p].attempted {
			for q := v.Members.First(); q >= 0; q = v.Members.Next(q) {
				for _, w := range s.Nodes[q].attempted {
					if !w.ID.Less(v.ID) {
						continue
					}
					if hasIDBetween(totIDs, w.ID, v.ID) {
						continue
					}
					if !v.Members.MajorityOf(w.Members) {
						return fmt.Errorf("5.4: v=%s (att by %s), w=%s (att by %s ∈ v.set): no majority intersection", v, p, w, q)
					}
				}
			}
		}
	}
	return nil
}

// CheckInvariant55 checks Invariant 5.5: if v ∈ Att, w ∈ TotReg, w.id <
// v.id, and no x ∈ TotReg has w.id < x.id < v.id, then |v.set ∩ w.set| >
// |w.set|/2.
func (s System) CheckInvariant55() error {
	att := s.att()
	totReg := s.totReg()
	for _, v := range att {
		// totReg is sorted by id, so in descending order the first w below v
		// is itself totally registered: every earlier w' has w strictly
		// between w' and v, so only this w needs checking.
		for j := len(totReg) - 1; j >= 0; j-- {
			w := totReg[j]
			if !w.ID.Less(v.ID) {
				continue
			}
			if !v.Members.MajorityOf(w.Members) {
				return fmt.Errorf("5.5: v=%s, w=%s ∈ TotReg: no majority intersection", v, w)
			}
			break
		}
	}
	return nil
}

// CheckInvariant56 checks Invariant 5.6 (the corollary used in the
// refinement proof): if v, w ∈ Att, w.id < v.id, and no x ∈ TotReg has
// w.id < x.id < v.id, then v.set ∩ w.set ≠ {}.
func (s System) CheckInvariant56() error {
	att := s.att()
	totIDs := s.totRegIDs()
	for i := 1; i < len(att); i++ {
		v := att[i]
		// att is sorted by id; scanning w downward, once a totally
		// registered id separates w from v it separates every lower w too.
		for j := i - 1; j >= 0; j-- {
			w := att[j]
			if hasIDBetween(totIDs, w.ID, v.ID) {
				break
			}
			if !v.Members.Intersects(w.Members) {
				return fmt.Errorf("5.6: attempted views %s and %s disjoint with no intervening totally registered view", w, v)
			}
		}
	}
	return nil
}

func viewIn(w, act types.View, amb []types.View) bool {
	if w.ID == act.ID {
		return true
	}
	for _, x := range amb {
		if w.ID == x.ID {
			return true
		}
	}
	return false
}
