package dvs

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/types"
)

// CheckInvariant41 checks Invariant 4.1 (the key intersection property):
// if v, w ∈ created, v.id < w.id, and there is no x ∈ TotReg with
// v.id < x.id < w.id, then v.set ∩ w.set ≠ {}.
func CheckInvariant41(a *DVS) error {
	snap := a.sortedTotReg()
	defer putTotReg(snap)
	ids, tot := snap.ids, snap.tot
	for i, vid := range ids {
		v := a.created[vid]
		// In id order, the first totally registered view after i lies
		// strictly between v and every later view, exempting those pairs;
		// the scan stops there after checking the flagged view itself.
		for j := i + 1; j < len(ids); j++ {
			w := a.created[ids[j]]
			if !v.Members.Intersects(w.Members) {
				return fmt.Errorf("views %s and %s disjoint with no intervening totally registered view", v, w)
			}
			if tot[j] {
				break
			}
		}
	}
	return nil
}

// CheckInvariant42 checks Invariant 4.2: if v ∈ created, w ∈ TotAtt, and
// v.id < w.id, then some p ∈ v.set has current-viewid[p] > v.id.
//
// "v precedes some totally attempted view" is equivalent to
// v.id < max{w.id : w ∈ TotAtt}, so one pass over created computes the
// largest totally attempted id and a second pass checks the affected views.
// Both passes read the state maps directly — the cloning TotAtt()/Created()
// snapshots this check used to take dominated the allocation profile of
// per-step invariant checking (Clone of every view's membership, every
// state).
func CheckInvariant42(a *DVS) error {
	var maxAtt types.ViewID
	haveAtt := false
	for id, v := range a.created {
		if att, ok := a.attempted[id]; ok && v.Members.Subset(att) {
			if !haveAtt || maxAtt.Less(id) {
				maxAtt = id
				haveAtt = true
			}
		}
	}
	if !haveAtt {
		return nil
	}
	for id, v := range a.created {
		if !id.Less(maxAtt) {
			continue
		}
		ok := false
		for p := v.Members.First(); p >= 0; p = v.Members.Next(p) {
			if cur, has := a.current[p]; has && id.Less(cur) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("view %s precedes a totally attempted view but every member is still at id ≤ %s", v, id)
		}
	}
	return nil
}

// checkWellFormed validates structural sanity of the representation (unique
// ids by construction, attempted/registered sets within membership of the
// corresponding created view, queue contents are client messages).
func checkWellFormed(a *DVS) error {
	for id, v := range a.created {
		if v.ID != id {
			return fmt.Errorf("created view %s stored under id %s", v, id)
		}
		if v.Members.Len() == 0 {
			return fmt.Errorf("created view %s has empty membership", v)
		}
	}
	for g, s := range a.attempted {
		v, ok := a.created[g]
		if !ok {
			if s.Len() > 0 {
				return fmt.Errorf("attempted[%s] nonempty for uncreated view", g)
			}
			continue
		}
		if !s.Subset(v.Members) {
			return fmt.Errorf("attempted[%s] = %s not within members %s", g, s, v.Members)
		}
	}
	for g, s := range a.registered {
		v, ok := a.created[g]
		if !ok {
			if s.Len() > 0 {
				return fmt.Errorf("registered[%s] nonempty for uncreated view", g)
			}
			continue
		}
		if !s.Subset(v.Members) {
			return fmt.Errorf("registered[%s] = %s not within members %s", g, s, v.Members)
		}
	}
	if !a.literal {
		for k := range a.next {
			if a.Next(k.P, k.G) > a.Rcvd(k.P, k.G) {
				return fmt.Errorf("next[%s,%s] = %d exceeds rcvd %d", k.P, k.G, a.Next(k.P, k.G), a.Rcvd(k.P, k.G))
			}
		}
		for k := range a.rcvd {
			if a.Rcvd(k.P, k.G) > len(a.queues[k.G])+1 {
				return fmt.Errorf("rcvd[%s,%s] = %d exceeds queue length %d", k.P, k.G, a.Rcvd(k.P, k.G), len(a.queues[k.G]))
			}
		}
	}
	return nil
}

// Invariants returns the paper's DVS invariants (plus representation
// well-formedness) as ioa invariants.
func Invariants() []ioa.Invariant {
	wrap := func(name string, check func(*DVS) error) ioa.Invariant {
		return ioa.Invariant{
			Name: name,
			Check: func(a ioa.Automaton) error {
				d, ok := a.(*DVS)
				if !ok {
					return fmt.Errorf("DVS invariant on %T", a)
				}
				return check(d)
			},
		}
	}
	return []ioa.Invariant{
		wrap("DVS-wellformed", checkWellFormed),
		wrap("DVS-4.1", CheckInvariant41),
		wrap("DVS-4.2", CheckInvariant42),
	}
}

// State describes an explicit DVS state; it is used by the refinement
// mapping F (Figure 4) to construct the abstract state corresponding to an
// implementation state.
type State struct {
	Universe   types.ProcSet
	Initial    types.View
	Created    []types.View
	Current    map[types.ProcID]types.ViewID // omit key for ⊥
	Attempted  map[types.ViewID]types.ProcSet
	Registered map[types.ViewID]types.ProcSet
	Queues     map[types.ViewID][]Entry
	Pending    map[types.ProcID]map[types.ViewID][]types.Msg
	Next       map[types.ProcID]map[types.ViewID]int
	NextSafe   map[types.ProcID]map[types.ViewID]int
	Rcvd       map[types.ProcID]map[types.ViewID]int // amended spec only
	Literal    bool
	Drained    bool
}

// FromState constructs a DVS automaton holding exactly the given state.
// Inputs are deep-copied.
func FromState(st State) *DVS {
	a := &DVS{
		literal:    st.Literal,
		drained:    st.Drained,
		universe:   st.Universe,
		initial:    st.Initial,
		created:    make(map[types.ViewID]types.View, len(st.Created)),
		current:    make(map[types.ProcID]types.ViewID, len(st.Current)),
		queues:     make(map[types.ViewID][]Entry, len(st.Queues)),
		attempted:  make(map[types.ViewID]types.ProcSet, len(st.Attempted)),
		registered: make(map[types.ViewID]types.ProcSet, len(st.Registered)),
		pending:    make(map[procView][]types.Msg),
		next:       make(map[procView]int),
		nextSafe:   make(map[procView]int),
		rcvd:       make(map[procView]int),
	}
	for _, v := range st.Created {
		a.created[v.ID] = v
	}
	for p, g := range st.Current {
		a.current[p] = g
	}
	for g, q := range st.Queues {
		if len(q) > 0 {
			a.queues[g] = types.CloneSeq(q)
		}
	}
	for g, s := range st.Attempted {
		if s.Len() > 0 {
			a.attempted[g] = s
		}
	}
	for g, s := range st.Registered {
		if s.Len() > 0 {
			a.registered[g] = s
		}
	}
	for p, byView := range st.Pending {
		for g, msgs := range byView {
			if len(msgs) > 0 {
				a.pending[procView{p, g}] = types.CloneSeq(msgs)
			}
		}
	}
	for p, byView := range st.Next {
		for g, n := range byView {
			if n != 1 {
				a.next[procView{p, g}] = n
			}
		}
	}
	for p, byView := range st.NextSafe {
		for g, n := range byView {
			if n != 1 {
				a.nextSafe[procView{p, g}] = n
			}
		}
	}
	for p, byView := range st.Rcvd {
		for g, n := range byView {
			if n != 1 {
				a.rcvd[procView{p, g}] = n
			}
		}
	}
	return a
}
