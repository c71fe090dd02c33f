package dvs

import (
	"fmt"
	"maps"

	"repro/internal/ioa"
	"repro/internal/spec/vs"
	"repro/internal/types"
)

// CheckInvariant41 checks Invariant 4.1 (the key intersection property):
// if v, w ∈ created, v.id < w.id, and there is no x ∈ TotReg with
// v.id < x.id < w.id, then v.set ∩ w.set ≠ {}.
func CheckInvariant41(a *DVS) error {
	buf := a.views()
	defer viewBufs.Put(buf)
	views := *buf
	s := 0 // views[s:i] are the views no totally registered view separates from views[i]
	for i, w := range views {
		for _, v := range views[s:i] {
			if !v.Members.Intersects(w.Members) {
				return fmt.Errorf("views %s and %s disjoint with no intervening totally registered view", v, w)
			}
		}
		if a.totReg(w) {
			s = i
		}
	}
	return nil
}

// CheckInvariant42 checks Invariant 4.2: if v ∈ created, w ∈ TotAtt, and
// v.id < w.id, then some p ∈ v.set has current-viewid[p] > v.id.
//
// "v precedes some totally attempted view" is equivalent to
// v.id < max{w.id : w ∈ TotAtt}, so only the views below the largest
// totally attempted id are checked.
func CheckInvariant42(a *DVS) error {
	buf := a.views()
	defer viewBufs.Put(buf)
	views := *buf
	below := 0 // views[:below] lie below the largest totally attempted view
	for i, v := range views {
		if v.Members.Subset(a.attempted[v.ID]) {
			below = i
		}
	}
	for _, v := range views[:below] {
		ok := false
		for p := v.Members.First(); p >= 0 && !ok; p = v.Members.Next(p) {
			cur, has := a.CurrentViewID(p)
			ok = has && v.ID.Less(cur)
		}
		if !ok {
			return fmt.Errorf("view %s precedes a totally attempted view but every member is still at id ≤ %s", v, v.ID)
		}
	}
	return nil
}

// checkWellFormed validates structural sanity of the representation (the
// channel's Invariant 3.1, attempted/registered sets within membership of
// the corresponding created view, and the counters in order:
// next ≤ Received ≤ |queue| + 1).
func checkWellFormed(a *DVS) error {
	if err := vs.CheckInvariant31(&a.VS); err != nil {
		return err
	}
	for _, x := range []struct {
		name string
		sets map[types.ViewID]types.ProcSet
	}{{"attempted", a.attempted}, {"registered", a.registered}} {
		for g, s := range x.sets {
			v, ok := a.View(g)
			if !ok && s.Len() > 0 {
				return fmt.Errorf("%s[%s] nonempty for uncreated view", x.name, g)
			}
			if ok && !s.Subset(v.Members) {
				return fmt.Errorf("%s[%s] = %s not within members %s", x.name, g, s, v.Members)
			}
		}
	}
	// next[p, g] moves only while g is p's current view and Received never
	// falls, so checking current views in every reached state suffices.
	for u, p := a.Universe(), a.Universe().First(); p >= 0; p = u.Next(p) {
		g, ok := a.CurrentViewID(p)
		if n, got := a.Next(p, g), a.Received(p, g); ok && n > got {
			return fmt.Errorf("next[%s,%s] = %d exceeds received %d", p, g, n, got)
		}
	}
	for k, r := range a.rcvd {
		if n := len(a.QueueShared(k.G)); r > n+1 {
			return fmt.Errorf("rcvd[%s,%s] = %d exceeds queue length %d", k.P, k.G, r, n)
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
	vs.State
	Attempted  map[types.ViewID]types.ProcSet
	Registered map[types.ViewID]types.ProcSet
	Rcvd       vs.Counter // amended spec only
	Literal    bool
	Drained    bool
}

// FromState constructs a DVS automaton holding exactly the given state,
// which it does not share.
func FromState(st State) *DVS {
	a := &DVS{
		VS:         *vs.FromState(st.State),
		attempted:  make(map[types.ViewID]types.ProcSet, len(st.Attempted)),
		registered: make(map[types.ViewID]types.ProcSet, len(st.Registered)),
		rcvd:       st.Rcvd.Copy(),
		literal:    st.Literal,
		drained:    st.Drained,
	}
	maps.Copy(a.attempted, st.Attempted)
	maps.Copy(a.registered, st.Registered)
	return a
}
