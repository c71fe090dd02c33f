package conform

import (
	"fmt"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// Per-node invariant projections, run by the replay engine at every window
// boundary. Each is a sound single-node instance of a paper invariant: it
// quantifies only over state owned by the node itself (plus the node's own
// history across boundaries), so it holds at every consistent cut of a
// correct run — no quiescence assumption needed. The full cross-node suite
// (checkCut) runs only at quiescent boundaries, where the in-flight
// components the global formulas implicitly assume empty really are empty.

// localState carries a node's cross-boundary check memory: the confirmed
// prefix's length and last label at the previous check, used to verify the
// prefix only ever grows in place — the per-node shadow of the TO service's
// no-unconfirming guarantee. (The TO core may rebuild its order at view
// establishment; a rebuild that shrank or rewrote the already-confirmed
// prefix would reorder messages already handed to the application.) Lengths
// count the stable prefix the core has truncated, which no rebuild reaches.
type localState struct {
	confirmedLen  int
	confirmedTail types.Label
}

// checkLocal runs the per-node checks for n over its replayed cores,
// attributing violations to window. The DVS projections quantify over
// attempt/ambiguity state only the dynamic filter has; the static filter
// gets its own; the TO projections are filter-independent and run for both.
// A multicast coordinator has no per-node projection: its suite quantifies
// over delivery histories, which only grow.
func checkLocal(rep *Report, window int, n *replayNode) {
	p := n.meta.P
	if n.mc != nil {
		return
	}
	if n.dvs != nil {
		rep.check(window, "DVSIMPL-5.1-local", func() error { return checkLocal51(p, n.dvs) })
		rep.check(window, "DVSIMPL-5.2-local", func() error { return checkLocal52(p, n.dvs) })
	}
	if n.stat != nil {
		rep.check(window, "STATIC-primary-quorum-local", func() error { return checkLocalStaticPrimary(p, n.stat) })
	}
	rep.check(window, "TOIMPL-order-local", func() error { return checkLocalTOOrder(p, n.to) })
	rep.check(window, "TOIMPL-confirmed-monotone", func() error { return checkConfirmedMonotone(p, n.to, &n.local) })
}

// checkLocalStaticPrimary is the static baseline's per-node safety
// projection: any primary the node announced to its client must be a quorum
// of the node's fixed quorum system — the property that makes two static
// primaries intersect.
func checkLocalStaticPrimary(p types.ProcID, sn *dvscore.StaticNode) error {
	cc, ok := sn.ClientCur()
	if !ok {
		return nil
	}
	if !sn.Quorum(cc.Members) {
		return fmt.Errorf("p=%s announced primary %s whose members are not a quorum of P0", p, cc)
	}
	return nil
}

// checkLocal51 is the self instance of Invariant 5.1: if p itself attempted
// v and p ∈ v.set, then cur_p ≠ ⊥ and cur.id_p ≥ v.id.
func checkLocal51(p types.ProcID, dn *dvscore.Node) error {
	for _, v := range dn.Attempted() {
		if !v.Members.Contains(p) {
			continue
		}
		cur, ok := dn.Cur()
		if !ok || cur.ID.Less(v.ID) {
			return fmt.Errorf("p=%s attempted %s but cur_%s < v.id", p, v, p)
		}
	}
	return nil
}

// checkLocal52 is the purely local fragment of Invariant 5.2: part 2
// (ambiguous ids exceed act.id) and the amended part 3 (use ids bounded by
// cur.id; all zero while cur = ⊥). Parts 1 and 4–6 need the cross-node
// totally-registered set and run only in checkCut.
func checkLocal52(p types.ProcID, dn *dvscore.Node) error {
	act := dn.Act()
	amb := dn.Amb()
	for _, w := range amb {
		if !act.ID.Less(w.ID) {
			return fmt.Errorf("5.2(2): amb_%s contains %s with id ≤ act.id %s", p, w, act.ID)
		}
	}
	if cur, ok := dn.Cur(); ok {
		if cur.ID.Less(act.ID) {
			return fmt.Errorf("5.2(3 amended): use_%s contains %s with id > cur.id %s", p, act, cur.ID)
		}
		for _, w := range amb {
			if cur.ID.Less(w.ID) {
				return fmt.Errorf("5.2(3 amended): use_%s contains %s with id > cur.id %s", p, w, cur.ID)
			}
		}
		return nil
	}
	if !act.ID.IsZero() {
		return fmt.Errorf("5.2(3 amended): use_%s contains %s with cur = ⊥", p, act)
	}
	for _, w := range amb {
		if !w.ID.IsZero() {
			return fmt.Errorf("5.2(3 amended): use_%s contains %s with cur = ⊥", p, w)
		}
	}
	return nil
}

// checkLocalTOOrder checks the structural index bounds of the DVS-TO-TO
// automaton: the 1-based report and confirm indices satisfy
// base < nextReport ≤ nextConfirm ≤ |order|+1 — nothing undelivered is
// dropped, delivery never overtakes confirmation, confirmation never
// overtakes the built order.
func checkLocalTOOrder(p types.ProcID, tn *tocore.Node) error {
	nr, nc, n := tn.NextReport(), tn.NextConfirm(), tn.Base()+tn.Retained()
	if tn.Base() >= nr || nc < nr || nc > n+1 {
		return fmt.Errorf("p=%s index bounds broken: base=%d nextReport=%d nextConfirm=%d |order|=%d", p, tn.Base(), nr, nc, n)
	}
	return nil
}

// checkConfirmedMonotone checks that p's confirmed prefix grew in place
// since the previous boundary: it never shrinks, and the label that closed
// the old prefix is still at its position in the new one.
func checkConfirmedMonotone(p types.ProcID, tn *tocore.Node, st *localState) error {
	cur, base := tn.ConfirmedShared(), tn.Base()
	if base+len(cur) < st.confirmedLen {
		return fmt.Errorf("p=%s confirmed prefix shrank from %d to %d", p, st.confirmedLen, base+len(cur))
	}
	if i := st.confirmedLen - 1 - base; i >= 0 && cur[i] != st.confirmedTail {
		return fmt.Errorf("p=%s confirmed prefix rewritten at %d: had %s, now %s",
			p, st.confirmedLen-1, st.confirmedTail, cur[i])
	}
	st.confirmedLen = base + len(cur)
	if len(cur) > 0 {
		st.confirmedTail = cur[len(cur)-1]
	}
	return nil
}
