package mcastcore

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

func mustStep(t *testing.T, n *Node, ev Event) []Effect {
	t.Helper()
	var out Outbox
	if err := Step(n, ev, &out); err != nil {
		t.Fatalf("Step(%+v): %v", ev, err)
	}
	return out.Effects
}

// drive pushes one node through a scripted sequence of per-group
// total-order deliveries.
func delivers(effects []Effect) []FxDeliver {
	var out []FxDeliver
	for _, fx := range effects {
		if d, ok := fx.(FxDeliver); ok {
			out = append(out, d)
		}
	}
	return out
}

// TestSubmitEmitsDataPerGroup checks the submit path: one FxSendData per
// destination group, in sorted group order, with a core-assigned unique id.
func TestSubmitEmitsDataPerGroup(t *testing.T) {
	n := NewNode(3, types.RangeGroups(3))
	fx := mustStep(t, n, EvSubmit{Dests: []types.GroupID{0, 2}, Payload: "a"})
	if len(fx) != 2 {
		t.Fatalf("want 2 effects, got %d: %+v", len(fx), fx)
	}
	var ids []string
	for i, want := range []types.GroupID{0, 2} {
		sd, ok := fx[i].(FxSendData)
		if !ok || sd.To != want || sd.Origin != 3 || sd.Payload != "a" {
			t.Fatalf("effect %d: want FxSendData to %v, got %+v", i, want, fx[i])
		}
		ids = append(ids, sd.ID)
	}
	if ids[0] != ids[1] {
		t.Fatalf("one message, two ids: %v", ids)
	}
	fx2 := mustStep(t, n, EvSubmit{Dests: []types.GroupID{1}, Payload: "b"})
	if sd := fx2[0].(FxSendData); sd.ID == ids[0] {
		t.Fatalf("second submit reused id %q", sd.ID)
	}
}

// TestSubmitRejectsBadDests checks destination-set validation: empty,
// unsorted, duplicated, and non-member sets are all rejected without state
// change.
func TestSubmitRejectsBadDests(t *testing.T) {
	n := NewNode(0, types.RangeGroups(2))
	for _, dests := range [][]types.GroupID{nil, {1, 0}, {0, 0}, {0, 5}} {
		var out Outbox
		if err := Step(n, EvSubmit{Dests: dests, Payload: "x"}, &out); err == nil {
			t.Fatalf("submit to %v: want error", dests)
		}
	}
	if n.nextID != 0 {
		t.Fatalf("rejected submits consumed ids: nextID=%d", n.nextID)
	}
}

// TestSingleGroupDelivery runs the degenerate single-destination flow end
// to end on one node: a single-group message needs no proposal exchange —
// every member holds the full proposal set (its own group's) the moment
// the data is ordered, so it delivers at the data step.
func TestSingleGroupDelivery(t *testing.T) {
	n := NewNode(0, types.RangeGroups(1))
	sub := mustStep(t, n, EvSubmit{Dests: []types.GroupID{0}, Payload: "a"})
	sd := sub[0].(FxSendData)

	fx := mustStep(t, n, EvData{Group: 0, ID: sd.ID, Origin: 0, Dests: sd.Dests, Payload: "a"})
	ds := delivers(fx)
	if len(fx) != 1 || len(ds) != 1 || ds[0].ID != sd.ID || ds[0].TS != 1 || ds[0].Group != 0 {
		t.Fatalf("want exactly one delivery of %q at ts 1, got %+v", sd.ID, fx)
	}
	if got := n.Delivered(0); len(got) != 1 || got[0].Payload != "a" {
		t.Fatalf("history: %+v", got)
	}
}

// TestMaxMergeFinalTimestamp checks the Skeen merge on a two-group
// message: the final timestamp is the max of the groups' proposals and the
// message is delivered at that timestamp in both groups.
func TestMaxMergeFinalTimestamp(t *testing.T) {
	n := NewNode(0, types.RangeGroups(2))
	both := []types.GroupID{0, 1}

	// Group 1 has seen traffic before: its clock is ahead.
	mustStep(t, n, EvData{Group: 1, ID: "9.0", Origin: 9, Dests: []types.GroupID{1}, Payload: "pre"})
	mustStep(t, n, EvData{Group: 1, ID: "9.1", Origin: 9, Dests: []types.GroupID{1}, Payload: "pre2"})

	sub := mustStep(t, n, EvSubmit{Dests: both, Payload: "m"})
	id := sub[0].(FxSendData).ID

	// Data ordered in both groups: proposals 1 (group 0) and 3 (group 1),
	// each broadcast toward the other destination group only.
	fx0 := mustStep(t, n, EvData{Group: 0, ID: id, Origin: 0, Dests: both, Payload: "m"})
	fx1 := mustStep(t, n, EvData{Group: 1, ID: id, Origin: 0, Dests: both, Payload: "m"})
	p0 := fx0[0].(FxSendProp)
	p1 := fx1[0].(FxSendProp)
	if p0.TS != 1 || p0.To != 1 || p1.TS != 3 || p1.To != 0 {
		t.Fatalf("proposals: got %+v and %+v, want ts 1 to group 1 and ts 3 to group 0", p0, p1)
	}

	// Each group receives the other's proposal; delivery at max(1, 3) = 3.
	fx := mustStep(t, n, EvProposal{Group: 0, PGroup: 1, ID: id, TS: p1.TS})
	if ds := delivers(fx); len(ds) != 1 || ds[0].TS != 3 {
		t.Fatalf("group 0: want delivery at ts 3, got %+v", fx)
	}
	fx = mustStep(t, n, EvProposal{Group: 1, PGroup: 0, ID: id, TS: p0.TS})
	if ds := delivers(fx); len(ds) != 1 || ds[0].TS != 3 {
		t.Fatalf("group 1: want delivery at ts 3, got %+v", fx)
	}
	if err := CheckAll([]DeliverySeq{
		{P: 0, G: 0, Deliveries: n.Delivered(0)},
		{P: 0, G: 1, Deliveries: n.Delivered(1)},
	}); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestHeadOfLineBlocksDelivery checks the safety rule the (ts, id) queue
// exists for: a finalized message must wait while a non-final message with
// a smaller effective timestamp is ahead of it, because the latter could
// still finalize below.
func TestHeadOfLineBlocksDelivery(t *testing.T) {
	n := NewNode(5, types.RangeGroups(2))
	both := []types.GroupID{0, 1}

	// m1 (from node 1) is ordered first in group 0: proposal 1, not final
	// until group 1's proposal arrives.
	mustStep(t, n, EvData{Group: 0, ID: "1.0", Origin: 1, Dests: both, Payload: "m1"})
	// m2 (from node 2) ordered second: proposal 2, then finalized at 2 by
	// group 1's smaller proposal.
	mustStep(t, n, EvData{Group: 0, ID: "2.0", Origin: 2, Dests: both, Payload: "m2"})
	fx := mustStep(t, n, EvProposal{Group: 0, PGroup: 1, ID: "2.0", TS: 1})
	if len(delivers(fx)) != 0 {
		t.Fatalf("m2 delivered past non-final m1: %+v", fx)
	}

	// m1 finalizes at max(1, 4) = 4 > 2: m2 then delivers first, m1 after.
	fx = mustStep(t, n, EvProposal{Group: 0, PGroup: 1, ID: "1.0", TS: 4})
	ds := delivers(fx)
	if len(ds) != 2 || ds[0].ID != "2.0" || ds[0].TS != 2 || ds[1].ID != "1.0" || ds[1].TS != 4 {
		t.Fatalf("want m2@2 then m1@4, got %+v", ds)
	}
}

// TestProposalBeforeData checks the overtaking case: another group's
// proposal arrives through this group's order before the data does, and
// the message still delivers exactly once with the right final timestamp.
func TestProposalBeforeData(t *testing.T) {
	n := NewNode(5, types.RangeGroups(2))
	both := []types.GroupID{0, 1}

	fx := mustStep(t, n, EvProposal{Group: 0, PGroup: 1, ID: "1.0", TS: 7})
	if len(delivers(fx)) != 0 {
		t.Fatalf("delivered before data: %+v", fx)
	}
	// The Lamport bump: clock advanced to the proposal.
	if n.Clock(0) != 7 {
		t.Fatalf("clock after proposal: %d, want 7", n.Clock(0))
	}
	// Once the data is ordered, group 0 assigns its own proposal past the
	// bump (8 > 7), completing the set: delivery fires at the data step.
	fx = mustStep(t, n, EvData{Group: 0, ID: "1.0", Origin: 1, Dests: both, Payload: "m"})
	ds := delivers(fx)
	if len(ds) != 1 || ds[0].TS != 8 {
		t.Fatalf("want delivery at ts 8 (data after bump = 8 > 7), got %+v", fx)
	}
}

// TestDuplicatesIdempotent checks that re-ordered duplicates of data and
// proposals (VS retransmission artifacts) neither re-deliver nor resurrect
// completed messages.
func TestDuplicatesIdempotent(t *testing.T) {
	n := NewNode(0, types.RangeGroups(1))
	one := []types.GroupID{0}
	mustStep(t, n, EvData{Group: 0, ID: "1.0", Origin: 1, Dests: one, Payload: "m"})
	mustStep(t, n, EvProposal{Group: 0, PGroup: 0, ID: "1.0", TS: 1})
	if got := n.DeliveredCount(0); got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	// Late duplicates of both the data and the proposal.
	fx := mustStep(t, n, EvData{Group: 0, ID: "1.0", Origin: 1, Dests: one, Payload: "m"})
	fx = append(fx, mustStep(t, n, EvProposal{Group: 0, PGroup: 0, ID: "1.0", TS: 1})...)
	if len(fx) != 0 {
		t.Fatalf("duplicates produced effects: %+v", fx)
	}
	if got := n.DeliveredCount(0); got != 1 {
		t.Fatalf("after duplicates: delivered %d, want 1", got)
	}
	if n.PendingCount(0) != 0 {
		t.Fatalf("duplicate resurrected a pending entry")
	}
}

// TestOnlyOriginProposes checks the dissemination rule: a non-origin
// member assigns the proposal locally but does not broadcast it.
func TestOnlyOriginProposes(t *testing.T) {
	n := NewNode(5, types.RangeGroups(2))
	fx := mustStep(t, n, EvData{Group: 0, ID: "1.0", Origin: 1, Dests: []types.GroupID{0, 1}, Payload: "m"})
	if len(fx) != 0 {
		t.Fatalf("non-origin emitted effects on data: %+v", fx)
	}
	if n.Clock(0) != 1 {
		t.Fatalf("non-origin did not assign the proposal: clock %d", n.Clock(0))
	}
}

// TestCloneIndependence checks that Clone is a deep copy: mutating the
// original does not leak into the clone's fingerprint.
func TestCloneIndependence(t *testing.T) {
	n := NewNode(0, types.RangeGroups(2))
	mustStep(t, n, EvData{Group: 0, ID: "1.0", Origin: 1, Dests: []types.GroupID{0, 1}, Payload: "m"})
	c := n.Clone()
	before := fpOf(c)
	mustStep(t, n, EvProposal{Group: 0, PGroup: 1, ID: "1.0", TS: 9})
	mustStep(t, n, EvData{Group: 1, ID: "1.0", Origin: 1, Dests: []types.GroupID{0, 1}, Payload: "m"})
	if got := fpOf(c); got != before {
		t.Fatalf("clone changed when original stepped: %q vs %q", before, got)
	}
	if fpOf(n) == before {
		t.Fatalf("original did not change")
	}
}

func fpOf(n *Node) string { return ioa.Render(n) }

// TestCrossGroupOrderViolationCaught checks the checker itself: a
// fabricated pair of histories that disagree on the relative order of two
// shared messages must be rejected.
func TestCrossGroupOrderViolationCaught(t *testing.T) {
	a := DeliverySeq{P: 0, G: 0, Deliveries: []Delivered{
		{ID: "1.0", Origin: 1, Payload: "x", TS: 1},
		{ID: "2.0", Origin: 2, Payload: "y", TS: 2},
	}}
	b := DeliverySeq{P: 0, G: 1, Deliveries: []Delivered{
		{ID: "2.0", Origin: 2, Payload: "y", TS: 2},
		{ID: "1.0", Origin: 1, Payload: "x", TS: 3},
	}}
	if err := CheckCrossGroupOrder([]DeliverySeq{a, b}); err == nil {
		t.Fatalf("reversed common order not caught")
	}
	// And the (ts, id) order check catches b's non-monotone timestamps
	// being fine (3 after 2 is monotone) but a true regression is not.
	bad := DeliverySeq{P: 0, G: 0, Deliveries: []Delivered{
		{ID: "1.0", TS: 5}, {ID: "2.0", TS: 4},
	}}
	if err := CheckTimestampOrder([]DeliverySeq{bad}); err == nil {
		t.Fatalf("timestamp regression not caught")
	}
}
