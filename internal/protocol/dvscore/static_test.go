package dvscore

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/types"
)

func newStatic(t *testing.T) (*StaticNode, types.View) {
	t.Helper()
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	return NewStaticNode(0, v0, true), v0
}

// TestStaticQuorumMajority pins the static rule: a quorum is a strict
// majority of P0, and members outside P0 do not count.
func TestStaticQuorumMajority(t *testing.T) {
	p0 := types.RangeProcSet(5)
	n := NewStaticNode(0, types.InitialView(p0), true)
	if n.Quorum(types.NewProcSet(0, 1)) {
		t.Error("2 of 5 accepted")
	}
	if !n.Quorum(types.NewProcSet(0, 1, 2)) {
		t.Error("3 of 5 rejected")
	}
	if n.Quorum(types.NewProcSet(7, 8, 9)) {
		t.Error("foreign members counted")
	}
	if n.Quorum(types.NewProcSet(0, 7, 8, 9)) {
		t.Error("foreign members counted towards a P0 member")
	}
}

// TestStaticQuorumEvenP0 pins that half of an even P0 is not a quorum.
func TestStaticQuorumEvenP0(t *testing.T) {
	n := NewStaticNode(0, types.InitialView(types.RangeProcSet(4)), true)
	if n.Quorum(types.NewProcSet(0, 1)) {
		t.Error("half is not a strict majority")
	}
	if !n.Quorum(types.NewProcSet(0, 1, 2)) {
		t.Error("3 of 4 rejected")
	}
}

// TestStaticQuorumIntersection pins that any two static quorums intersect.
func TestStaticQuorumIntersection(t *testing.T) {
	u := types.RangeProcSet(7)
	n := NewStaticNode(0, types.InitialView(u), true)
	rng := rand.New(rand.NewSource(1))
	var quorums []types.ProcSet
	for len(quorums) < 50 {
		if s := types.RandomSubset(rng, u.Sorted()); n.Quorum(s) {
			quorums = append(quorums, s)
		}
	}
	for i := range quorums {
		for j := i + 1; j < len(quorums); j++ {
			if !quorums[i].Intersects(quorums[j]) {
				t.Fatalf("quorums %s and %s disjoint", quorums[i], quorums[j])
			}
		}
	}
}

func TestStaticAcceptsMajorityOfP0(t *testing.T) {
	n, _ := newStatic(t)
	v1 := v(1, 0, 1)
	n.onVSNewView(v1)
	cand, ok := n.dvsNewViewEnabled()
	if !ok || cand != v1 {
		t.Fatal("majority of P0 must be a static primary")
	}
	if err := performDVSNewView(n, 0, v1); err != nil {
		t.Fatal(err)
	}
	if cc, _ := n.ClientCur(); cc != v1 {
		t.Error("client view not advanced")
	}
}

func TestStaticRejectsMinorityOfP0(t *testing.T) {
	n, _ := newStatic(t)
	// {0, 3, 4} has only one member of P0 = {0,1,2}.
	v1 := v(1, 0, 3, 4)
	n.onVSNewView(v1)
	if _, ok := n.dvsNewViewEnabled(); ok {
		t.Error("minority of P0 accepted as static primary")
	}
}

func TestStaticRejectsDriftedMembership(t *testing.T) {
	// The paper's point: once the population drifts away from P0, no
	// static primary can form, no matter how large the view.
	n, _ := newStatic(t)
	v1 := v(1, 0, 5, 6, 7, 8, 9)
	n.onVSNewView(v1)
	if _, ok := n.dvsNewViewEnabled(); ok {
		t.Error("drifted view accepted by the static system")
	}
}

func TestStaticMessagePassThrough(t *testing.T) {
	n, _ := newStatic(t)
	m := types.ClientMsg("x")
	n.onDVSGpSnd(m)
	head, ok := n.vsGpSndHead()
	if !ok || !head.EqualMsg(m) {
		t.Fatal("message not queued")
	}
	if err := takeVSGpSnd(n, 0, m); err != nil {
		t.Fatal(err)
	}
	n.onVSGpRcv(m, 1)
	n.onVSSafe(m, 1)
	if e, ok := n.dvsGpRcvHead(); !ok || e.Q != 1 {
		t.Fatal("delivery not buffered")
	}
	if err := takeDVSGpRcv(n, 0, MsgFrom{M: m, Q: 1}); err != nil {
		t.Fatal(err)
	}
	if e, ok := n.dvsSafeHead(); !ok || e.Q != 1 {
		t.Fatal("safe not buffered")
	}
	if err := takeDVSSafe(n, 0, MsgFrom{M: m, Q: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticNoGCNoAmb(t *testing.T) {
	n, _ := newStatic(t)
	if len(n.gcCandidates()) != 0 || len(n.Amb()) != 0 {
		t.Error("static filter has no dynamic state")
	}
	if err := n.performGC(v(1, 0, 1)); err == nil {
		t.Error("static GC should fail")
	}
	n.onDVSRegister() // must be a harmless no-op
}

func TestStaticNewViewMonotone(t *testing.T) {
	n, _ := newStatic(t)
	v1 := v(1, 0, 1)
	n.onVSNewView(v1)
	if err := performDVSNewView(n, 0, v1); err != nil {
		t.Fatal(err)
	}
	// Same view again: client already there.
	if _, ok := n.dvsNewViewEnabled(); ok {
		t.Error("same primary announced twice")
	}
}

func TestStaticOutsiderStartsBottom(t *testing.T) {
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	n := NewStaticNode(4, v0, false)
	if _, ok := n.ClientCur(); ok {
		t.Error("outsider must start at ⊥")
	}
	// Messages sent at ⊥ are dropped.
	n.onDVSGpSnd(types.ClientMsg("x"))
	if _, ok := n.vsGpSndHead(); ok {
		t.Error("send at ⊥ queued")
	}
}

// TestStaticGuardsRejectNonEnabledActions is the static filter's share of
// the per-core guard table: every validating form refuses a wrong message,
// a wrong sender, a wrong view and a disabled action with its error, and
// leaves the enabled action available.
func TestStaticGuardsRejectNonEnabledActions(t *testing.T) {
	a, b := types.ClientMsg("a"), types.ClientMsg("b")
	from := func(m types.Msg, q types.ProcID) MsgFrom { return MsgFrom{M: m, Q: q} }
	for _, tc := range []struct {
		name    string
		setup   func(*StaticNode)
		bad     func(*StaticNode) error
		wantErr string
		good    func(*StaticNode) error
	}{
		{
			name:    "vs-gpsnd: nothing queued",
			bad:     func(n *StaticNode) error { return takeVSGpSnd(n, 0, a) },
			wantErr: "vs-gpsnd(c:a)_0: not head",
		},
		{
			name:    "vs-gpsnd: second in queue",
			setup:   func(n *StaticNode) { n.onDVSGpSnd(a); n.onDVSGpSnd(b) },
			bad:     func(n *StaticNode) error { return takeVSGpSnd(n, 0, b) },
			wantErr: "vs-gpsnd(c:b)_0: not head",
			good:    func(n *StaticNode) error { return takeVSGpSnd(n, 0, a) },
		},
		{
			name:    "vs-gpsnd: queued for the primary, VS already in a later view",
			setup:   func(n *StaticNode) { n.onDVSGpSnd(a); n.onVSNewView(v(1, 0)) },
			bad:     func(n *StaticNode) error { return takeVSGpSnd(n, 0, a) },
			wantErr: "not head",
		},
		{
			name:    "dvs-gprcv: nothing buffered",
			bad:     func(n *StaticNode) error { return takeDVSGpRcv(n, 0, from(a, 1)) },
			wantErr: ",0: not head of msgs-from-vs",
		},
		{
			name:    "dvs-gprcv: wrong message",
			setup:   func(n *StaticNode) { n.onVSGpRcv(a, 1) },
			bad:     func(n *StaticNode) error { return takeDVSGpRcv(n, 0, from(b, 1)) },
			wantErr: ",0: not head of msgs-from-vs",
			good:    func(n *StaticNode) error { return takeDVSGpRcv(n, 0, from(a, 1)) },
		},
		{
			name:    "dvs-gprcv: wrong sender",
			setup:   func(n *StaticNode) { n.onVSGpRcv(a, 1) },
			bad:     func(n *StaticNode) error { return takeDVSGpRcv(n, 0, from(a, 2)) },
			wantErr: ",0: not head of msgs-from-vs",
			good:    func(n *StaticNode) error { return takeDVSGpRcv(n, 0, from(a, 1)) },
		},
		{
			name:    "dvs-gprcv: received in a non-primary view",
			setup:   func(n *StaticNode) { n.onVSNewView(v(1, 0)); n.onVSGpRcv(a, 0) },
			bad:     func(n *StaticNode) error { return takeDVSGpRcv(n, 0, from(a, 0)) },
			wantErr: ",0: not head of msgs-from-vs",
		},
		{
			name:    "dvs-safe: received but not yet safe",
			setup:   func(n *StaticNode) { n.onVSGpRcv(a, 1) },
			bad:     func(n *StaticNode) error { return takeDVSSafe(n, 0, from(a, 1)) },
			wantErr: ",0: not head of safe-from-vs",
		},
		{
			name:    "dvs-safe: wrong message",
			setup:   func(n *StaticNode) { n.onVSSafe(a, 1) },
			bad:     func(n *StaticNode) error { return takeDVSSafe(n, 0, from(b, 1)) },
			wantErr: ",0: not head of safe-from-vs",
			good:    func(n *StaticNode) error { return takeDVSSafe(n, 0, from(a, 1)) },
		},
		{
			name:    "dvs-safe: wrong sender",
			setup:   func(n *StaticNode) { n.onVSSafe(a, 1) },
			bad:     func(n *StaticNode) error { return takeDVSSafe(n, 0, from(a, 2)) },
			wantErr: ",0: not head of safe-from-vs",
			good:    func(n *StaticNode) error { return takeDVSSafe(n, 0, from(a, 1)) },
		},
		{
			name:    "dvs-newview: no later view installed",
			bad:     func(n *StaticNode) error { return performDVSNewView(n, 0, v(1, 0, 1)) },
			wantErr: "dvs-newview",
		},
		{
			name:    "dvs-newview: not a quorum of P0",
			setup:   func(n *StaticNode) { n.onVSNewView(v(1, 0)) },
			bad:     func(n *StaticNode) error { return performDVSNewView(n, 0, v(1, 0)) },
			wantErr: "not enabled",
		},
		{
			name:    "dvs-newview: same id, other membership",
			setup:   func(n *StaticNode) { n.onVSNewView(v(1, 0, 1)) },
			bad:     func(n *StaticNode) error { return performDVSNewView(n, 0, v(1, 0, 1, 2)) },
			wantErr: "not enabled",
			good:    func(n *StaticNode) error { return performDVSNewView(n, 0, v(1, 0, 1)) },
		},
		{
			name:    "dvs-gc: never",
			bad:     func(n *StaticNode) error { return n.performGC(v(0, 0, 1, 2)) },
			wantErr: "no garbage collection",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := newStatic(t)
			if tc.setup != nil {
				tc.setup(n)
			}
			err := tc.bad(n)
			if err == nil {
				t.Fatal("non-enabled action accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if tc.good != nil {
				if err := tc.good(n); err != nil {
					t.Errorf("enabled action refused after the rejected one: %v", err)
				}
			}
		})
	}
}

// TestStaticHeadChecksAreStructural: a message that renders exactly like the
// head without being it is not the head (see TestHeadChecksAreStructural).
func TestStaticHeadChecksAreStructural(t *testing.T) {
	head := types.Batch{Msgs: []types.Msg{types.ClientMsg("x|c:y")}}
	alike := types.Batch{Msgs: []types.Msg{types.ClientMsg("x"), types.ClientMsg("y")}}
	n, _ := newStatic(t)
	n.onDVSGpSnd(head)
	n.onVSGpRcv(head, 1)
	n.onVSSafe(head, 1)
	for name, take := range map[string]func(types.Msg) error{
		"vs-gpsnd":  func(m types.Msg) error { return takeVSGpSnd(n, 0, m) },
		"dvs-gprcv": func(m types.Msg) error { return takeDVSGpRcv(n, 0, MsgFrom{M: m, Q: 1}) },
		"dvs-safe":  func(m types.Msg) error { return takeDVSSafe(n, 0, MsgFrom{M: m, Q: 1}) },
	} {
		if err := take(alike); err == nil || !strings.Contains(err.Error(), "not head") {
			t.Errorf("%s accepted a message that only renders like the head (err = %v)", name, err)
		}
		if err := take(head); err != nil {
			t.Errorf("%s refused the head itself: %v", name, err)
		}
	}
}

// TestStaticFilterDrains runs the filter through the shared macro-step: a
// quorum view is announced after the old view's deliveries, a minority view
// never is.
func TestStaticFilterDrains(t *testing.T) {
	n, _ := newStatic(t)
	var out Outbox
	m := types.ClientMsg("m")
	Step(n, Event{Kind: EvVSRecv, M: m, From: 1}, false, &out)
	Step(n, Event{Kind: EvVSNewView, View: v(1, 0, 1)}, false, &out)
	Step(n, Event{Kind: EvVSNewView, View: v(2, 0)}, false, &out)
	if len(out.Effects) != 2 {
		t.Fatalf("effects = %#v, want deliver then new primary", out.Effects)
	}
	if d := out.Effects[0]; d.Kind != FxDeliver || !d.M.EqualMsg(m) || d.From != 1 {
		t.Errorf("first effect = %#v", out.Effects[0])
	}
	if p := out.Effects[1]; p.Kind != FxNewPrimary || p.View != v(1, 0, 1) {
		t.Errorf("second effect = %#v", out.Effects[1])
	}
	if cc, _ := n.ClientCur(); cc != v(1, 0, 1) {
		t.Errorf("client-cur = %s: the minority view must not become primary", cc)
	}
}
