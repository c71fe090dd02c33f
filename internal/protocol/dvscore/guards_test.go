package dvscore

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// primaryNode returns a node in v0 = {0,1,2} whose VS layer has moved on to
// v1 = {0,1} with the info exchange complete, so dvs-newview(v1) is enabled
// and client-cur is still v0.
func primaryNode(t *testing.T) (n *Node, v0, v1 types.View) {
	t.Helper()
	n, v0 = newTestNode(t)
	v1 = v(1, 0, 1)
	n.onVSNewView(v1)
	info, _ := n.vsGpSndHead()
	if err := takeVSGpSnd(n, 0, info); err != nil {
		t.Fatal(err)
	}
	n.onVSGpRcv(NewInfoMsg(v0, nil), 1)
	return n, v0, v1
}

// TestGuardsRejectNonEnabledActions drives every validating form of the
// Figure 3 node with an action that is not enabled — wrong message,
// wrong sender, wrong view, nothing queued — and requires the action's error
// and an untouched state: the enabled action must still fire afterwards.
func TestGuardsRejectNonEnabledActions(t *testing.T) {
	a, b := types.ClientMsg("a"), types.ClientMsg("b")
	for _, tc := range []struct {
		name    string
		setup   func(*Node)
		bad     func(*Node) error
		wantErr string
		good    func(*Node) error
	}{
		{
			name:    "vs-gpsnd: nothing queued",
			bad:     func(n *Node) error { return takeVSGpSnd(n, 0, a) },
			wantErr: "not head of msgs-to-vs",
		},
		{
			name:    "vs-gpsnd: second in queue",
			setup:   func(n *Node) { n.onDVSGpSnd(a); n.onDVSGpSnd(b) },
			bad:     func(n *Node) error { return takeVSGpSnd(n, 0, b) },
			wantErr: "not head of msgs-to-vs",
			good:    func(n *Node) error { return takeVSGpSnd(n, 0, a) },
		},
		{
			name:    "vs-gpsnd: other message type",
			setup:   func(n *Node) { n.onDVSRegister() },
			bad:     func(n *Node) error { return takeVSGpSnd(n, 0, types.ClientMsg("registered")) },
			wantErr: "not head of msgs-to-vs",
			good:    func(n *Node) error { return takeVSGpSnd(n, 0, RegisteredMsg{}) },
		},
		{
			name:    "vs-gpsnd: queued for client-cur, VS already in a later view",
			setup:   func(n *Node) { n.onDVSGpSnd(a); n.onVSNewView(v(1, 0, 1)) },
			bad:     func(n *Node) error { return takeVSGpSnd(n, 0, a) },
			wantErr: "not head of msgs-to-vs",
		},
		{
			name:    "dvs-gprcv: nothing buffered",
			bad:     func(n *Node) error { return takeDVSGpRcv(n, 0, MsgFrom{M: a, Q: 1}) },
			wantErr: "not head of msgs-from-vs",
		},
		{
			name:    "dvs-gprcv: wrong message",
			setup:   func(n *Node) { n.onVSGpRcv(a, 1) },
			bad:     func(n *Node) error { return takeDVSGpRcv(n, 0, MsgFrom{M: b, Q: 1}) },
			wantErr: "not head of msgs-from-vs",
			good:    func(n *Node) error { return takeDVSGpRcv(n, 0, MsgFrom{M: a, Q: 1}) },
		},
		{
			name:    "dvs-gprcv: wrong sender",
			setup:   func(n *Node) { n.onVSGpRcv(a, 1) },
			bad:     func(n *Node) error { return takeDVSGpRcv(n, 0, MsgFrom{M: a, Q: 2}) },
			wantErr: "not head of msgs-from-vs",
			good:    func(n *Node) error { return takeDVSGpRcv(n, 0, MsgFrom{M: a, Q: 1}) },
		},
		{
			name:    "dvs-gprcv: second in queue",
			setup:   func(n *Node) { n.onVSGpRcv(a, 1); n.onVSGpRcv(b, 2) },
			bad:     func(n *Node) error { return takeDVSGpRcv(n, 0, MsgFrom{M: b, Q: 2}) },
			wantErr: "not head of msgs-from-vs",
			good:    func(n *Node) error { return takeDVSGpRcv(n, 0, MsgFrom{M: a, Q: 1}) },
		},
		{
			name:    "dvs-gprcv: received in a view the client has not been given",
			setup:   func(n *Node) { n.onVSNewView(v(1, 0, 1)); n.onVSGpRcv(a, 1) },
			bad:     func(n *Node) error { return takeDVSGpRcv(n, 0, MsgFrom{M: a, Q: 1}) },
			wantErr: "not head of msgs-from-vs",
		},
		{
			name:    "dvs-safe: nothing buffered",
			bad:     func(n *Node) error { return takeDVSSafe(n, 0, MsgFrom{M: a, Q: 1}) },
			wantErr: "not head of safe-from-vs",
		},
		{
			name:    "dvs-safe: wrong message",
			setup:   func(n *Node) { n.onVSSafe(a, 1) },
			bad:     func(n *Node) error { return takeDVSSafe(n, 0, MsgFrom{M: b, Q: 1}) },
			wantErr: "not head of safe-from-vs",
			good:    func(n *Node) error { return takeDVSSafe(n, 0, MsgFrom{M: a, Q: 1}) },
		},
		{
			name:    "dvs-safe: wrong sender",
			setup:   func(n *Node) { n.onVSSafe(a, 1) },
			bad:     func(n *Node) error { return takeDVSSafe(n, 0, MsgFrom{M: a, Q: 0}) },
			wantErr: "not head of safe-from-vs",
			good:    func(n *Node) error { return takeDVSSafe(n, 0, MsgFrom{M: a, Q: 1}) },
		},
		{
			name:    "dvs-safe: received but not yet safe",
			setup:   func(n *Node) { n.onVSGpRcv(a, 1) },
			bad:     func(n *Node) error { return takeDVSSafe(n, 0, MsgFrom{M: a, Q: 1}) },
			wantErr: "not head of safe-from-vs",
		},
		{
			name:    "dvs-safe: indicated in a view the client has not been given",
			setup:   func(n *Node) { n.onVSNewView(v(1, 0, 1)); n.onVSSafe(a, 1) },
			bad:     func(n *Node) error { return takeDVSSafe(n, 0, MsgFrom{M: a, Q: 1}) },
			wantErr: "not head of safe-from-vs",
		},
		{
			name:    "dvs-newview: no later view installed",
			bad:     func(n *Node) error { return performDVSNewView(n, 0, v(1, 0, 1)) },
			wantErr: "not enabled",
		},
		{
			name:    "dvs-newview: info still missing",
			setup:   func(n *Node) { n.onVSNewView(v(1, 0, 1)) },
			bad:     func(n *Node) error { return performDVSNewView(n, 0, v(1, 0, 1)) },
			wantErr: "not enabled",
		},
		{
			name:    "dvs-gc: no registered messages",
			bad:     func(n *Node) error { return n.performGC(v(1, 0, 1)) },
			wantErr: "not enabled",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := newTestNode(t)
			if tc.setup != nil {
				tc.setup(n)
			}
			requireRejected(t, n, tc.bad, tc.wantErr)
			if tc.good != nil {
				if err := tc.good(n); err != nil {
					t.Errorf("enabled action refused after the rejected one: %v", err)
				}
			}
		})
	}

	t.Run("dvs-newview: same id, other membership", func(t *testing.T) {
		n, _, v1 := primaryNode(t)
		requireRejected(t, n, func(n *Node) error { return performDVSNewView(n, 0, v(1, 0, 1, 2)) }, "not enabled")
		if err := performDVSNewView(n, 0, v1); err != nil {
			t.Errorf("enabled action refused after the rejected one: %v", err)
		}
	})
	t.Run("dvs-gc: same id, other membership", func(t *testing.T) {
		n, _, v1 := primaryNode(t)
		if err := performDVSNewView(n, 0, v1); err != nil {
			t.Fatal(err)
		}
		n.onVSGpRcv(RegisteredMsg{}, 0)
		n.onVSGpRcv(RegisteredMsg{}, 1)
		requireRejected(t, n, func(n *Node) error { return n.performGC(v(1, 0)) }, "not enabled")
		if err := n.performGC(v1); err != nil {
			t.Errorf("enabled action refused after the rejected one: %v", err)
		}
	})
}

// requireRejected runs a non-enabled action and requires its error and an
// unchanged node.
func requireRejected(t *testing.T, n *Node, act func(*Node) error, wantErr string) {
	t.Helper()
	before := n.Clone()
	err := act(n)
	if err == nil {
		t.Fatal("non-enabled action accepted")
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Errorf("error %q does not mention %q", err, wantErr)
	}
	if !reflect.DeepEqual(n.Clone(), before) {
		t.Error("rejected action changed the node")
	}
}

// TestHeadChecksAreStructural offers each head check a message that renders
// exactly like the head but is a different message: one payload holding the
// separator against two payloads. Comparing rendered keys accepted it.
func TestHeadChecksAreStructural(t *testing.T) {
	head := types.Batch{Msgs: []types.Msg{types.ClientMsg("x|c:y")}}
	alike := types.Batch{Msgs: []types.Msg{types.ClientMsg("x"), types.ClientMsg("y")}}
	if head.MsgKey() != alike.MsgKey() {
		t.Fatalf("the pair renders differently (%q vs %q) and pins nothing", head.MsgKey(), alike.MsgKey())
	}
	n, _ := newTestNode(t)
	n.onDVSGpSnd(head)
	n.onVSGpRcv(head, 1)
	n.onVSSafe(head, 1)
	for _, tc := range []struct {
		name       string
		take       func(types.Msg) error
		wantErr    string
		stillThere func() bool
	}{
		{"vs-gpsnd", func(m types.Msg) error { return takeVSGpSnd(n, 0, m) }, "not head of msgs-to-vs", func() bool { _, ok := n.vsGpSndHead(); return ok }},
		{"dvs-gprcv", func(m types.Msg) error { return takeDVSGpRcv(n, 0, MsgFrom{M: m, Q: 1}) }, "not head of msgs-from-vs", func() bool { _, ok := n.dvsGpRcvHead(); return ok }},
		{"dvs-safe", func(m types.Msg) error { return takeDVSSafe(n, 0, MsgFrom{M: m, Q: 1}) }, "not head of safe-from-vs", func() bool { _, ok := n.dvsSafeHead(); return ok }},
	} {
		if err := tc.take(alike); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s accepted a message that only renders like the head (err = %v)", tc.name, err)
		}
		if !tc.stillThere() {
			t.Errorf("%s: the rejected take removed the head", tc.name)
		}
		if err := tc.take(head); err != nil {
			t.Errorf("%s refused the head itself: %v", tc.name, err)
		}
	}
}

// TestStepBatchAllocsConstant pins what the head checks cost: delivering and
// safe-indicating one Batch through Step allocates a handful of words (the
// queue slot and the boxed effect, twice) however many labels the batch
// holds and however large their payloads are. Rendering either side of the
// comparison would make it grow with both.
func TestStepBatchAllocsConstant(t *testing.T) {
	measure := func(labels, payload int) float64 {
		v0 := types.InitialView(types.NewProcSet(0, 1, 2))
		n := NewNode(0, v0, true)
		b := types.Batch{Msgs: make([]types.Msg, labels)}
		for i := range b.Msgs {
			b.Msgs[i] = tocore.LabelMsg{L: types.Label{Seqno: i + 1, Origin: 1}, A: strings.Repeat("p", payload)}
		}
		var out Outbox
		return testing.AllocsPerRun(200, func() {
			out.Effects = out.Effects[:0]
			Step(n, Event{Kind: EvVSRecv, M: b, From: 1}, true, &out)
			Step(n, Event{Kind: EvVSSafe, M: b, From: 1}, true, &out)
			if len(out.Effects) != 2 {
				t.Fatalf("%d effects, want deliver + safe", len(out.Effects))
			}
		})
	}
	base := measure(1, 8)
	if base > 8 {
		t.Errorf("gprcv + safe of a one-label batch allocates %.0f times, want a handful", base)
	}
	for _, tc := range []struct{ labels, payload int }{{16, 8}, {16, 4096}, {256, 64}} {
		if got := measure(tc.labels, tc.payload); got != base {
			t.Errorf("gprcv + safe of %d labels × %d B allocates %.0f times, a one-label batch %.0f: the cost grows with the batch", tc.labels, tc.payload, got, base)
		}
	}
}
