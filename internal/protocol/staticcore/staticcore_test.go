package staticcore

import (
	"strings"
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/quorum"
	"repro/internal/types"
)

func view(seq uint64, members ...types.ProcID) types.View {
	return types.NewView(types.ViewID{Seq: seq}, members...)
}

func newNode() *Node {
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	return NewNode(0, v0, true, quorum.Majority(v0.Members))
}

// TestGuardsRejectNonEnabledActions is the static filter's share of the
// per-core guard table: every exported Take*/Perform* refuses a wrong
// message, a wrong sender, a wrong view and a disabled action with its
// error, and leaves the enabled action available.
func TestGuardsRejectNonEnabledActions(t *testing.T) {
	a, b := types.ClientMsg("a"), types.ClientMsg("b")
	from := func(m types.Msg, q types.ProcID) dvscore.MsgFrom { return dvscore.MsgFrom{M: m, Q: q} }
	for _, tc := range []struct {
		name    string
		setup   func(*Node)
		bad     func(*Node) error
		wantErr string
		good    func(*Node) error
	}{
		{
			name:    "vs-gpsnd: nothing queued",
			bad:     func(n *Node) error { return n.TakeVSGpSndHead(a) },
			wantErr: "vs-gpsnd(c:a)_0: not head",
		},
		{
			name:    "vs-gpsnd: second in queue",
			setup:   func(n *Node) { n.OnDVSGpSnd(a); n.OnDVSGpSnd(b) },
			bad:     func(n *Node) error { return n.TakeVSGpSndHead(b) },
			wantErr: "vs-gpsnd(c:b)_0: not head",
			good:    func(n *Node) error { return n.TakeVSGpSndHead(a) },
		},
		{
			name:    "vs-gpsnd: queued for the primary, VS already in a later view",
			setup:   func(n *Node) { n.OnDVSGpSnd(a); n.OnVSNewView(view(1, 0)) },
			bad:     func(n *Node) error { return n.TakeVSGpSndHead(a) },
			wantErr: "not head",
		},
		{
			name:    "dvs-gprcv: nothing buffered",
			bad:     func(n *Node) error { return n.TakeDVSGpRcvHead(from(a, 1)) },
			wantErr: "dvs-gprcv_0: not head",
		},
		{
			name:    "dvs-gprcv: wrong message",
			setup:   func(n *Node) { n.OnVSGpRcv(a, 1) },
			bad:     func(n *Node) error { return n.TakeDVSGpRcvHead(from(b, 1)) },
			wantErr: "dvs-gprcv_0: not head",
			good:    func(n *Node) error { return n.TakeDVSGpRcvHead(from(a, 1)) },
		},
		{
			name:    "dvs-gprcv: wrong sender",
			setup:   func(n *Node) { n.OnVSGpRcv(a, 1) },
			bad:     func(n *Node) error { return n.TakeDVSGpRcvHead(from(a, 2)) },
			wantErr: "dvs-gprcv_0: not head",
			good:    func(n *Node) error { return n.TakeDVSGpRcvHead(from(a, 1)) },
		},
		{
			name:    "dvs-gprcv: received in a non-primary view",
			setup:   func(n *Node) { n.OnVSNewView(view(1, 0)); n.OnVSGpRcv(a, 0) },
			bad:     func(n *Node) error { return n.TakeDVSGpRcvHead(from(a, 0)) },
			wantErr: "dvs-gprcv_0: not head",
		},
		{
			name:    "dvs-safe: received but not yet safe",
			setup:   func(n *Node) { n.OnVSGpRcv(a, 1) },
			bad:     func(n *Node) error { return n.TakeDVSSafeHead(from(a, 1)) },
			wantErr: "dvs-safe_0: not head",
		},
		{
			name:    "dvs-safe: wrong message",
			setup:   func(n *Node) { n.OnVSSafe(a, 1) },
			bad:     func(n *Node) error { return n.TakeDVSSafeHead(from(b, 1)) },
			wantErr: "dvs-safe_0: not head",
			good:    func(n *Node) error { return n.TakeDVSSafeHead(from(a, 1)) },
		},
		{
			name:    "dvs-safe: wrong sender",
			setup:   func(n *Node) { n.OnVSSafe(a, 1) },
			bad:     func(n *Node) error { return n.TakeDVSSafeHead(from(a, 2)) },
			wantErr: "dvs-safe_0: not head",
			good:    func(n *Node) error { return n.TakeDVSSafeHead(from(a, 1)) },
		},
		{
			name:    "dvs-newview: no later view installed",
			bad:     func(n *Node) error { return n.PerformDVSNewView(view(1, 0, 1)) },
			wantErr: "dvs-newview",
		},
		{
			name:    "dvs-newview: not a quorum of P0",
			setup:   func(n *Node) { n.OnVSNewView(view(1, 0)) },
			bad:     func(n *Node) error { return n.PerformDVSNewView(view(1, 0)) },
			wantErr: "not enabled",
		},
		{
			name:    "dvs-newview: same id, other membership",
			setup:   func(n *Node) { n.OnVSNewView(view(1, 0, 1)) },
			bad:     func(n *Node) error { return n.PerformDVSNewView(view(1, 0, 1, 2)) },
			wantErr: "not enabled",
			good:    func(n *Node) error { return n.PerformDVSNewView(view(1, 0, 1)) },
		},
		{
			name:    "dvs-gc: never",
			bad:     func(n *Node) error { return n.PerformGC(view(0, 0, 1, 2)) },
			wantErr: "no garbage collection",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newNode()
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

// TestHeadChecksAreStructural: a message that renders exactly like the head
// without being it is not the head (see the dvscore test of the same name).
func TestHeadChecksAreStructural(t *testing.T) {
	head := types.Batch{Msgs: []types.Msg{types.ClientMsg("x|c:y")}}
	alike := types.Batch{Msgs: []types.Msg{types.ClientMsg("x"), types.ClientMsg("y")}}
	n := newNode()
	n.OnDVSGpSnd(head)
	n.OnVSGpRcv(head, 1)
	n.OnVSSafe(head, 1)
	for name, take := range map[string]func(types.Msg) error{
		"vs-gpsnd":  n.TakeVSGpSndHead,
		"dvs-gprcv": func(m types.Msg) error { return n.TakeDVSGpRcvHead(dvscore.MsgFrom{M: m, Q: 1}) },
		"dvs-safe":  func(m types.Msg) error { return n.TakeDVSSafeHead(dvscore.MsgFrom{M: m, Q: 1}) },
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
	n := newNode()
	var out dvscore.Outbox
	m := types.ClientMsg("m")
	dvscore.Step(n, dvscore.EvVSRecv{M: m, From: 1}, false, &out)
	dvscore.Step(n, dvscore.EvVSNewView{View: view(1, 0, 1)}, false, &out)
	dvscore.Step(n, dvscore.EvVSNewView{View: view(2, 0)}, false, &out)
	if len(out.Effects) != 2 {
		t.Fatalf("effects = %#v, want deliver then new primary", out.Effects)
	}
	if d, ok := out.Effects[0].(dvscore.FxDeliver); !ok || !d.M.EqualMsg(m) || d.From != 1 {
		t.Errorf("first effect = %#v", out.Effects[0])
	}
	if p, ok := out.Effects[1].(dvscore.FxNewPrimary); !ok || !p.View.Equal(view(1, 0, 1)) {
		t.Errorf("second effect = %#v", out.Effects[1])
	}
	if cc, _ := n.ClientCur(); !cc.Equal(view(1, 0, 1)) {
		t.Errorf("client-cur = %s: the minority view must not become primary", cc)
	}
}
