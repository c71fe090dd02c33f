package staticcore

import (
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/quorum"
	"repro/internal/types"
)

var _ dvscore.Filter = (*Node)(nil)

func newStatic(t *testing.T) (*Node, types.View) {
	t.Helper()
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	qs := quorum.Majority(v0.Members)
	return NewNode(0, v0, true, qs), v0
}

func TestStaticAcceptsMajorityOfP0(t *testing.T) {
	n, _ := newStatic(t)
	v1 := view(1, 0, 1)
	n.OnVSNewView(v1)
	cand, ok := n.DVSNewViewEnabled()
	if !ok || !cand.Equal(v1) {
		t.Fatal("majority of P0 must be a static primary")
	}
	if err := n.PerformDVSNewView(v1); err != nil {
		t.Fatal(err)
	}
	if cc, _ := n.ClientCur(); !cc.Equal(v1) {
		t.Error("client view not advanced")
	}
}

func TestStaticRejectsMinorityOfP0(t *testing.T) {
	n, _ := newStatic(t)
	// {0, 3, 4} has only one member of P0 = {0,1,2}.
	v1 := view(1, 0, 3, 4)
	n.OnVSNewView(v1)
	if _, ok := n.DVSNewViewEnabled(); ok {
		t.Error("minority of P0 accepted as static primary")
	}
}

func TestStaticRejectsDriftedMembership(t *testing.T) {
	// The paper's point: once the population drifts away from P0, no
	// static primary can form, no matter how large the view.
	n, _ := newStatic(t)
	v1 := view(1, 0, 5, 6, 7, 8, 9)
	n.OnVSNewView(v1)
	if _, ok := n.DVSNewViewEnabled(); ok {
		t.Error("drifted view accepted by the static system")
	}
}

func TestStaticMessagePassThrough(t *testing.T) {
	n, _ := newStatic(t)
	m := types.ClientMsg("x")
	n.OnDVSGpSnd(m)
	head, ok := n.VSGpSndHead()
	if !ok || !head.EqualMsg(m) {
		t.Fatal("message not queued")
	}
	if err := n.TakeVSGpSndHead(m); err != nil {
		t.Fatal(err)
	}
	n.OnVSGpRcv(m, 1)
	n.OnVSSafe(m, 1)
	if e, ok := n.DVSGpRcvHead(); !ok || e.Q != 1 {
		t.Fatal("delivery not buffered")
	}
	if err := n.TakeDVSGpRcvHead(dvscore.MsgFrom{M: m, Q: 1}); err != nil {
		t.Fatal(err)
	}
	if e, ok := n.DVSSafeHead(); !ok || e.Q != 1 {
		t.Fatal("safe not buffered")
	}
	if err := n.TakeDVSSafeHead(dvscore.MsgFrom{M: m, Q: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticNoGCNoAmb(t *testing.T) {
	n, _ := newStatic(t)
	if len(n.GCCandidates()) != 0 || len(n.Amb()) != 0 {
		t.Error("static filter has no dynamic state")
	}
	if err := n.PerformGC(view(1, 0, 1)); err == nil {
		t.Error("static GC should fail")
	}
	n.OnDVSRegister() // must be a harmless no-op
}

func TestStaticNewViewMonotone(t *testing.T) {
	n, _ := newStatic(t)
	v1 := view(1, 0, 1)
	n.OnVSNewView(v1)
	if err := n.PerformDVSNewView(v1); err != nil {
		t.Fatal(err)
	}
	// Same view again: client already there.
	if _, ok := n.DVSNewViewEnabled(); ok {
		t.Error("same primary announced twice")
	}
}

func TestStaticOutsiderStartsBottom(t *testing.T) {
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	n := NewNode(4, v0, false, quorum.Majority(v0.Members))
	if _, ok := n.ClientCur(); ok {
		t.Error("outsider must start at ⊥")
	}
	// Messages sent at ⊥ are dropped.
	n.OnDVSGpSnd(types.ClientMsg("x"))
	if _, ok := n.VSGpSndHead(); ok {
		t.Error("send at ⊥ queued")
	}
}
