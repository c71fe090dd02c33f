package dvscore

import (
	"testing"

	"repro/internal/types"
)

func v(seq uint64, members ...types.ProcID) types.View {
	return types.NewView(types.ViewID{Seq: seq}, members...)
}

func newTestNode(t *testing.T) (*Node, types.View) {
	t.Helper()
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	return NewNode(0, v0, true), v0
}

func TestNodeInitialState(t *testing.T) {
	n, v0 := newTestNode(t)
	if cur, ok := n.Cur(); !ok || cur != v0 {
		t.Error("cur must start at v0 for members of P0")
	}
	if cc, ok := n.ClientCur(); !ok || cc != v0 {
		t.Error("client-cur must start at v0")
	}
	if n.Act() != v0 {
		t.Error("act must start at v0")
	}
	if !n.Reg(v0.ID) {
		t.Error("reg[g0] must start true for members")
	}
	outsider := NewNode(4, v0, false)
	if _, ok := outsider.Cur(); ok {
		t.Error("non-member must start at ⊥")
	}
	if outsider.Act() != v0 {
		t.Error("act starts at v0 even for non-members")
	}
	if outsider.Reg(v0.ID) {
		t.Error("non-member must not start registered")
	}
}

func TestOnVSNewViewSendsInfo(t *testing.T) {
	n, _ := newTestNode(t)
	v1 := v(1, 0, 1)
	n.onVSNewView(v1)
	if cur, _ := n.Cur(); cur != v1 {
		t.Error("cur not updated")
	}
	m, ok := n.vsGpSndHead()
	if !ok {
		t.Fatal("info message not enqueued")
	}
	info, isInfo := m.(InfoMsg)
	if !isInfo {
		t.Fatalf("head is %T", m)
	}
	if !info.Act.ID.IsZero() || len(info.Amb) != 0 {
		t.Errorf("info = %v", info)
	}
	if _, ok := n.infoSent[v1.ID]; !ok {
		t.Error("info-sent not recorded")
	}
}

func TestDVSNewViewRequiresAllInfos(t *testing.T) {
	n, _ := newTestNode(t)
	v1 := v(1, 0, 1)
	n.onVSNewView(v1)
	if _, ok := n.dvsNewViewEnabled(); ok {
		t.Fatal("enabled before info from 1")
	}
	n.onVSGpRcv(NewInfoMsg(types.InitialView(types.NewProcSet(0, 1, 2)), nil), 1)
	cand, ok := n.dvsNewViewEnabled()
	if !ok || cand != v1 {
		t.Fatal("should be enabled after all infos (majority of v0 holds: {0,1} ∩ {0,1,2} = 2 > 1.5)")
	}
	if err := performDVSNewView(n, 0, cand); err != nil {
		t.Fatal(err)
	}
	if cc, _ := n.ClientCur(); cc != v1 {
		t.Error("client-cur not advanced")
	}
	if !n.HasAttempted(v1.ID) {
		t.Error("attempted not recorded")
	}
}

func TestDVSNewViewMajorityCheckRejects(t *testing.T) {
	n, _ := newTestNode(t)
	v1 := v(1, 0) // singleton: |{0} ∩ {0,1,2}| = 1, not > 1.5
	n.onVSNewView(v1)
	// No other members, so the info condition is vacuous; the majority
	// check must reject.
	if _, ok := n.dvsNewViewEnabled(); ok {
		t.Error("minority view accepted as primary")
	}
}

func TestInfoUpdatesActAndAmb(t *testing.T) {
	n, _ := newTestNode(t)
	v1 := v(1, 0, 1)
	v2 := v(2, 0, 1, 2)
	n.onVSNewView(v2)
	// Peer reports act = v1 (higher than our v0) and an ambiguous view.
	amb := v(3, 1, 2) // note: id 3 > act id 1
	n.onVSGpRcv(NewInfoMsg(v1, []types.View{amb}), 1)
	if n.Act() != v1 {
		t.Errorf("act = %s, want %s", n.Act(), v1)
	}
	got := n.Amb()
	if len(got) != 1 || got[0] != amb {
		t.Errorf("amb = %v", got)
	}
	// A later info with act above the ambiguous view must filter it out.
	v4 := v(4, 1, 2)
	n.onVSGpRcv(NewInfoMsg(v4, nil), 2)
	if n.Act() != v4 || len(n.Amb()) != 0 {
		t.Errorf("act=%s amb=%v after higher act", n.Act(), n.Amb())
	}
}

func TestRegisterSendsRegisteredMsg(t *testing.T) {
	n, v0 := newTestNode(t)
	n.onDVSRegister()
	if !n.Reg(v0.ID) {
		t.Error("reg not set")
	}
	m, ok := n.vsGpSndHead()
	if !ok {
		t.Fatal("registered message not enqueued")
	}
	if _, isReg := m.(RegisteredMsg); !isReg {
		t.Fatalf("head is %T", m)
	}
}

func TestGarbageCollection(t *testing.T) {
	n, _ := newTestNode(t)
	v1 := v(1, 0, 1)
	n.onVSNewView(v1)
	n.onVSGpRcv(NewInfoMsg(types.InitialView(types.NewProcSet(0, 1, 2)), nil), 1)
	if err := performDVSNewView(n, 0, v1); err != nil {
		t.Fatal(err)
	}
	if len(n.gcCandidates()) != 0 {
		t.Fatal("GC enabled without registered messages")
	}
	// Registered messages from both members of v1, received in view v1.
	n.onVSGpRcv(RegisteredMsg{}, 0)
	n.onVSGpRcv(RegisteredMsg{}, 1)
	cands := n.gcCandidates()
	if len(cands) != 1 || cands[0] != v1 {
		t.Fatalf("GC candidates = %v", cands)
	}
	if err := n.performGC(v1); err != nil {
		t.Fatal(err)
	}
	if n.Act() != v1 {
		t.Error("act not advanced by GC")
	}
	if len(n.Amb()) != 0 {
		t.Error("amb not filtered by GC")
	}
	// GC of the same view again: no longer enabled (act.id not < v.id).
	if err := n.performGC(v1); err == nil {
		t.Error("repeated GC accepted")
	}
}

func TestClientMessageBuffering(t *testing.T) {
	n, _ := newTestNode(t)
	m := types.ClientMsg("x")
	n.onDVSGpSnd(m)
	head, ok := n.vsGpSndHead()
	if !ok || !head.EqualMsg(m) {
		t.Fatal("client message not queued for vs")
	}
	if err := takeVSGpSnd(n, 0, m); err != nil {
		t.Fatal(err)
	}
	// Receive a client message and a safe indication from VS.
	n.onVSGpRcv(m, 1)
	n.onVSSafe(m, 1)
	if e, ok := n.dvsGpRcvHead(); !ok || e.Q != 1 {
		t.Fatal("delivery not buffered")
	}
	if e, ok := n.dvsSafeHead(); !ok || e.Q != 1 {
		t.Fatal("safe not buffered")
	}
	if err := takeDVSGpRcv(n, 0, MsgFrom{M: m, Q: 1}); err != nil {
		t.Fatal(err)
	}
	if err := takeDVSSafe(n, 0, MsgFrom{M: m, Q: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.dvsGpRcvHead(); ok {
		t.Error("buffer should be empty")
	}
}

func TestBufferedDeliveriesFollowClientView(t *testing.T) {
	n, _ := newTestNode(t)
	m := types.ClientMsg("old")
	// VS delivers m in v0, then the node's VS view moves to v1 before the
	// client attempts it: the old buffered delivery stays available while
	// client-cur is still v0.
	n.onVSGpRcv(m, 1)
	v1 := v(1, 0, 1)
	n.onVSNewView(v1)
	if _, ok := n.dvsGpRcvHead(); !ok {
		t.Fatal("old-view delivery must remain available while client-cur = v0")
	}
	// Attempt v1: deliveries for v0 become unreachable (client moved on).
	n.onVSGpRcv(NewInfoMsg(types.InitialView(types.NewProcSet(0, 1, 2)), nil), 1)
	if err := performDVSNewView(n, 0, v1); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.dvsGpRcvHead(); ok {
		t.Error("deliveries of an abandoned view must not surface in the new view")
	}
}

func TestNodeCloneDeep(t *testing.T) {
	n, _ := newTestNode(t)
	n.onDVSGpSnd(types.ClientMsg("x"))
	c := n.Clone()
	if err := takeVSGpSnd(c, 0, types.ClientMsg("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.vsGpSndHead(); !ok {
		t.Error("clone mutation leaked")
	}
}

func TestPurge(t *testing.T) {
	msgs := []types.Msg{
		types.ClientMsg("a"),
		NewInfoMsg(v(1, 0), nil),
		RegisteredMsg{},
		types.ClientMsg("b"),
	}
	out := Purge(msgs)
	if len(out) != 2 || out[0].MsgKey() != "c:a" || out[1].MsgKey() != "c:b" {
		t.Errorf("Purge = %v", out)
	}
	if PurgeSize(msgs) != 2 {
		t.Errorf("PurgeSize = %d", PurgeSize(msgs))
	}
}

func TestInfoMsgKeyCanonical(t *testing.T) {
	a := NewInfoMsg(v(1, 0, 1), []types.View{v(3, 1), v(2, 0)})
	b := NewInfoMsg(v(1, 0, 1), []types.View{v(2, 0), v(3, 1)})
	if a.MsgKey() != b.MsgKey() || !a.EqualMsg(b) {
		t.Error("info key and equality must not depend on amb order")
	}
}
