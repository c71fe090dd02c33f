package member

import (
	"testing"
	"time"

	"repro/internal/types"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestDetectorAliveAndSuspect(t *testing.T) {
	u := types.RangeProcSet(3)
	d := NewDetector(0, u, 100*time.Millisecond, t0)
	if d.Alive(t0) != u {
		t.Error("everyone starts alive")
	}
	later := t0.Add(150 * time.Millisecond)
	alive := d.Alive(later)
	if alive != types.NewProcSet(0) {
		t.Errorf("after timeout only self alive, got %s", alive)
	}
	d.Observe(2, later)
	alive = d.Alive(later)
	if !alive.Contains(2) || alive.Contains(1) {
		t.Errorf("alive = %s", alive)
	}
	// Self is alive even if never observed.
	if !d.Alive(t0.Add(time.Hour)).Contains(0) {
		t.Error("self must always be alive")
	}
}

// TestDetectorIgnoresUnknownProcess: an id outside the universe never becomes
// alive, however often it is observed, so Agreement is never handed a ghost
// to propose into a view.
func TestDetectorIgnoresUnknownProcess(t *testing.T) {
	u := types.RangeProcSet(3)
	d := NewDetector(0, u, 100*time.Millisecond, t0)
	for _, ghost := range []types.ProcID{3, 99, -1} {
		d.Observe(ghost, t0)
	}
	if alive := d.Alive(t0); alive != u {
		t.Errorf("alive = %s after observing ids outside %s", alive, u)
	}
}

func initialView() types.View {
	return types.InitialView(types.NewProcSet(0, 1, 2))
}

func TestAgreementInitialInstall(t *testing.T) {
	a := NewAgreement(0, initialView(), 50*time.Millisecond)
	if v, ok := a.Current(); !ok || v != initialView() {
		t.Error("member of P0 must have v0 installed")
	}
	b := NewAgreement(4, initialView(), 50*time.Millisecond)
	if _, ok := b.Current(); ok {
		t.Error("non-member must start without a view")
	}
}

func TestLeaderProposesOnStableChange(t *testing.T) {
	a := NewAgreement(0, initialView(), 50*time.Millisecond)
	alive := types.NewProcSet(0, 1)
	// First tick records the estimate; not yet stable.
	sends, inst := a.Tick(t0, alive)
	if len(sends) != 0 || inst != nil {
		t.Fatal("proposal on unstable estimate")
	}
	// Second identical tick: propose to the other member.
	sends, inst = a.Tick(t0.Add(time.Millisecond), alive)
	if inst != nil {
		t.Fatal("must not install before acceptance")
	}
	if len(sends) != 1 {
		t.Fatalf("sends = %v", sends)
	}
	prop, ok := sends[0].Payload.(Propose)
	if !ok || sends[0].To != 1 {
		t.Fatalf("send = %+v", sends[0])
	}
	if prop.View.Members != alive {
		t.Errorf("proposed members = %s", prop.View.Members)
	}
	if !initialView().ID.Less(prop.View.ID) {
		t.Error("proposal id must exceed the current view's")
	}

	// Acceptance from 1 completes the proposal on the next tick.
	a.OnAccept(1, prop.View.ID)
	sends, inst = a.Tick(t0.Add(2*time.Millisecond), alive)
	if inst == nil || inst.Members != alive {
		t.Fatalf("install = %v", inst)
	}
	foundInstall := false
	for _, s := range sends {
		if _, ok := s.Payload.(Install); ok && s.To == 1 {
			foundInstall = true
		}
	}
	if !foundInstall {
		t.Error("leader must send Install to members")
	}
	if v, _ := a.Current(); v.Members != alive {
		t.Error("leader must install locally")
	}
}

func TestNonLeaderNeverProposes(t *testing.T) {
	a := NewAgreement(1, initialView(), 50*time.Millisecond)
	alive := types.NewProcSet(0, 1)
	a.Tick(t0, alive)
	sends, inst := a.Tick(t0.Add(time.Millisecond), alive)
	if len(sends) != 0 || inst != nil {
		t.Error("non-minimum member proposed")
	}
}

func TestFollowerAcceptAndInstall(t *testing.T) {
	a := NewAgreement(1, initialView(), 50*time.Millisecond)
	v1 := types.NewView(types.ViewID{Seq: 1}, 0, 1)
	sends := a.OnPropose(0, v1)
	if len(sends) != 1 {
		t.Fatalf("sends = %v", sends)
	}
	acc, ok := sends[0].Payload.(Accept)
	if !ok || acc.ViewID != v1.ID || sends[0].To != 0 {
		t.Fatalf("accept = %+v", sends[0])
	}
	if inst := a.OnInstall(v1); inst == nil {
		t.Fatal("install refused")
	}
	if v, _ := a.Current(); v != v1 {
		t.Error("current not updated")
	}
}

func TestInstallMonotone(t *testing.T) {
	a := NewAgreement(1, initialView(), 50*time.Millisecond)
	v2 := types.NewView(types.ViewID{Seq: 2}, 0, 1)
	v1 := types.NewView(types.ViewID{Seq: 1}, 0, 1)
	if a.OnInstall(v2) == nil {
		t.Fatal("v2 refused")
	}
	if a.OnInstall(v1) != nil {
		t.Error("older view installed (violates Local View Identifier Monotony)")
	}
	if a.OnInstall(v2) != nil {
		t.Error("same view installed twice")
	}
}

func TestSelfInclusion(t *testing.T) {
	a := NewAgreement(3, initialView(), 50*time.Millisecond)
	notMine := types.NewView(types.ViewID{Seq: 1}, 0, 1)
	if sends := a.OnPropose(0, notMine); len(sends) != 0 {
		t.Error("accepted a proposal not containing self")
	}
	if a.OnInstall(notMine) != nil {
		t.Error("installed a view not containing self")
	}
}

func TestProposalIDsNeverReused(t *testing.T) {
	a := NewAgreement(0, initialView(), time.Millisecond)
	alive := types.NewProcSet(0, 1)
	now := t0
	ids := make(map[types.ViewID]bool)
	for i := 0; i < 5; i++ {
		sends1, _ := a.Tick(now, alive)
		sends2, _ := a.Tick(now.Add(time.Microsecond), alive)
		for _, s := range append(sends1, sends2...) {
			if p, ok := s.Payload.(Propose); ok {
				if ids[p.View.ID] {
					t.Fatalf("proposal id %s reused", p.View.ID)
				}
				ids[p.View.ID] = true
			}
		}
		// No acceptance: proposal times out and a fresh one is made.
		now = now.Add(10 * time.Millisecond)
	}
	if len(ids) < 2 {
		t.Errorf("expected retries with fresh ids, got %d", len(ids))
	}
}

func TestObserveIDFoldsRemoteSeq(t *testing.T) {
	a := NewAgreement(0, initialView(), time.Millisecond)
	// A remote proposal with a large sequence number must push our next
	// proposal above it.
	big := types.NewView(types.ViewID{Seq: 50, Origin: 1}, 0, 1)
	a.OnPropose(1, big)
	alive := types.NewProcSet(0, 2)
	a.Tick(t0, alive)
	sends, _ := a.Tick(t0.Add(time.Microsecond), alive)
	for _, s := range sends {
		if p, ok := s.Payload.(Propose); ok {
			if p.View.ID.Seq <= 50 {
				t.Errorf("proposal seq %d not above observed 50", p.View.ID.Seq)
			}
			return
		}
	}
	t.Fatal("no proposal made")
}

func TestNoProposalWhenMembershipMatches(t *testing.T) {
	a := NewAgreement(0, initialView(), time.Millisecond)
	alive := types.NewProcSet(0, 1, 2) // equals current view
	a.Tick(t0, alive)
	sends, _ := a.Tick(t0.Add(time.Microsecond), alive)
	if len(sends) != 0 {
		t.Error("proposed although the view already matches")
	}
}
