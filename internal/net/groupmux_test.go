package net

import (
	"testing"
	"time"

	"repro/internal/types"
)

func newMuxPair(t *testing.T, groups int) (*Fabric, map[types.ProcID]*GroupMux) {
	t.Helper()
	universe := types.RangeProcSet(2)
	f := NewFabric(universe, Config{})
	muxes := make(map[types.ProcID]*GroupMux, 2)
	for p := universe.First(); p >= 0; p = universe.Next(p) {
		m := NewGroupMux(p, f, types.RangeGroups(groups), GroupMuxConfig{})
		if err := m.Start(); err != nil {
			t.Fatalf("start mux %v: %v", p, err)
		}
		t.Cleanup(m.Stop)
		muxes[p] = m
	}
	return f, muxes
}

func muxRecvOne(t *testing.T, tr Transport, p types.ProcID) Envelope {
	t.Helper()
	ch, err := tr.Inbox(p)
	if err != nil {
		t.Fatalf("inbox: %v", err)
	}
	select {
	case env := <-ch:
		return env
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for delivery to %v", p)
		return Envelope{}
	}
}

// TestGroupIsolation checks the demux: traffic sent on group 1's facade
// arrives on group 1's inbox at the peer, untagged, and group 0 sees
// nothing.
func TestGroupIsolation(t *testing.T) {
	_, muxes := newMuxPair(t, 2)
	if !muxes[0].Group(1).Send(0, 1, "hello") {
		t.Fatalf("send refused")
	}
	env := muxRecvOne(t, muxes[1].Group(1), 1)
	if env.From != 0 || env.Payload != "hello" {
		t.Fatalf("got %+v", env)
	}
	g0, _ := muxes[1].Group(0).Inbox(1)
	select {
	case env := <-g0:
		t.Fatalf("group 0 received group 1 traffic: %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestPerGroupFIFO checks that per-link FIFO survives the demux within
// each group even when groups interleave on the wire.
func TestPerGroupFIFO(t *testing.T) {
	_, muxes := newMuxPair(t, 2)
	const n = 200
	for i := 0; i < n; i++ {
		muxes[0].Group(types.GroupID(i%2)).Send(0, 1, i)
	}
	for _, g := range types.RangeGroups(2) {
		want := int(g)
		ch, _ := muxes[1].Group(g).Inbox(1)
		for k := 0; k < n/2; k++ {
			select {
			case env := <-ch:
				if env.Payload.(int) != want {
					t.Fatalf("group %v: got %v, want %v", g, env.Payload, want)
				}
				want += 2
			case <-time.After(2 * time.Second):
				t.Fatalf("group %v: timed out at %d", g, k)
			}
		}
	}
}

// TestNonMemberAndForeignInbox checks the facade's error paths.
func TestNonMemberAndForeignInbox(t *testing.T) {
	_, muxes := newMuxPair(t, 1)
	if _, err := muxes[0].Group(0).Inbox(1); err == nil {
		t.Fatalf("foreign inbox served")
	}
	if _, err := muxes[0].Group(9).Inbox(0); err == nil {
		t.Fatalf("unknown group served")
	}
}

// TestUnknownTrafficDropped checks that untagged payloads and unknown
// groups are counted and discarded, not misrouted.
func TestUnknownTrafficDropped(t *testing.T) {
	f, muxes := newMuxPair(t, 1)
	f.Send(0, 1, "raw")                    // untagged
	muxes[0].Group(0).Send(0, 1, "ok")     // valid — proves pump advanced
	f.Send(0, 1, GroupFrame{G: 7, P: "x"}) // unknown group
	if env := muxRecvOne(t, muxes[1].Group(0), 1); env.Payload != "ok" {
		t.Fatalf("got %+v", env)
	}
	deadline := time.Now().Add(2 * time.Second)
	for muxes[1].Dropped() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped=%d, want 2", muxes[1].Dropped())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPartitionAppliesToAllGroups checks that fabric faults stay
// node-level: a partition cuts every group's facade at once.
func TestPartitionAppliesToAllGroups(t *testing.T) {
	f, muxes := newMuxPair(t, 2)
	f.Partition([]types.ProcID{0}, []types.ProcID{1})
	for _, g := range types.RangeGroups(2) {
		if muxes[0].Group(g).Send(0, 1, "x") {
			t.Fatalf("group %v crossed the partition", g)
		}
	}
	f.Heal()
	if !muxes[0].Group(1).Send(0, 1, "y") {
		t.Fatalf("send refused after heal")
	}
	if env := muxRecvOne(t, muxes[1].Group(1), 1); env.Payload != "y" {
		t.Fatalf("got %+v", env)
	}
}
