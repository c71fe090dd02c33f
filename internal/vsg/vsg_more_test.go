package vsg

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	netfab "repro/internal/net"
	"repro/internal/types"
)

// recorder is a thread-safe vsg.Handler capturing events in order.
type recorder struct {
	mu     sync.Mutex
	events []string
	views  []types.View
}

func (r *recorder) OnNewView(v types.View) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, "view:"+v.String())
	r.views = append(r.views, v)
}

func (r *recorder) OnRecv(p any, from types.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, fmt.Sprintf("recv:%v@%d", p, from))
}

func (r *recorder) OnSafe(p any, from types.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, fmt.Sprintf("safe:%v@%d", p, from))
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

func (r *recorder) lastView() (types.View, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.views) == 0 {
		return types.View{}, false
	}
	return r.views[len(r.views)-1], true
}

type cluster struct {
	fab   *netfab.Fabric
	nodes []*Node
	recs  []*recorder
}

func newCluster(t *testing.T, n int, p0 ...types.ProcID) *cluster {
	t.Helper()
	universe := types.RangeProcSet(n)
	if len(p0) == 0 {
		p0 = universe.Sorted()
	}
	v0 := types.InitialView(types.NewProcSet(p0...))
	c := &cluster{fab: netfab.NewFabric(universe, netfab.Config{})}
	for i := 0; i < n; i++ {
		rec := &recorder{}
		node := NewNode(Config{Self: types.ProcID(i), Universe: universe, Initial: v0, Transport: c.fab})
		node.SetHandler(rec)
		c.nodes = append(c.nodes, node)
		c.recs = append(c.recs, rec)
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			nd.Stop()
		}
	})
	return c
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", msg)
}

func count(events []string, prefix string) int {
	n := 0
	for _, e := range events {
		if len(e) >= len(prefix) && e[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

func TestTotalOrderAcrossSenders(t *testing.T) {
	c := newCluster(t, 3)
	for k := 0; k < 4; k++ {
		k := k
		c.nodes[1].Do(func() { c.nodes[1].SendInLoop(fmt.Sprintf("b%d", k)) })
		c.nodes[2].Do(func() { c.nodes[2].SendInLoop(fmt.Sprintf("c%d", k)) })
	}
	waitFor(t, 3*time.Second, func() bool {
		for _, r := range c.recs {
			if count(r.snapshot(), "recv:") < 8 {
				return false
			}
		}
		return true
	}, "all recvs")

	// All nodes must observe the same recv order.
	var want []string
	for _, e := range c.recs[0].snapshot() {
		if len(e) > 5 && e[:5] == "recv:" {
			want = append(want, e)
		}
	}
	for i, r := range c.recs[1:] {
		var got []string
		for _, e := range r.snapshot() {
			if len(e) > 5 && e[:5] == "recv:" {
				got = append(got, e)
			}
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("node %d order diverges at %d: %s vs %s", i+1, k, got[k], want[k])
			}
		}
	}
}

func TestSafeFollowsRecvEverywhere(t *testing.T) {
	c := newCluster(t, 3)
	c.nodes[0].Do(func() { c.nodes[0].SendInLoop("m") })
	waitFor(t, 3*time.Second, func() bool {
		for _, r := range c.recs {
			if count(r.snapshot(), "safe:") < 1 {
				return false
			}
		}
		return true
	}, "safe everywhere")
	// In every node's event sequence, recv:m precedes safe:m.
	for i, r := range c.recs {
		events := r.snapshot()
		ri, si := -1, -1
		for k, e := range events {
			if e == "recv:m@0" && ri < 0 {
				ri = k
			}
			if e == "safe:m@0" && si < 0 {
				si = k
			}
		}
		if ri < 0 || si < 0 || si < ri {
			t.Errorf("node %d: recv at %d, safe at %d", i, ri, si)
		}
	}
}

func TestViewChangeOnPartition(t *testing.T) {
	c := newCluster(t, 4)
	c.fab.Partition([]types.ProcID{0, 1, 2}, []types.ProcID{3})
	waitFor(t, 3*time.Second, func() bool {
		v, ok := c.recs[0].lastView()
		return ok && v.Members.Len() == 3 && !v.Contains(3)
	}, "majority view without 3")
	// Messages sent in the new view reach only its members.
	c.nodes[0].Do(func() { c.nodes[0].SendInLoop("post") })
	waitFor(t, 3*time.Second, func() bool {
		return count(c.recs[2].snapshot(), "recv:post") == 1
	}, "delivery within new view")
	if count(c.recs[3].snapshot(), "recv:post") != 0 {
		t.Error("partitioned node received a message from the other component")
	}
	// Heal: a merged view forms at everyone.
	c.fab.Heal()
	waitFor(t, 3*time.Second, func() bool {
		for _, r := range c.recs {
			v, ok := r.lastView()
			if !ok || v.Members.Len() != 4 {
				return false
			}
		}
		return true
	}, "merged view everywhere")
}

func TestViewIdentifiersMonotonePerNode(t *testing.T) {
	c := newCluster(t, 4)
	c.fab.Partition([]types.ProcID{0, 1}, []types.ProcID{2, 3})
	time.Sleep(100 * time.Millisecond)
	c.fab.Heal()
	time.Sleep(150 * time.Millisecond)
	for i, r := range c.recs {
		r.mu.Lock()
		for k := 1; k < len(r.views); k++ {
			if !r.views[k-1].ID.Less(r.views[k].ID) {
				t.Errorf("node %d: view ids not increasing: %s then %s", i, r.views[k-1].ID, r.views[k].ID)
			}
		}
		r.mu.Unlock()
	}
}

func TestRetransmissionHealsInboxLoss(t *testing.T) {
	// A tiny inbox forces drops under a burst; leader retransmission must
	// still deliver everything.
	universe := types.RangeProcSet(2)
	v0 := types.InitialView(universe)
	fab := netfab.NewFabric(universe, netfab.Config{InboxSize: 4})
	recs := []*recorder{{}, {}}
	var nodes []*Node
	for i := 0; i < 2; i++ {
		nd := NewNode(Config{Self: types.ProcID(i), Universe: universe, Initial: v0, Transport: fab})
		nd.SetHandler(recs[i])
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	for k := 0; k < 20; k++ {
		k := k
		nodes[0].Do(func() { nodes[0].SendInLoop(fmt.Sprintf("m%d", k)) })
	}
	waitFor(t, 5*time.Second, func() bool {
		return count(recs[1].snapshot(), "recv:") >= 20
	}, "all 20 messages at follower despite tiny inbox")
}

func TestDoAfterStop(t *testing.T) {
	c := newCluster(t, 2)
	c.nodes[0].Stop()
	if c.nodes[0].Do(func() {}) {
		t.Error("Do after Stop should report failure")
	}
}

func TestPublishedView(t *testing.T) {
	c := newCluster(t, 2)
	waitFor(t, time.Second, func() bool {
		v, ok := c.nodes[1].View()
		return ok && v.Members.Len() == 2
	}, "published view")
}

func TestStaleViewMessagesIgnored(t *testing.T) {
	// Ordered/Ack/SafePoint frames tagged with a different view id must be
	// ignored rather than corrupt the sequencer.
	c := newCluster(t, 2)
	stale := types.ViewID{Seq: 99, Origin: 0}
	c.nodes[1].Do(func() {
		c.nodes[1].onOrdered(Ordered{ViewID: stale, Seq: 1, Sender: 0, Payload: "ghost"})
		c.nodes[1].onSafePoint(SafePoint{ViewID: stale, Seq: 5})
	})
	c.nodes[0].Do(func() { c.nodes[0].SendInLoop("real") })
	waitFor(t, 3*time.Second, func() bool {
		return count(c.recs[1].snapshot(), "recv:real") == 1
	}, "real message despite stale frames")
	if count(c.recs[1].snapshot(), "recv:ghost") != 0 {
		t.Error("stale-view message delivered")
	}
}

// safeCounter counts safe indications; nothing else about the run matters to
// TestLogsReleaseWhatIsSafe.
type safeCounter struct{ safes atomic.Int64 }

func (*safeCounter) OnNewView(types.View)     {}
func (*safeCounter) OnRecv(any, types.ProcID) {}
func (c *safeCounter) OnSafe(any, types.ProcID) {
	c.safes.Add(1)
}

// TestVSLogsBounded: delivered is read once, when the entry's safe
// indication goes up, and leaderLog only from the slowest member's ack on, so
// neither keeps an Ordered (and through its payload a whole batch), nor the
// slot it sat in, past that point. One view, 50k messages from a follower
// under a window of 256: at every sample and at the end both logs' length
// and capacity are bounded by what is in flight, not by the run.
func TestVSLogsBounded(t *testing.T) {
	const total, window = 50000, 256
	universe := types.RangeProcSet(3)
	v0 := types.InitialView(universe)
	fab := netfab.NewFabric(universe, netfab.Config{})
	nodes := make([]*Node, 3)
	handlers := make([]*safeCounter, 3)
	for i := range nodes {
		handlers[i] = &safeCounter{}
		nodes[i] = NewNode(Config{Self: types.ProcID(i), Universe: universe, Initial: v0, Transport: fab})
		nodes[i].SetHandler(handlers[i])
	}
	for _, nd := range nodes {
		nd.Start()
		defer nd.Stop()
	}
	// sample reads node i's logs on its own loop: frames held, storage, and
	// where the two logs end.
	sample := func(i int) (held, storage, leaderEnd, deliveredEnd int) {
		done := make(chan struct{})
		nodes[i].Do(func() {
			nd := nodes[i]
			leaderEnd, deliveredEnd = nd.leaderLog.end(), nd.delivered.end()
			held = leaderEnd - nd.leaderLog.base + deliveredEnd - nd.delivered.base
			storage = cap(nd.leaderLog.buf) + cap(nd.delivered.buf)
			close(done)
		})
		<-done
		return
	}
	for k := 0; k < total; k++ {
		k := k
		waitFor(t, 10*time.Second, func() bool { return int(handlers[1].safes.Load()) > k-window }, "the window to open")
		nodes[1].Do(func() { nodes[1].SendInLoop(k) })
		if k%5000 == 4999 {
			for i := range nodes {
				if held, storage, _, _ := sample(i); held > 4*window || storage > 16*window {
					t.Fatalf("after %d sends node %d holds %d frames in storage for %d; at most %d are in flight", k+1, i, held, storage, window)
				}
			}
		}
	}
	for i, h := range handlers {
		h := h
		waitFor(t, 10*time.Second, func() bool { return h.safes.Load() == total }, fmt.Sprintf("all safe indications at node %d", i))
	}
	for i := range nodes {
		held, storage, le, de := sample(i)
		if held != 0 || storage > 16*window {
			t.Errorf("node %d at rest holds %d frames in storage for %d", i, held, storage)
		}
		if de != total || (i == 0 && le != total) {
			t.Errorf("node %d: logs end at %d and %d, want the whole run (%d): dropping must not move indices", i, le, de, total)
		}
	}
}

// TestNewNodeRefusesSelfBeyondProcSet: a node's own id must fit a process
// set; NewNode says so rather than building a node no view can hold.
func TestNewNodeRefusesSelfBeyondProcSet(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "0–63") {
			t.Errorf("NewNode with Self 64: %v", r)
		}
	}()
	NewNode(Config{Self: types.MaxProcs, Universe: types.RangeProcSet(2), Initial: types.InitialView(types.RangeProcSet(2))})
}

// TestNonMemberSenderIsNotDelivered: a peer outside the view, whatever id it
// claims, gets nothing ordered or delivered in it, so no id a process set
// cannot hold reaches the layers above.
func TestNonMemberSenderIsNotDelivered(t *testing.T) {
	u := types.RangeProcSet(2)
	v0 := types.InitialView(u)
	n := NewNode(Config{Self: 0, Universe: u, Initial: v0, Transport: netfab.NewFabric(u, netfab.Config{})})
	rec := &recorder{}
	n.SetHandler(rec)
	n.installView(v0) // as Start does, without the loop
	n.onMessage(netfab.Envelope{From: 1, Payload: Ordered{ViewID: v0.ID, Seq: 1, Sender: types.MaxProcs, Payload: "x"}})
	n.onMessage(netfab.Envelope{From: 100, Payload: Data{ViewID: v0.ID, SenderSeq: 1, Payload: "y"}})
	n.onMessage(netfab.Envelope{From: 1, Payload: Ordered{ViewID: v0.ID, Seq: 1, Sender: 1, Payload: "z"}})
	if got := rec.snapshot(); len(got) != 2 || got[1] != "recv:z@1" {
		t.Errorf("events %v, want the view and z from 1 only", got)
	}
}
