package tob

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dvsg"
	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/types"
	"repro/internal/vsg"
)

type stack struct {
	fab   *netfab.Fabric
	nodes []*vsg.Node
	apps  []*Layer
}

func newStack(t *testing.T, n int, register bool) *stack {
	t.Helper()
	universe := types.RangeProcSet(n)
	v0 := types.InitialView(universe)
	s := &stack{fab: netfab.NewFabric(universe, netfab.Config{})}
	for i := 0; i < n; i++ {
		id := types.ProcID(i)
		node := vsg.NewNode(vsg.Config{Self: id, Universe: universe, Initial: v0, Transport: s.fab})
		app := New(id, v0, register, node.Stopped())
		layer := dvsg.New(dvscore.NewNode(id, v0, true), app, true)
		layer.Bind(node)
		app.Bind(layer)
		node.SetHandler(layer)
		s.nodes = append(s.nodes, node)
		s.apps = append(s.apps, app)
	}
	for _, nd := range s.nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for _, nd := range s.nodes {
			nd.Stop()
		}
	})
	return s
}

func (s *stack) broadcast(i int, a string) {
	s.nodes[i].Do(func() { s.apps[i].Broadcast(a) })
}

func recvN(t *testing.T, app *Layer, n int, timeout time.Duration) []Delivery {
	t.Helper()
	var out []Delivery
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case d := <-app.Deliveries():
			out = append(out, d)
		case <-deadline:
			t.Fatalf("timeout: %d of %d deliveries", len(out), n)
		}
	}
	return out
}

func TestBroadcastDeliverAll(t *testing.T) {
	s := newStack(t, 3, true)
	for k := 0; k < 6; k++ {
		s.broadcast(k%3, fmt.Sprintf("m%d", k))
	}
	var seqs [][]Delivery
	for i := 0; i < 3; i++ {
		seqs = append(seqs, recvN(t, s.apps[i], 6, 5*time.Second))
	}
	for i := 1; i < 3; i++ {
		for k := range seqs[0] {
			if seqs[i][k] != seqs[0][k] {
				t.Fatalf("node %d diverges at %d: %v vs %v", i, k, seqs[i][k], seqs[0][k])
			}
		}
	}
}

func TestPerOriginFIFO(t *testing.T) {
	s := newStack(t, 3, true)
	for k := 0; k < 5; k++ {
		s.broadcast(1, fmt.Sprintf("f%d", k))
	}
	got := recvN(t, s.apps[0], 5, 5*time.Second)
	for k, d := range got {
		if d.Origin != 1 || d.Payload != fmt.Sprintf("f%d", k) {
			t.Fatalf("delivery %d = %+v", k, d)
		}
	}
}

func TestViewEventsReportEstablishment(t *testing.T) {
	s := newStack(t, 3, true)
	s.fab.Partition([]types.ProcID{0, 1})
	deadline := time.After(3 * time.Second)
	for {
		select {
		case e := <-s.apps[0].Views():
			if e.View.Members.Len() == 2 && e.Established {
				return
			}
		case <-deadline:
			t.Fatal("no established view event for the primary {0,1}")
		}
	}
}

func TestStatsProgress(t *testing.T) {
	s := newStack(t, 3, true)
	s.broadcast(0, "x")
	recvN(t, s.apps[0], 1, 5*time.Second)
	ch := make(chan Stats, 1)
	s.nodes[0].Do(func() { ch <- s.apps[0].Stats() })
	st := <-ch
	if st.Broadcasts != 1 || st.Labeled != 1 || st.Confirmed == 0 || st.Delivered == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRegistrationDisabledStillDelivers(t *testing.T) {
	s := newStack(t, 3, false)
	s.fab.Partition([]types.ProcID{0, 1})
	time.Sleep(150 * time.Millisecond)
	s.broadcast(0, "noreg")
	got := recvN(t, s.apps[1], 1, 5*time.Second)
	if got[0].Payload != "noreg" {
		t.Fatalf("delivery = %+v", got[0])
	}
	// Without registration the DVS layer never garbage-collects; the view
	// stays unregistered at the DVS level — this only affects GC, not
	// delivery.
	ch := make(chan Stats, 1)
	s.nodes[0].Do(func() { ch <- s.apps[0].Stats() })
	if st := <-ch; st.Established != 0 {
		t.Errorf("established counter should stay 0 with registration disabled: %+v", st)
	}
}

func TestBufferedBroadcastBeforeView(t *testing.T) {
	// A process outside v0 buffers broadcasts in delay until it has a view.
	universe := types.RangeProcSet(3)
	v0 := types.InitialView(types.NewProcSet(0, 1))
	fab := netfab.NewFabric(universe, netfab.Config{})
	var nodes []*vsg.Node
	var apps []*Layer
	for i := 0; i < 3; i++ {
		id := types.ProcID(i)
		node := vsg.NewNode(vsg.Config{Self: id, Universe: universe, Initial: v0, Transport: fab})
		app := New(id, v0, true, node.Stopped())
		layer := dvsg.New(dvscore.NewNode(id, v0, v0.Contains(id)), app, true)
		layer.Bind(node)
		app.Bind(layer)
		node.SetHandler(layer)
		nodes = append(nodes, node)
		apps = append(apps, app)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	// Process 2 has no view yet; its broadcast sits in delay until the
	// membership admits it.
	nodes[2].Do(func() { apps[2].Broadcast("early") })
	got := recvN(t, apps[0], 1, 5*time.Second)
	if got[0].Payload != "early" || got[0].Origin != 2 {
		t.Fatalf("delivery = %+v", got[0])
	}
}

// TestUndrainedChannelsNeverBlockTheLoop holds the shell's hand-offs to the
// application non-blocking: with nobody reading Views or Deliveries, more
// events than the channel holds must be counted as dropped while the event
// loop keeps serving Do. A bare send there wedges the loop once the buffer
// is full, and with it every node sharing the process.
func TestUndrainedChannelsNeverBlockTheLoop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		events  int
		feed    func(app *Layer, k int)
		dropped func(Stats) uint64
		drain   func(app *Layer)
	}{
		{"views", 1100,
			func(app *Layer, k int) { app.OnDVSNewView(types.NewView(types.ViewID{Seq: uint64(k + 1)}, 0)) },
			func(st Stats) uint64 { return st.DroppedViews },
			func(app *Layer) {
				for range app.Views() {
				}
			}},
		{"deliveries", 1<<14 + 100,
			func(app *Layer, k int) { app.Broadcast(fmt.Sprint(k)) },
			func(st Stats) uint64 { return st.DroppedUp },
			func(app *Layer) {
				for range app.Deliveries() {
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStack(t, 1, true)
			node, app := s.nodes[0], s.apps[0]
			go func() {
				for k := 0; k < tc.events && node.Do(func() { tc.feed(app, k) }); k++ {
				}
			}()
			deadline := time.After(5 * time.Second)
			for {
				got := make(chan Stats, 1)
				go node.Do(func() { got <- app.Stats() })
				select {
				case st := <-got:
					if tc.dropped(st) > 0 {
						return
					}
					time.Sleep(time.Millisecond)
				case <-deadline:
					// Unwedge the loop, or the cleanup's Stop waits on it forever.
					go tc.drain(app)
					t.Fatalf("no %s dropped 5 s after feeding %d: the loop blocked on the undrained channel", tc.name, tc.events)
				}
			}
		})
	}
}
