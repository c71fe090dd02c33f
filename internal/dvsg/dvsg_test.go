package dvsg

import (
	"fmt"
	"sync"
	"testing"
	"time"

	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/types"
	"repro/internal/vsg"
)

// recorder captures DVS upcalls.
type recorder struct {
	mu    sync.Mutex
	views []types.View
	recvs []string
	safes []string
	layer *Layer
}

func (r *recorder) OnDVSNewView(v types.View) {
	r.mu.Lock()
	r.views = append(r.views, v)
	r.mu.Unlock()
	// A real application registers once it has gathered what it needs for
	// the new view; this recorder registers immediately.
	r.layer.Register()
}

func (r *recorder) OnDVSRecv(m types.Msg, from types.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recvs = append(r.recvs, m.MsgKey()+"@"+from.String())
}

func (r *recorder) OnDVSSafe(m types.Msg, from types.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.safes = append(r.safes, m.MsgKey()+"@"+from.String())
}

func (r *recorder) counts() (int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.views), len(r.recvs), len(r.safes)
}

func (r *recorder) lastView() (types.View, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.views) == 0 {
		return types.View{}, false
	}
	return r.views[len(r.views)-1], true
}

type stack struct {
	fab    *netfab.Fabric
	nodes  []*vsg.Node
	layers []*Layer
	recs   []*recorder
}

func newStack(t *testing.T, n int) *stack {
	t.Helper()
	universe := types.RangeProcSet(n)
	v0 := types.InitialView(universe)
	s := &stack{fab: netfab.NewFabric(universe, netfab.Config{})}
	for i := 0; i < n; i++ {
		id := types.ProcID(i)
		node := vsg.NewNode(vsg.Config{Self: id, Universe: universe, Initial: v0, Transport: s.fab})
		rec := &recorder{}
		layer := New(dvscore.NewNode(id, v0, true), rec, true)
		rec.layer = layer
		layer.Bind(node)
		node.SetHandler(layer)
		s.nodes = append(s.nodes, node)
		s.layers = append(s.layers, layer)
		s.recs = append(s.recs, rec)
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

func TestClientMessageRoundTrip(t *testing.T) {
	s := newStack(t, 3)
	s.nodes[0].Do(func() { s.layers[0].Send(types.ClientMsg("hello")) })
	waitFor(t, 3*time.Second, func() bool {
		_, recvs, safes := s.recs[2].counts()
		return recvs >= 1 && safes >= 1
	}, "delivery and safe at node 2")
	s.recs[2].mu.Lock()
	defer s.recs[2].mu.Unlock()
	if s.recs[2].recvs[0] != "c:hello@0" {
		t.Errorf("recv = %q", s.recs[2].recvs[0])
	}
}

func TestPartitionFormsDynamicPrimary(t *testing.T) {
	s := newStack(t, 5)
	s.fab.Partition([]types.ProcID{0, 1, 2}, []types.ProcID{3, 4})
	waitFor(t, 3*time.Second, func() bool {
		v, ok := s.recs[0].lastView()
		return ok && v.Members.Len() == 3
	}, "majority dynamic primary")
	// The minority side must never announce a primary of its own.
	time.Sleep(100 * time.Millisecond)
	if v, ok := s.recs[3].lastView(); ok && v.Members.Len() < 5 {
		t.Errorf("minority announced primary %s", v)
	}
}

func TestRegistrationEnablesGC(t *testing.T) {
	s := newStack(t, 3)
	// Force one view change so registration/GC activity happens beyond v0.
	s.fab.Partition([]types.ProcID{0, 1})
	waitFor(t, 3*time.Second, func() bool {
		v, ok := s.recs[0].lastView()
		return ok && v.Members.Len() == 2
	}, "primary {0,1}")
	waitFor(t, 3*time.Second, func() bool {
		ch := make(chan Stats, 1)
		if !s.nodes[0].Do(func() { ch <- s.layers[0].Stats() }) {
			return false
		}
		st := <-ch
		return st.GCs >= 1
	}, "garbage collection after registration")
}

func TestNoGCWhenDisabled(t *testing.T) {
	universe := types.RangeProcSet(3)
	v0 := types.InitialView(universe)
	fab := netfab.NewFabric(universe, netfab.Config{})
	var nodes []*vsg.Node
	var layers []*Layer
	for i := 0; i < 3; i++ {
		id := types.ProcID(i)
		node := vsg.NewNode(vsg.Config{Self: id, Universe: universe, Initial: v0, Transport: fab})
		rec := &recorder{}
		layer := New(dvscore.NewNode(id, v0, true), rec, false) // GC disabled
		rec.layer = layer
		layer.Bind(node)
		node.SetHandler(layer)
		nodes = append(nodes, node)
		layers = append(layers, layer)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	fab.Partition([]types.ProcID{0, 1})
	time.Sleep(200 * time.Millisecond)
	ch := make(chan Stats, 1)
	if nodes[0].Do(func() { ch <- layers[0].Stats() }) {
		if st := <-ch; st.GCs != 0 {
			t.Errorf("GCs = %d with GC disabled", st.GCs)
		}
	}
}

func TestDeliveryOrderIdenticalAcrossMembers(t *testing.T) {
	s := newStack(t, 3)
	for k := 0; k < 5; k++ {
		k := k
		s.nodes[k%3].Do(func() { s.layers[k%3].Send(types.ClientMsg(fmt.Sprintf("m%d", k))) })
	}
	waitFor(t, 3*time.Second, func() bool {
		for _, r := range s.recs {
			_, recvs, _ := r.counts()
			if recvs < 5 {
				return false
			}
		}
		return true
	}, "all deliveries")
	s.recs[0].mu.Lock()
	want := append([]string(nil), s.recs[0].recvs...)
	s.recs[0].mu.Unlock()
	for i := 1; i < 3; i++ {
		s.recs[i].mu.Lock()
		for k := range want {
			if s.recs[i].recvs[k] != want[k] {
				t.Fatalf("node %d order differs at %d", i, k)
			}
		}
		s.recs[i].mu.Unlock()
	}
}
