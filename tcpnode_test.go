package dvs

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	netfab "repro/internal/net"
	"repro/internal/types"
)

// loopbackAddrs reserves n distinct loopback ports by binding them all and
// then releasing them: every node needs its peers' addresses before any of
// them starts, and ports the kernel picks do not collide with other tests or
// processes on the host the way fixed ones can.
func loopbackAddrs(t *testing.T, n int) map[int]string {
	t.Helper()
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserving a loopback port: %v", err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// startTCPGroup launches n standalone nodes over real localhost TCP.
func startTCPGroup(t *testing.T, n int, mode Mode) []*Node {
	t.Helper()
	// First pass: bind listeners on ephemeral ports.
	nodes := make([]*Node, n)
	addrs := loopbackAddrs(t, n)
	for i := 0; i < n; i++ {
		peers := make(map[int]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = addrs[j]
			}
		}
		node, err := StartNode(NodeConfig{
			ID:           i,
			Processes:    n,
			Listen:       addrs[i],
			Peers:        peers,
			Mode:         mode,
			TickInterval: 5 * time.Millisecond,
		})
		if err != nil {
			for _, nd := range nodes[:i] {
				nd.Close()
			}
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

func TestTCPNodesDeliverTotalOrder(t *testing.T) {
	nodes := startTCPGroup(t, 3, ModeDynamic)
	time.Sleep(150 * time.Millisecond)
	for k := 0; k < 6; k++ {
		if !nodes[k%3].Broadcast(fmt.Sprintf("tcp%d", k)) {
			t.Fatal("broadcast failed")
		}
	}
	seqs := make([][]Delivery, 3)
	for i := 0; i < 3; i++ {
		deadline := time.After(10 * time.Second)
		for len(seqs[i]) < 6 {
			select {
			case d := <-nodes[i].Deliveries():
				seqs[i] = append(seqs[i], d)
			case <-deadline:
				t.Fatalf("node %d: %d of 6 deliveries", i, len(seqs[i]))
			}
		}
	}
	for i := 1; i < 3; i++ {
		for k := range seqs[0] {
			if seqs[i][k] != seqs[0][k] {
				t.Fatalf("node %d diverges at %d: %v vs %v", i, k, seqs[i][k], seqs[0][k])
			}
		}
	}
}

func TestTCPNodesShardedDeliverPerGroup(t *testing.T) {
	const n, groups = 3, 2
	addrs := loopbackAddrs(t, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		peers := make(map[int]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = addrs[j]
			}
		}
		node, err := StartNode(NodeConfig{
			ID:           i,
			Processes:    n,
			Listen:       addrs[i],
			Peers:        peers,
			Mode:         ModeDynamic,
			Groups:       groups,
			TickInterval: 5 * time.Millisecond,
		})
		if err != nil {
			for _, nd := range nodes[:i] {
				nd.Close()
			}
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	time.Sleep(150 * time.Millisecond)

	// Keyed traffic lands on whichever group the ring picks; count per
	// group with SubmitKey so the expectation matches the routing.
	want := make([]int, groups)
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("key%d", k)
		g := nodes[0].SubmitKey(key)
		if og := nodes[1].SubmitKey(key); og != g {
			t.Fatalf("ring disagreement for %q: %v vs %v", key, g, og)
		}
		if !nodes[k%n].Submit(key, "v:"+key) {
			t.Fatalf("submit %q failed", key)
		}
		want[g]++
	}
	// One atomic multicast addressed to both groups: each group delivers
	// the payload exactly once.
	allGroups := nodes[0].Groups()
	if err := nodes[0].SubmitMulti(allGroups, "both"); err != nil {
		t.Fatalf("SubmitMulti: %v", err)
	}
	for g := range want {
		want[g]++
	}

	seqs := make([][][]Delivery, n) // [node][group]
	for i := 0; i < n; i++ {
		seqs[i] = make([][]Delivery, groups)
		for gi, g := range allGroups {
			h, ok := nodes[i].Group(g)
			if !ok {
				t.Fatalf("node %d: no handle for group %v", i, g)
			}
			deadline := time.After(20 * time.Second)
			for len(seqs[i][gi]) < want[gi] {
				select {
				case d := <-h.Deliveries():
					seqs[i][gi] = append(seqs[i][gi], d)
				case <-deadline:
					t.Fatalf("node %d group %v: %d of %d deliveries",
						i, g, len(seqs[i][gi]), want[gi])
				}
			}
		}
	}
	for gi := range allGroups {
		sawMulti := false
		for _, d := range seqs[0][gi] {
			if d.Payload == "both" {
				sawMulti = true
			}
		}
		if !sawMulti {
			t.Fatalf("group %d never delivered the multicast", gi)
		}
		for i := 1; i < n; i++ {
			for k := range seqs[0][gi] {
				if seqs[i][gi][k] != seqs[0][gi][k] {
					t.Fatalf("node %d group %d diverges at %d: %v vs %v",
						i, gi, k, seqs[i][gi][k], seqs[0][gi][k])
				}
			}
		}
	}
}

func TestTCPNodeSurvivesPeerShutdown(t *testing.T) {
	nodes := startTCPGroup(t, 3, ModeDynamic)
	time.Sleep(150 * time.Millisecond)
	nodes[2].Close() // peer goes away for good
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok := nodes[0].CurrentPrimary()
		if ok && v.Members.Len() == 2 && nodes[0].Established() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never formed {0,1}; have %v %v", v, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !nodes[0].Broadcast("without-2") {
		t.Fatal("broadcast failed")
	}
	select {
	case d := <-nodes[1].Deliveries():
		if d.Payload != "without-2" {
			t.Fatalf("delivery = %+v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery after peer shutdown")
	}
}

func TestTCPNodeConfigValidation(t *testing.T) {
	if _, err := StartNode(NodeConfig{}); err == nil {
		t.Error("zero processes accepted")
	}
	if _, err := StartNode(NodeConfig{Processes: 2, ID: 5}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := StartNode(NodeConfig{Processes: 2, ID: 0, Listen: "127.0.0.1:1", Initial: []int{9}}); err == nil {
		t.Error("out-of-range initial member accepted")
	}
}

// deafTransport hands out no inbox, the way a transport that does not serve
// the node's id would; Close records that the node released it.
type deafTransport struct {
	netfab.Transport
	closed *bool
}

func (d deafTransport) Inbox(types.ProcID) (<-chan netfab.Envelope, error) {
	return nil, errors.New("no inbox")
}

func (d deafTransport) Close() { *d.closed = true }

// A multiplexed node whose group mux cannot start would never receive a
// frame: StartNode must say so, and release the transport and its wrapper.
func TestStartNodeSurfacesMuxStartError(t *testing.T) {
	var addr string
	closed := false
	n, err := StartNode(NodeConfig{
		Processes: 1,
		Groups:    2,
		Listen:    "127.0.0.1:0",
		WrapTransport: func(tr netfab.Transport) netfab.Transport {
			addr = tr.(*netfab.TCPTransport).Addr()
			return deafTransport{tr, &closed}
		},
	})
	if err == nil {
		n.Close()
		t.Fatal("StartNode returned a node whose group mux never started")
	}
	if !closed {
		t.Error("the WrapTransport wrapper was not closed")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("the TCP transport is still listening: %v", err)
	}
	ln.Close()
}

// tagCounter counts the frames a node sends with and without a group tag.
type tagCounter struct {
	netfab.Transport
	mu               sync.Mutex
	tagged, untagged int
}

func (c *tagCounter) Send(from, to types.ProcID, p netfab.Payload) bool {
	c.mu.Lock()
	if _, ok := p.(netfab.GroupFrame); ok {
		c.tagged++
	} else {
		c.untagged++
	}
	c.mu.Unlock()
	return c.Transport.Send(from, to, p)
}

func (c *tagCounter) counts() (tagged, untagged int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tagged, c.untagged
}

// The wire shape of the two node modes: a single-group node never tags a
// frame (it interoperates with nodes that predate sharding), a sharded node
// tags every one (an untagged frame is dropped by its peers' muxes).
func TestNodeTagsFramesIffSharded(t *testing.T) {
	for _, groups := range []int{1, 2} {
		var c *tagCounter
		n, err := StartNode(NodeConfig{
			Processes:    2, // the absent peer is what the heartbeats are sent to
			Groups:       groups,
			Listen:       "127.0.0.1:0",
			TickInterval: 2 * time.Millisecond,
			WrapTransport: func(tr netfab.Transport) netfab.Transport {
				c = &tagCounter{Transport: tr}
				return c
			},
		})
		if err != nil {
			t.Fatalf("groups=%d: %v", groups, err)
		}
		n.Broadcast("x")
		deadline := time.Now().Add(10 * time.Second)
		for {
			if tagged, untagged := c.counts(); tagged+untagged >= 5 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("groups=%d: the node sent fewer than 5 frames", groups)
			}
			time.Sleep(2 * time.Millisecond)
		}
		n.Close()
		tagged, untagged := c.counts()
		if groups == 1 && tagged != 0 {
			t.Errorf("single-group node sent %d GroupFrames (and %d bare frames)", tagged, untagged)
		}
		if groups > 1 && untagged != 0 {
			t.Errorf("sharded node sent %d untagged frames (and %d GroupFrames)", untagged, tagged)
		}
	}
}
