package dvsg

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/member"
	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/types"
	"repro/internal/vsg"
)

// exchangeApp records exchanged views and ordinary messages.
type exchangeApp struct {
	mu        sync.Mutex
	self      types.ProcID
	exchanges []map[types.ProcID]string
	views     []types.View
	recvs     []string
}

func (a *exchangeApp) StateSnapshot(v types.View) string {
	return fmt.Sprintf("state-of-%d", a.self)
}

func (a *exchangeApp) OnExchangedView(v types.View, states map[types.ProcID]string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cp := make(map[types.ProcID]string, len(states))
	for p, s := range states {
		cp[p] = s
	}
	a.exchanges = append(a.exchanges, cp)
	a.views = append(a.views, v)
}

func (a *exchangeApp) OnRecv(m types.Msg, from types.ProcID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recvs = append(a.recvs, m.MsgKey())
}

func (a *exchangeApp) OnSafe(m types.Msg, from types.ProcID) {}

func (a *exchangeApp) lastExchange() (types.View, map[types.ProcID]string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.views) == 0 {
		return types.View{}, nil, false
	}
	return a.views[len(a.views)-1], a.exchanges[len(a.exchanges)-1], true
}

func newExchangeStack(t *testing.T, n int) ([]*vsg.Node, []*ExchangeLayer, []*exchangeApp, *netfab.Fabric, []*Layer) {
	t.Helper()
	universe := types.RangeProcSet(n)
	fab := netfab.NewFabric(universe, netfab.Config{})
	transports := make([]netfab.Transport, n)
	for i := range transports {
		transports[i] = fab
	}
	nodes, layers, apps, dvsLayers := newExchangeStackOver(t, universe, transports)
	return nodes, layers, apps, fab, dvsLayers
}

// newExchangeStackOver starts one exchange-layer stack per transport, for
// processes 0..len(transports)-1 of the universe.
func newExchangeStackOver(t *testing.T, universe types.ProcSet, transports []netfab.Transport) ([]*vsg.Node, []*ExchangeLayer, []*exchangeApp, []*Layer) {
	t.Helper()
	v0 := types.InitialView(universe)
	var nodes []*vsg.Node
	var layers []*ExchangeLayer
	var dvsLayers []*Layer
	var apps []*exchangeApp
	for i, tr := range transports {
		id := types.ProcID(i)
		node := vsg.NewNode(vsg.Config{Self: id, Universe: universe, Initial: v0, Transport: tr})
		app := &exchangeApp{self: id}
		xl := NewExchangeLayer(app)
		layer := New(dvscore.NewNode(id, v0, true), xl, true)
		xl.BindDVS(layer)
		layer.Bind(node)
		node.SetHandler(layer)
		nodes = append(nodes, node)
		layers = append(layers, xl)
		dvsLayers = append(dvsLayers, layer)
		apps = append(apps, app)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	return nodes, layers, apps, dvsLayers
}

// TestExchangeOverTCP runs an exchange round over a loopback pair: processes
// 0 and 1 of a three-process universe whose third member never comes up, so
// they form the primary {0,1} and exchange snapshots — ExchangeMsg frames,
// alone and inside WireBatches — through the TCP codec.
func TestExchangeOverTCP(t *testing.T) {
	for _, v := range []any{
		member.Heartbeat{}, member.Propose{}, member.Accept{}, member.Install{},
		vsg.Data{}, vsg.Ordered{}, vsg.Ack{}, vsg.SafePoint{}, WireBatch{}, ExchangeMsg{},
	} {
		netfab.RegisterWireType(v)
	}
	lns := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln.Addr().String()
		ln.Close()
	}
	addrs := map[types.ProcID]string{0: lns[0], 1: lns[1], 2: "127.0.0.1:1"}
	var transports []netfab.Transport
	for i := range lns {
		tcp, err := netfab.NewTCPTransport(netfab.TCPConfig{Self: types.ProcID(i), Listen: lns[i], Peers: addrs, RedialBackoffMax: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tcp.Close)
		transports = append(transports, tcp)
	}
	_, _, apps, _ := newExchangeStackOver(t, types.RangeProcSet(3), transports)
	deadline := time.Now().Add(10 * time.Second)
	for _, app := range apps {
		for {
			v, states, ok := app.lastExchange()
			if ok && v.Members.Len() == 2 {
				if states[0] != "state-of-0" || states[1] != "state-of-1" {
					t.Fatalf("process %d exchanged %v", app.self, states)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("process %d: no exchanged view over TCP; have %v %v", app.self, v, ok)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, tr := range transports {
		if st := tr.(*netfab.TCPTransport).Stats(); st.RecvMalformed != 0 || st.PeersRefused != 0 {
			t.Errorf("transport saw bad input: %s", st)
		}
	}
}

func TestExchangeDeliversAllSnapshots(t *testing.T) {
	nodes, _, apps, fab, _ := newExchangeStack(t, 4)
	_ = nodes
	// Force a new primary view {0,1,2}: the exchange must deliver all
	// three snapshots to each member, already registered.
	fab.Partition([]types.ProcID{0, 1, 2})
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, states, ok := apps[0].lastExchange()
		if ok && v.Members.Len() == 3 {
			for _, p := range []types.ProcID{0, 1, 2} {
				want := fmt.Sprintf("state-of-%d", p)
				if states[p] != want {
					t.Fatalf("states[%d] = %q, want %q", p, states[p], want)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no exchanged view; have %v %v", v, ok)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestExchangeAutoRegistersEnablingGC(t *testing.T) {
	nodes, _, _, fab, dvsLayers := newExchangeStack(t, 3)
	fab.Partition([]types.ProcID{0, 1})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		got := make(chan Stats, 1)
		if !nodes[0].Do(func() { got <- dvsLayers[0].Stats() }) {
			break
		}
		if st := <-got; st.GCs >= 1 && st.RegistersOut >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("service-driven registration did not trigger garbage collection")
}

func TestExchangeOrdinaryMessagesAfterExchange(t *testing.T) {
	nodes, layers, apps, _, _ := newExchangeStack(t, 3)
	nodes[1].Do(func() { layers[1].Send(types.ClientMsg("post")) })
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		apps[2].mu.Lock()
		n := len(apps[2].recvs)
		apps[2].mu.Unlock()
		if n >= 1 {
			apps[2].mu.Lock()
			got := apps[2].recvs[0]
			apps[2].mu.Unlock()
			if got != "c:post" {
				t.Fatalf("recv = %q", got)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("ordinary message not delivered through the exchange layer")
}
