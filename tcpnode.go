package dvs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dvsg"
	"repro/internal/mcast"
	"repro/internal/member"
	netfab "repro/internal/net"
	"repro/internal/shard"
	"repro/internal/tob"
	"repro/internal/toimpl"
	"repro/internal/types"
	"repro/internal/vsg"
)

// registerWireTypes registers every payload type the stack puts on the
// wire, so the TCP transport can decode them. GroupFrame is the sharded
// mode's group tag wrapping every other payload; ExchangeMsg is what a
// dvsg.ExchangeLayer application sends.
func registerWireTypes() {
	for _, v := range []any{
		member.Heartbeat{}, member.Propose{}, member.Accept{}, member.Install{},
		vsg.Data{}, vsg.Ordered{}, vsg.Ack{}, vsg.SafePoint{},
		core.InfoMsg{}, core.RegisteredMsg{},
		toimpl.LabelMsg{}, toimpl.SummaryMsg{},
		types.ClientMsg(""), types.Batch{}, dvsg.WireBatch{}, dvsg.ExchangeMsg{},
		netfab.GroupFrame{},
	} {
		netfab.RegisterWireType(v)
	}
}

// NodeConfig configures a standalone process communicating over real TCP —
// the deployable form of the stack. All nodes of a group must agree on
// Processes, Initial, and the peer address map.
type NodeConfig struct {
	// ID is this process's id in [0, Processes).
	ID int
	// Processes is the universe size.
	Processes int
	// Groups is the number of independent DVS/TO groups this node runs
	// over its one TCP transport (default 1). With Groups > 1 the node
	// participates in every group: each group is a complete stack
	// (membership, view synchrony, filter, total order) multiplexed over
	// the shared transport by a group tag, client payloads route to groups
	// by consistent key hash (Node.Submit), and a cross-group atomic
	// multicast coordinates payloads addressed to several groups
	// (Node.SubmitMulti). All nodes of a deployment must agree on Groups.
	Groups int
	// Initial lists v0's members (empty = all). Every group starts from
	// the same initial view.
	Initial []int
	// Listen is the local address, e.g. "127.0.0.1:7000" (":0" picks a
	// port; see Node.Addr).
	Listen string
	// Peers maps remote ids to their addresses.
	Peers map[int]string
	// Mode selects dynamic (default) or static primaries.
	Mode Mode
	// DisableRegistration as in Config.
	DisableRegistration bool
	// TickInterval as in Config; over real networks a coarser tick
	// (e.g. 20ms) is appropriate. SuspectTimeout and ProposeRetry default
	// to 5 and 10 ticks.
	TickInterval   time.Duration
	SuspectTimeout time.Duration
	ProposeRetry   time.Duration
	// WrapTransport, when set, decorates the node's TCP transport before
	// the stack is built — e.g. with a netfab.FaultTransport for chaos
	// testing real TCP nodes. If the returned transport has a Close
	// method, Node.Close calls it before closing the TCP transport.
	WrapTransport func(netfab.Transport) netfab.Transport
	// Stream, when set, records the node's protocol cores: every macro-step
	// is spilled into the given chunked on-disk trace (see NewTraceStream),
	// with bounded recorder memory for arbitrarily long runs. The caller
	// owns the stream and must Close it after Node.Close; check the
	// directory with ReplayTraceStream. Works in both modes: static runs
	// replay through the staticcore baseline.
	Stream *TraceStream
	// Online, when set, runs the in-process sampled conformance checker on
	// this node (see OnlineCheckConfig); counters surface in
	// NodeStats.Check. Requires ModeDynamic.
	Online *OnlineCheckConfig
}

// NodeStats aggregates the per-layer counters of one node: transport,
// view-synchronous layer, dynamic-view layer, and totally-ordered
// broadcast.
type NodeStats struct {
	Net   netfab.Stats
	VS    vsg.Stats
	DVS   dvsg.Stats
	TOB   tob.Stats
	Check OnlineCheckStats // zero unless NodeConfig.Online
}

// Node is one standalone process of a TCP-connected deployment. In
// single-group mode (Groups <= 1) the embedded stack is the node's whole
// protocol state and the historical API is unchanged. In sharded mode the
// node runs one stack per group behind a group multiplexer; the embedded
// stack is group 0's, so the single-group accessors keep working and read
// that group, while Group, Submit and SubmitMulti expose the rest.
type Node struct {
	id        ProcID
	tcp       *netfab.TCPTransport
	transport netfab.Transport // tcp, possibly wrapped (see WrapTransport)
	*stack                     // group 0's stack

	// Sharded mode only (nil/empty in single-group mode).
	mux    *netfab.GroupMux
	groups []types.GroupID
	stacks map[types.GroupID]*stack
	ring   *shard.Ring
	mc     *mcast.Coordinator
}

// StartNode launches a standalone process.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Processes <= 0 {
		return nil, errors.New("dvs: NodeConfig.Processes must be positive")
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Processes {
		return nil, fmt.Errorf("dvs: node id %d out of range", cfg.ID)
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeDynamic
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 1
	}
	if cfg.Online != nil && cfg.Mode != ModeDynamic {
		return nil, errors.New("dvs: NodeConfig.Online requires ModeDynamic")
	}
	if cfg.Groups > 1 && cfg.Stream != nil {
		// One stream holds one group's run (the trace is group-homogeneous);
		// a sharded node needs one stream per group, which the embedding
		// runtime owns.
		return nil, errors.New("dvs: NodeConfig.Stream requires Groups <= 1")
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 20 * time.Millisecond
	}
	registerWireTypes()

	universe := types.RangeProcSet(cfg.Processes)
	p0 := types.NewProcSet()
	if len(cfg.Initial) == 0 {
		p0 = universe.Clone()
	} else {
		for _, i := range cfg.Initial {
			if i < 0 || i >= cfg.Processes {
				return nil, fmt.Errorf("dvs: initial member %d out of range", i)
			}
			p0.Add(ProcID(i))
		}
	}
	initial := types.InitialView(p0)
	self := ProcID(cfg.ID)

	peers := make(map[types.ProcID]string, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		peers[ProcID(id)] = addr
	}
	tcp, err := netfab.NewTCPTransport(netfab.TCPConfig{
		Self:   self,
		Listen: cfg.Listen,
		Peers:  peers,
	})
	if err != nil {
		return nil, err
	}
	var transport netfab.Transport = tcp
	if cfg.WrapTransport != nil {
		transport = cfg.WrapTransport(tcp)
	}

	n := &Node{id: self, tcp: tcp, transport: transport}
	sc := stackConfig{
		self:                self,
		universe:            universe,
		p0:                  p0,
		initial:             initial,
		transport:           transport,
		mode:                cfg.Mode,
		disableRegistration: cfg.DisableRegistration,
		tick:                cfg.TickInterval,
		suspect:             cfg.SuspectTimeout,
		retry:               cfg.ProposeRetry,
		stream:              cfg.Stream,
		online:              cfg.Online,
	}

	if cfg.Groups == 1 {
		st, err := buildStack(sc)
		if err != nil {
			tcp.Close()
			return nil, err
		}
		n.stack = st
		st.vsg.Start()
		return n, nil
	}

	// Sharded mode: one stack per group over the shared transport, a
	// consistent-hash ring on the submit path, and the cross-group atomic
	// multicast coordinator hooked into every group's delivery stream.
	n.groups = types.RangeGroups(cfg.Groups)
	n.mux = netfab.NewGroupMux(self, transport, n.groups, netfab.GroupMuxConfig{})
	n.stacks = make(map[types.GroupID]*stack, cfg.Groups)
	n.ring = shard.NewRing(n.groups, 0)
	ports := make([]mcast.GroupPort, 0, cfg.Groups)
	for _, g := range n.groups {
		sc.group = g
		sc.transport = n.mux.Group(g)
		st, err := buildStack(sc)
		if err != nil {
			tcp.Close()
			return nil, err
		}
		n.stacks[g] = st
		ports = append(ports, mcast.GroupPort{G: g, TOB: st.tob, Run: st.vsg.Do})
	}
	n.stack = n.stacks[0]
	n.mc = mcast.New(self, ports)
	for _, g := range n.groups {
		n.stacks[g].tob.SetDeliverHook(n.mc.Hook(g))
	}
	n.mux.Start()
	for _, g := range n.groups {
		n.stacks[g].vsg.Start()
	}
	n.mc.Start()
	return n, nil
}

// Groups returns the node's group ids ({0} in single-group mode).
func (n *Node) Groups() []types.GroupID {
	if n.mux == nil {
		return []types.GroupID{0}
	}
	return append([]types.GroupID(nil), n.groups...)
}

// Group returns the stack handle of group g, presented as a Process (the
// same per-group API the in-memory cluster hands out). In single-group
// mode only group 0 exists.
func (n *Node) Group(g types.GroupID) (*Process, bool) {
	if n.mux == nil {
		if g != 0 {
			return nil, false
		}
		return &Process{id: n.id, stack: n.stack}, true
	}
	st, ok := n.stacks[g]
	if !ok {
		return nil, false
	}
	return &Process{id: n.id, stack: st}, true
}

// Submit routes a keyed payload to its group by consistent hash and
// broadcasts it there. In single-group mode every key routes to group 0.
// It reports false if the owning group's stack has stopped.
func (n *Node) Submit(key, payload string) bool {
	st := n.stack
	if n.mux != nil {
		st = n.stacks[n.ring.Group(key)]
	}
	return st.Broadcast(payload)
}

// SubmitKey returns the group a key routes to.
func (n *Node) SubmitKey(key string) types.GroupID {
	if n.mux == nil {
		return 0
	}
	return n.ring.Group(key)
}

// SubmitMulti atomically multicasts a payload to several groups: every
// addressed group delivers it, in the same relative order as every other
// multicast those groups share. Requires sharded mode.
func (n *Node) SubmitMulti(dests []types.GroupID, payload string) error {
	if n.mc == nil {
		return errors.New("dvs: SubmitMulti requires Groups > 1")
	}
	return n.mc.Submit(dests, payload)
}

// McastStats returns the multicast coordinator's counters (zero in
// single-group mode).
func (n *Node) McastStats() mcast.Stats {
	if n.mc == nil {
		return mcast.Stats{}
	}
	return n.mc.Stats()
}

// ID returns the node's process id.
func (n *Node) ID() ProcID { return n.id }

// Addr returns the actual TCP listen address.
func (n *Node) Addr() string { return n.tcp.Addr() }

// NetStats returns a snapshot of the TCP transport's counters, including
// the per-peer breakdown.
func (n *Node) NetStats() netfab.Stats { return n.tcp.Stats() }

// StatsSnapshot returns the per-layer counters of this node. Transport and
// vsg counters are always current; dvsg/tob counters are read through the
// event loop and come back zero if the node has stopped.
func (n *Node) StatsSnapshot() NodeStats {
	s := NodeStats{Net: n.tcp.Stats(), VS: n.vsg.Stats(), Check: n.CheckStats()}
	s.TOB, s.DVS = n.Stats()
	return s
}

// Close stops the node — every group's stack, the multicast coordinator
// and group multiplexer in sharded mode — and its transport (including any
// wrapper installed via WrapTransport).
func (n *Node) Close() {
	if n.mc != nil {
		n.mc.Stop()
	}
	if n.mux != nil {
		for _, g := range n.groups {
			n.stacks[g].vsg.Stop()
		}
		n.mux.Stop()
	} else {
		n.vsg.Stop()
	}
	if closer, ok := n.transport.(interface{ Close() }); ok && n.transport != netfab.Transport(n.tcp) {
		closer.Close()
	}
	n.tcp.Close()
}
