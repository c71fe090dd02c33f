package dvs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dvsg"
	"repro/internal/member"
	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/shard"
	"repro/internal/tob"
	"repro/internal/types"
	"repro/internal/vsg"
)

// registerWireTypes registers every payload type the stack puts on the
// wire, so the TCP transport can decode them. GroupFrame is the sharded
// mode's group tag wrapping every other payload.
func registerWireTypes() {
	for _, v := range []any{
		member.Heartbeat{}, member.Propose{}, member.Accept{}, member.Install{},
		vsg.Data{}, vsg.Ordered{}, vsg.Ack{}, vsg.SafePoint{},
		dvscore.InfoMsg{}, dvscore.RegisteredMsg{},
		tocore.LabelMsg{}, tocore.SummaryMsg{},
		types.ClientMsg(""), types.Batch{}, dvsg.WireBatch{},
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
	// replay through the dvscore.StaticNode baseline.
	Stream *TraceStream
	// Online runs the in-process conformance checker on every group's stack
	// of this node, as in Config; the counters, summed over the groups, are
	// NodeStats.Check and Node.CheckStats.
	Online bool
}

// NodeStats aggregates the per-layer counters of one node: transport,
// view-synchronous layer, dynamic-view layer, and totally-ordered
// broadcast.
type NodeStats struct {
	Net   netfab.Stats
	VS    vsg.Stats
	DVS   dvsg.Stats
	TOB   tob.Stats
	Check OnlineCheckStats // summed over the node's groups; zero unless NodeConfig.Online
}

// Node is one standalone process of a TCP-connected deployment: a TCP
// transport under one process runtime. With Groups <= 1 the runtime is one
// stack on the bare transport; with more it is one stack per group behind a
// group multiplexer, with the multicast coordinator beside them. Either way
// the embedded stack is group 0's, so the single-group accessors read that
// group, while Group, Submit and SubmitMulti reach the rest.
type Node struct {
	tcp       *netfab.TCPTransport
	transport netfab.Transport // tcp, possibly wrapped (see WrapTransport)
	*proc
	*stack // group 0's stack
}

// StartNode launches a standalone process.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Groups <= 0 {
		cfg.Groups = 1
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
	universe, initial, err := initialView(cfg.Processes, cfg.Initial)
	if err != nil {
		return nil, err
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Processes {
		return nil, fmt.Errorf("dvs: node id %d out of range", cfg.ID)
	}
	registerWireTypes()

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
	n := &Node{tcp: tcp, transport: tcp}
	if cfg.WrapTransport != nil {
		n.transport = cfg.WrapTransport(tcp)
	}

	n.proc, err = buildProc(procConfig{
		stack: stackConfig{
			self:                self,
			universe:            universe,
			initial:             initial,
			transport:           n.transport,
			mode:                cfg.Mode,
			disableRegistration: cfg.DisableRegistration,
			tick:                cfg.TickInterval,
			suspect:             cfg.SuspectTimeout,
			retry:               cfg.ProposeRetry,
			online:              cfg.Online,
		},
		ring:    shard.NewRing(types.RangeGroups(cfg.Groups), 0),
		mux:     cfg.Groups > 1,
		streams: map[types.GroupID]*TraceStream{0: cfg.Stream},
	})
	if err == nil {
		err = n.start()
	}
	if err != nil {
		n.closeTransport()
		return nil, err
	}
	n.stack = n.stacks[0]
	return n, nil
}

// Group returns the stack handle of group g, presented as a Process (the
// same per-group API the in-memory cluster hands out). Spelled out because
// the embedded stack's Group() would make the promoted selector ambiguous.
func (n *Node) Group(g types.GroupID) (*Process, bool) { return n.proc.Group(g) }

// Addr returns the actual TCP listen address.
func (n *Node) Addr() string { return n.tcp.Addr() }

// NetStats returns a snapshot of the TCP transport's counters, including
// the per-peer breakdown.
func (n *Node) NetStats() netfab.Stats { return n.tcp.Stats() }

// CheckStats sums the in-process checkers' counters over the node's groups
// (the first non-empty LastError wins). Spelled out because the embedded
// group-0 stack's would make the promoted selector read one group.
func (n *Node) CheckStats() OnlineCheckStats {
	var sum OnlineCheckStats
	for _, g := range n.ring.Groups() {
		sum.Add(n.stacks[g].CheckStats())
	}
	return sum
}

// StatsSnapshot returns the per-layer counters of this node. Transport and
// vsg counters are always current; dvsg/tob counters are read through the
// event loop and come back zero if the node has stopped.
func (n *Node) StatsSnapshot() NodeStats {
	s := NodeStats{Net: n.tcp.Stats(), VS: n.vsg.Stats(), Check: n.CheckStats()}
	s.TOB, s.DVS = n.Stats()
	return s
}

// Close stops the node — every group's stack and, when multiplexed, the
// multicast coordinator and the group multiplexer — and its transport
// (including any wrapper installed via WrapTransport).
func (n *Node) Close() {
	n.stop()
	n.closeTransport()
}

func (n *Node) closeTransport() {
	if closer, ok := n.transport.(interface{ Close() }); ok && n.transport != netfab.Transport(n.tcp) {
		closer.Close()
	}
	n.tcp.Close()
}
