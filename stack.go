package dvs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/conform"
	"repro/internal/dvsg"
	"repro/internal/mcast"
	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/shard"
	"repro/internal/tob"
	"repro/internal/types"
	"repro/internal/vsg"
)

// stackConfig carries everything needed to assemble one process's protocol
// stack for one group: membership (VS), the primary-view filter, and the
// totally-ordered broadcast application, plus the conformance taps. Every
// runtime builds its stacks through buildProc and so through here, so the
// wiring — and the recorded construction parameters the replayer depends on
// — cannot drift between entry points.
type stackConfig struct {
	self      ProcID
	group     types.GroupID // 0 in single-group runs
	universe  types.ProcSet
	initial   types.View
	transport netfab.Transport

	mode                Mode
	disableRegistration bool
	tick                time.Duration
	suspect             time.Duration
	retry               time.Duration

	stream *TraceStream
	online bool
}

// stack is one group's protocol stack at one process. The embedding types
// (Process, Node) promote its fields and methods.
type stack struct {
	group types.GroupID
	vsg   *vsg.Node
	dvs   *dvsg.Layer
	tob   *tob.Layer
	check *TraceStream // the in-process checker; nil unless online
}

// buildStack assembles one stack. The vsg node is returned un-started:
// buildProc installs the multicast hooks on every stack of a process before
// proc.start starts any of them.
func buildStack(sc stackConfig) (*stack, error) {
	node := vsg.NewNode(vsg.Config{
		Self:           sc.self,
		Universe:       sc.universe,
		Initial:        sc.initial,
		Transport:      sc.transport,
		TickInterval:   sc.tick,
		SuspectTimeout: sc.suspect,
		ProposeRetry:   sc.retry,
	})

	// The zero Mode is ModeDynamic: this is the one place a Mode is read.
	static := sc.mode == ModeStatic
	var filter dvsg.Filter
	if static {
		filter = dvscore.NewStaticNode(sc.self, sc.initial, sc.initial.Contains(sc.self))
	} else {
		filter = dvscore.NewNode(sc.self, sc.initial, sc.initial.Contains(sc.self))
	}
	app := tob.New(sc.self, sc.initial, !sc.disableRegistration, node.Stopped())
	layer := dvsg.New(filter, app, !static)
	layer.Bind(node)
	app.Bind(layer)
	node.SetHandler(layer)

	// The recorded construction parameters must match how the cores were
	// actually built above: gc is on only in dynamic mode, and static marks
	// the filter as the dvscore.StaticNode baseline so the replayer
	// re-executes the right automaton.
	st := &stack{group: sc.group, vsg: node, dvs: layer, tob: app}
	if sc.online {
		// One checker per stack: its mutex is shared with no other event loop,
		// and a node with several groups keeps per-group counters.
		st.check = conform.NewOnlineChecker()
	}
	for _, r := range []*TraceStream{sc.stream, st.check} {
		if r == nil {
			continue
		}
		sn, err := r.Node(sc.self, sc.group, sc.initial, sc.initial.Contains(sc.self), !sc.disableRegistration, !static, static)
		if err != nil {
			return nil, fmt.Errorf("dvs: registering process %s with trace stream: %w", sc.self, err)
		}
		layer.AddObserver(sn.ObserveDVS)
		app.AddObserver(sn.ObserveTO)
	}
	return st, nil
}

// procConfig is what one process's runtime needs above its stacks.
type procConfig struct {
	// stack is the per-stack template: buildProc sets group and stream per
	// group, and transport — the process's endpoint — to the group's mux port.
	stack stackConfig
	ring  *shard.Ring // routes keys to groups; its group list is the process's
	// mux makes the groups share the endpoint by tagging every frame
	// (netfab.GroupFrame) and runs the multicast coordinator beside them;
	// without it the process has one group and its frames go out untagged.
	mux     bool
	streams map[types.GroupID]*TraceStream // per recorded group
	mstream *TraceStream                   // the coordinator's; nil = unrecorded
}

// proc is one process's runtime: a stack per group and, when the endpoint
// is multiplexed, the group mux under them and the multicast coordinator
// beside them. ShardedProcess and Node promote its methods.
type proc struct {
	id     ProcID
	stacks map[types.GroupID]*stack
	ring   *shard.Ring
	mux    *netfab.GroupMux   // nil unless multiplexed
	mc     *mcast.Coordinator // nil unless multiplexed
}

// buildProc assembles one process, un-started. The order matters: the mux
// before the stacks whose transports are its ports, the coordinator after
// the stacks whose total orders carry its control traffic, and its deliver
// hooks on every stack before start runs any of them.
func buildProc(pc procConfig) (*proc, error) {
	sc, groups := pc.stack, pc.ring.Groups()
	p := &proc{id: sc.self, stacks: make(map[types.GroupID]*stack, len(groups)), ring: pc.ring}
	if pc.mux {
		p.mux = netfab.NewGroupMux(sc.self, sc.transport, groups, netfab.GroupMuxConfig{})
	}
	ports := make([]mcast.GroupPort, 0, len(groups))
	for _, g := range groups {
		sc.group, sc.stream = g, pc.streams[g]
		if pc.mux {
			sc.transport = p.mux.Group(g)
		}
		st, err := buildStack(sc)
		if err != nil {
			return nil, err
		}
		p.stacks[g] = st
		ports = append(ports, mcast.GroupPort{G: g, TOB: st.tob, Run: st.vsg.Do})
	}
	if !pc.mux {
		return p, nil
	}
	p.mc = mcast.New(sc.self, ports)
	if pc.mstream != nil {
		sn, err := pc.mstream.McastNode(sc.self, groups)
		if err != nil {
			return nil, fmt.Errorf("dvs: registering process %s with the multicast trace stream: %w", sc.self, err)
		}
		p.mc.AddObserver(sn.ObserveMcast)
	}
	for _, g := range groups {
		p.stacks[g].tob.SetDeliverHook(p.mc.Hook(g))
	}
	return p, nil
}

// start runs the mux, then the stacks, then the coordinator. On error
// nothing is running and stop must not be called: vsg's Stop would wait for
// a loop that never started.
func (p *proc) start() error {
	if p.mux != nil {
		if err := p.mux.Start(); err != nil {
			return fmt.Errorf("dvs: starting process %s's group mux: %w", p.id, err)
		}
	}
	for _, g := range p.ring.Groups() {
		p.stacks[g].vsg.Start()
	}
	if p.mc != nil {
		p.mc.Start()
	}
	return nil
}

// stop is start in reverse. Closing a stopped stack's checker replays the
// tail of its run; the outcome, a sticky error included, is CheckStats'.
func (p *proc) stop() {
	if p.mc != nil {
		p.mc.Stop()
	}
	for _, g := range p.ring.Groups() {
		st := p.stacks[g]
		st.vsg.Stop()
		if st.check != nil {
			st.check.Close()
		}
	}
	if p.mux != nil {
		p.mux.Stop()
	}
}

// startProcs builds one process per member of the universe and then starts
// them, in id order (each is registered with the trace streams before any
// steps). On error it returns the ones already running, for the caller to stop.
func startProcs(pc procConfig) ([]*proc, error) {
	ids := pc.stack.universe.Sorted()
	procs := make([]*proc, 0, len(ids))
	for _, id := range ids {
		pc.stack.self = id
		p, err := buildProc(pc)
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	for i, p := range procs {
		if err := p.start(); err != nil {
			return procs[:i], err
		}
	}
	return procs, nil
}

// ID returns the process id.
func (p *proc) ID() ProcID { return p.id }

// Groups returns the process's group ids, sorted ({0} with one group).
func (p *proc) Groups() []types.GroupID {
	return append([]types.GroupID(nil), p.ring.Groups()...)
}

// Group returns the handle of group g's stack: the API a single-group
// cluster's Process offers (Broadcast, Deliveries, Views, Established...).
func (p *proc) Group(g types.GroupID) (*Process, bool) {
	st, ok := p.stacks[g]
	if !ok {
		return nil, false
	}
	return &Process{id: p.id, stack: st}, true
}

// Submit routes a keyed payload to its group by consistent hash and
// broadcasts it there, reporting false if that group's stack has stopped.
func (p *proc) Submit(key, payload string) bool {
	return p.stacks[p.ring.Group(key)].Broadcast(payload)
}

// SubmitKey returns the group a key routes to.
func (p *proc) SubmitKey(key string) types.GroupID { return p.ring.Group(key) }

// SubmitMulti atomically multicasts a payload to the destination groups:
// every addressed group delivers it, and any two groups sharing two
// multicasts deliver them in the same relative order.
func (p *proc) SubmitMulti(dests []types.GroupID, payload string) error {
	if p.mc == nil {
		return errors.New("dvs: SubmitMulti requires Groups > 1")
	}
	return p.mc.Submit(dests, payload)
}

// McastStats returns the multicast coordinator's counters (zero without one).
func (p *proc) McastStats() mcast.Stats {
	if p.mc == nil {
		return mcast.Stats{}
	}
	return p.mc.Stats()
}

// Group returns the group this stack serves (0 in single-group runs).
func (s *stack) Group() types.GroupID { return s.group }

// Broadcast submits a payload for totally-ordered delivery. It reports
// false if the stack has stopped.
func (s *stack) Broadcast(payload string) bool {
	return s.vsg.Do(func() { s.tob.Broadcast(payload) })
}

// Deliveries is the totally ordered stream of messages delivered by this
// stack. Consumers must drain it.
func (s *stack) Deliveries() <-chan Delivery { return s.tob.Deliveries() }

// Views is the stream of primary views at this stack (best effort).
func (s *stack) Views() <-chan ViewEvent { return s.tob.Views() }

// CurrentPrimary returns the current primary view, if any.
func (s *stack) CurrentPrimary() (View, bool) {
	type reply struct {
		v  View
		ok bool
	}
	ch := make(chan reply, 1)
	if !s.vsg.Do(func() {
		v, ok := s.dvs.ClientCur()
		ch <- reply{v, ok}
	}) {
		return View{}, false
	}
	r := <-ch
	return r.v, r.ok
}

// Established reports whether the stack has established (completed state
// exchange for) its current primary view.
func (s *stack) Established() bool {
	ch := make(chan bool, 1)
	if !s.vsg.Do(func() {
		// v0 needs no state exchange: the paper initializes
		// registered[g0] = P0, so the initial view counts as established.
		cur, ok := s.tob.Node().Current()
		ch <- ok && (cur.ID.IsZero() || s.tob.Node().Established(cur.ID))
	}) {
		return false
	}
	return <-ch
}

// CheckStats returns the in-process conformance checker's counters, or a zero
// snapshot if the stack was built without one (Config.Online,
// NodeConfig.Online). Thread-safe; complete once the cluster or node is closed.
func (s *stack) CheckStats() OnlineCheckStats {
	if s.check == nil {
		return OnlineCheckStats{}
	}
	return s.check.Stats()
}

// Stats returns snapshots of the broadcast-layer and view-layer counters,
// read through the event loop: zero if the stack has stopped.
func (s *stack) Stats() (tob.Stats, dvsg.Stats) {
	type reply struct {
		t tob.Stats
		d dvsg.Stats
	}
	ch := make(chan reply, 1)
	if !s.vsg.Do(func() { ch <- reply{s.tob.Stats(), s.dvs.Stats()} }) {
		return tob.Stats{}, dvsg.Stats{}
	}
	r := <-ch
	return r.t, r.d
}
