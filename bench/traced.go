package main

import (
	"fmt"
	"time"

	dvs "repro"
	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/dvsg"
	"repro/internal/mcast"
	"repro/internal/member"
	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/shard"
	"repro/internal/tob"
	"repro/internal/toimpl"
	"repro/internal/types"
	"repro/internal/vsg"
)

// The traced run cannot put spans inside the layers, so it assembles the
// same stacks the runtimes build (dvs.buildStack, dvs.NewShardedCluster,
// dvs.StartNode) from the layers' public constructors and interposes a
// timing shim at every boundary that is an interface or a callback. What
// stays invisible from outside: dvsg calls down into vsg.SendInLoop on the
// concrete node, and tob defers its batch flush onto the event loop, so the
// send path from tob.flush down to Transport.Send runs outside any span and
// is counted in vsg.rest_us_per_msg.

// sendShim times Transport.Send. Every caller is the one event loop that
// owns tr.
type sendShim struct {
	next netfab.Transport
	name uint8
	tr   *loopTrace
}

func (s sendShim) Send(from, to types.ProcID, payload netfab.Payload) bool {
	s.tr.begin(s.name)
	ok := s.next.Send(from, to, payload)
	s.tr.end()
	return ok
}

func (s sendShim) Inbox(p types.ProcID) (<-chan netfab.Envelope, error) { return s.next.Inbox(p) }

// muxUnderShim times the shared transport under a GroupMux. All of a
// process's group loops send through it, each synchronously from its own
// loop, so the span goes to the loop of the group the frame is tagged with.
type muxUnderShim struct {
	next netfab.Transport
	trs  []*loopTrace // by group
}

func (s muxUnderShim) Send(from, to types.ProcID, payload netfab.Payload) bool {
	gf, ok := payload.(netfab.GroupFrame)
	if !ok || int(gf.G) >= len(s.trs) {
		return s.next.Send(from, to, payload)
	}
	tr := s.trs[gf.G]
	tr.begin(spNetSend)
	sent := s.next.Send(from, to, payload)
	tr.end()
	return sent
}

func (s muxUnderShim) Inbox(p types.ProcID) (<-chan netfab.Envelope, error) { return s.next.Inbox(p) }

// vsUpShim times the vsg → dvsg upcalls.
type vsUpShim struct {
	next vsg.Handler
	tr   *loopTrace
}

func (s vsUpShim) OnNewView(v types.View) {
	s.tr.begin(spDvsgUp)
	s.next.OnNewView(v)
	s.tr.end()
}

func (s vsUpShim) OnRecv(payload any, from types.ProcID) {
	s.tr.begin(spDvsgUp)
	s.next.OnRecv(payload, from)
	s.tr.end()
}

func (s vsUpShim) OnSafe(payload any, from types.ProcID) {
	s.tr.begin(spDvsgUp)
	s.next.OnSafe(payload, from)
	s.tr.end()
}

// dvsUpShim times the dvsg → tob upcalls.
type dvsUpShim struct {
	next dvsg.Handler
	tr   *loopTrace
}

func (s dvsUpShim) OnDVSNewView(v types.View) {
	s.tr.begin(spTobUp)
	s.next.OnDVSNewView(v)
	s.tr.end()
}

func (s dvsUpShim) OnDVSRecv(m types.Msg, from types.ProcID) {
	s.tr.begin(spTobUp)
	s.next.OnDVSRecv(m, from)
	s.tr.end()
}

func (s dvsUpShim) OnDVSSafe(m types.Msg, from types.ProcID) {
	s.tr.begin(spTobUp)
	s.next.OnDVSSafe(m, from)
	s.tr.end()
}

// tracedStack is one group's stack at one process, assembled here.
type tracedStack struct {
	node *vsg.Node
	dvs  *dvsg.Layer
	tob  *tob.Layer
	tr   *loopTrace
}

func (s *tracedStack) Broadcast(payload string) bool {
	return s.node.Do(func() {
		s.tr.begin(spTobSubmit)
		s.tob.Broadcast(payload)
		s.tr.end()
	})
}

func (s *tracedStack) Deliveries() <-chan dvs.Delivery { return s.tob.Deliveries() }

func (s *tracedStack) VSStats() vsg.Stats { return s.node.Stats() }

func (s *tracedStack) Stats() (tob.Stats, dvsg.Stats) {
	type reply struct {
		t tob.Stats
		d dvsg.Stats
	}
	ch := make(chan reply, 1)
	if !s.node.Do(func() { ch <- reply{s.tob.Stats(), s.dvs.Stats()} }) {
		// The loop has stopped, so the counters are quiescent.
		return s.tob.Stats(), s.dvs.Stats()
	}
	r := <-ch
	return r.t, r.d
}

// spanAgg reads the loop's running span totals from inside the loop.
func (s *tracedStack) spanAgg() [numSpanNames]spanAgg {
	ch := make(chan [numSpanNames]spanAgg, 1)
	if !s.node.Do(func() { ch <- s.tr.agg }) {
		return s.tr.agg
	}
	return <-ch
}

type stackParams struct {
	self      types.ProcID
	group     types.GroupID
	universe  types.ProcSet
	initial   types.View
	transport netfab.Transport
	tick      time.Duration
	tr        *loopTrace
	stream    *conform.StreamRecorder // nil unless the run records
}

// buildTracedStack mirrors dvs.buildStack in dynamic mode with registration
// on, with a shim at each boundary. The node is returned un-started.
func buildTracedStack(p stackParams) (*tracedStack, error) {
	node := vsg.NewNode(vsg.Config{
		Self:           p.self,
		Universe:       p.universe,
		Initial:        p.initial,
		Transport:      p.transport,
		TickInterval:   p.tick,
		SuspectTimeout: suspectTimeout,
	})
	filter := core.NewNode(p.self, p.initial, true)
	app := tob.New(p.self, p.initial, true, node.Stopped())
	layer := dvsg.New(filter, dvsUpShim{next: app, tr: p.tr}, true)
	layer.Bind(node)
	app.Bind(layer)
	node.SetHandler(vsUpShim{next: layer, tr: p.tr})
	if p.stream != nil {
		sn, err := p.stream.Node(p.self, p.group, p.initial, true, true, true, false)
		if err != nil {
			return nil, fmt.Errorf("registering process %s with the trace stream: %w", p.self, err)
		}
		tr := p.tr
		layer.AddObserver(func(ev dvscore.Event, fx []dvscore.Effect) {
			tr.begin(spObserve)
			sn.ObserveDVS(ev, fx)
			tr.end()
		})
		app.AddObserver(func(ev tocore.Event, fx []tocore.Effect) {
			tr.begin(spObserve)
			sn.ObserveTO(ev, fx)
			tr.end()
		})
	}
	return &tracedStack{node: node, dvs: layer, tob: app, tr: p.tr}, nil
}

// tracedSUT gathers what the three traced assemblies share.
type tracedSUT struct {
	sut
	stacks [][]*tracedStack
	sender *loopTrace // spans recorded on the harness's sender goroutine
}

func (t *tracedSUT) finish(keep int, base time.Time) {
	t.sender = newLoopTrace(base, keep)
	t.loops = append(t.loops, t.sender)
	for _, row := range t.stacks {
		hs := make([]handle, len(row))
		for g, st := range row {
			hs[g] = st
		}
		t.handles = append(t.handles, hs)
	}
	t.spans = func() spanTotals {
		var sum spanTotals
		for _, row := range t.stacks {
			for _, st := range row {
				agg := st.spanAgg()
				sum.add(&agg)
			}
		}
		sum.add(&t.sender.agg)
		return sum
	}
}

func (t *tracedSUT) stopStacks() {
	for _, row := range t.stacks {
		for _, st := range row {
			st.node.Stop()
		}
	}
}

// newTracedCluster mirrors dvs.NewCluster.
func newTracedCluster(w *workload, seed int64, dir string, keep int, base time.Time) (*sut, error) {
	universe := types.RangeProcSet(w.procs)
	initial := types.InitialView(universe)
	fabric := netfab.NewFabric(universe, netfab.Config{Seed: seed})
	t := &tracedSUT{}
	var stream *conform.StreamRecorder
	if w.record {
		var err error
		if stream, err = conform.NewStreamRecorder(dir, conform.StreamOptions{}); err != nil {
			return nil, fmt.Errorf("creating trace stream: %w", err)
		}
		t.traceDir = dir
	}
	for _, id := range universe.Sorted() {
		tr := newLoopTrace(base, keep)
		t.loops = append(t.loops, tr)
		st, err := buildTracedStack(stackParams{
			self: id, universe: universe, initial: initial,
			transport: sendShim{next: fabric, name: spNetSend, tr: tr},
			tick:      clusterTick, tr: tr, stream: stream,
		})
		if err != nil {
			return nil, err
		}
		t.stacks = append(t.stacks, []*tracedStack{st})
	}
	t.finish(keep, base)
	t.submit = singleGroupSubmit(t.handles)
	t.netStats = func() []netfab.Stats { return []netfab.Stats{fabric.Stats()} }
	t.stop = func() error {
		fabric.Close()
		t.stopStacks()
		if stream != nil {
			return stream.Close()
		}
		return nil
	}
	for _, row := range t.stacks {
		row[0].node.Start()
	}
	return &t.sut, nil
}

// registerWireTypes registers what dvs.StartNode registers: every payload
// type the stack puts on the TCP wire.
func registerWireTypes() {
	for _, v := range []any{
		member.Heartbeat{}, member.Propose{}, member.Accept{}, member.Install{},
		vsg.Data{}, vsg.Ordered{}, vsg.Ack{}, vsg.SafePoint{},
		core.InfoMsg{}, core.RegisteredMsg{},
		toimpl.LabelMsg{}, toimpl.SummaryMsg{},
		types.ClientMsg(""), types.Batch{}, dvsg.WireBatch{},
		netfab.GroupFrame{},
	} {
		netfab.RegisterWireType(v)
	}
}

// newTracedTCP mirrors dvs.StartNode in single-group mode, once per process.
func newTracedTCP(w *workload, keep int, base time.Time) (*sut, error) {
	registerWireTypes()
	addrs, err := freeAddrs(w.procs)
	if err != nil {
		return nil, err
	}
	universe := types.RangeProcSet(w.procs)
	initial := types.InitialView(universe)
	t := &tracedSUT{}
	var tcps []*netfab.TCPTransport
	closeTCP := func() {
		for _, tcp := range tcps {
			tcp.Close()
		}
	}
	for i, id := range universe.Sorted() {
		peers := make(map[types.ProcID]string, w.procs-1)
		for j, a := range peersOf(addrs, i) {
			peers[types.ProcID(j)] = a
		}
		tcp, err := netfab.NewTCPTransport(netfab.TCPConfig{Self: id, Listen: addrs[i], Peers: peers})
		if err != nil {
			closeTCP()
			return nil, err
		}
		tcps = append(tcps, tcp)
		tr := newLoopTrace(base, keep)
		t.loops = append(t.loops, tr)
		st, err := buildTracedStack(stackParams{
			self: id, universe: universe, initial: initial,
			transport: sendShim{next: tcp, name: spNetSend, tr: tr},
			tick:      nodeTick, tr: tr,
		})
		if err != nil {
			closeTCP()
			return nil, err
		}
		t.stacks = append(t.stacks, []*tracedStack{st})
	}
	t.finish(keep, base)
	t.submit = singleGroupSubmit(t.handles)
	t.netStats = func() []netfab.Stats {
		out := make([]netfab.Stats, len(tcps))
		for i, tcp := range tcps {
			out[i] = tcp.Stats()
		}
		return out
	}
	t.stop = func() error {
		t.stopStacks()
		closeTCP()
		return nil
	}
	for _, row := range t.stacks {
		row[0].node.Start()
	}
	return &t.sut, nil
}

// newTracedSharded mirrors dvs.NewShardedCluster.
func newTracedSharded(w *workload, seed int64, keep int, base time.Time) (*sut, error) {
	universe := types.RangeProcSet(w.procs)
	groups := types.RangeGroups(w.groups)
	initial := types.InitialView(universe)
	fabric := netfab.NewFabric(universe, netfab.Config{Seed: seed})
	ring := shard.NewRing(groups, 0)
	t := &tracedSUT{}
	var muxes []*netfab.GroupMux
	var coords []*mcast.Coordinator
	for _, id := range universe.Sorted() {
		trs := make([]*loopTrace, len(groups))
		for g := range trs {
			trs[g] = newLoopTrace(base, keep)
		}
		t.loops = append(t.loops, trs...)
		mux := netfab.NewGroupMux(id, muxUnderShim{next: fabric, trs: trs}, groups, netfab.GroupMuxConfig{})
		row := make([]*tracedStack, 0, len(groups))
		ports := make([]mcast.GroupPort, 0, len(groups))
		for _, g := range groups {
			tr := trs[g]
			st, err := buildTracedStack(stackParams{
				self: id, group: g, universe: universe, initial: initial,
				transport: sendShim{next: mux.Group(g), name: spMuxSend, tr: tr},
				tick:      clusterTick, tr: tr,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, st)
			// The coordinator's control broadcasts enter tob the way client
			// broadcasts do, so they get the same span.
			ports = append(ports, mcast.GroupPort{G: g, TOB: st.tob, Run: func(f func()) bool {
				return st.node.Do(func() {
					tr.begin(spTobSubmit)
					f()
					tr.end()
				})
			}})
		}
		mc := mcast.New(id, ports)
		for g, st := range row {
			hook, tr := mc.Hook(types.GroupID(g)), st.tr
			st.tob.SetDeliverHook(func(d tob.Delivery) []tob.Delivery {
				tr.begin(spMcastHook)
				out := hook(d)
				tr.end()
				return out
			})
		}
		t.stacks = append(t.stacks, row)
		muxes = append(muxes, mux)
		coords = append(coords, mc)
	}
	t.finish(keep, base)
	t.submit = func(p int, key, payload string) bool {
		return t.handles[p][ring.Group(key)].Broadcast(payload)
	}
	t.multicast = func(p int, dests []types.GroupID, payload string) error {
		t.sender.begin(spMcastSubmit)
		err := coords[p].Submit(dests, payload)
		t.sender.end()
		return err
	}
	t.muxDropped = func() uint64 {
		var n uint64
		for _, m := range muxes {
			n += m.Dropped()
		}
		return n
	}
	t.mcastStats = func() mcast.Stats {
		var sum mcast.Stats
		for _, mc := range coords {
			addMcastStats(&sum, mc.Stats())
		}
		return sum
	}
	t.mcastDelivered = func(p int, g types.GroupID) []dvs.McastDelivery { return coords[p].Delivered(g) }
	t.netStats = func() []netfab.Stats { return []netfab.Stats{fabric.Stats()} }
	t.stop = func() error {
		fabric.Close()
		for i, mc := range coords {
			mc.Stop()
			for _, st := range t.stacks[i] {
				st.node.Stop()
			}
			muxes[i].Stop()
		}
		return nil
	}
	for i, mux := range muxes {
		if err := mux.Start(); err != nil {
			return nil, fmt.Errorf("starting group mux: %w", err)
		}
		for _, st := range t.stacks[i] {
			st.node.Start()
		}
		coords[i].Start()
	}
	return &t.sut, nil
}
