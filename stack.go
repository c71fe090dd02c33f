package dvs

import (
	"fmt"
	"time"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/dvsg"
	netfab "repro/internal/net"
	"repro/internal/protocol/staticcore"
	"repro/internal/quorum"
	"repro/internal/tob"
	"repro/internal/types"
	"repro/internal/vsg"
)

// stackConfig carries everything needed to assemble one process's protocol
// stack for one group: membership (VS), the primary-view filter, and the
// totally-ordered broadcast application, plus the conformance taps. The
// single-group Cluster and TCP Node and the multi-group sharded runtime all
// build their stacks here, so the wiring — and the recorded construction
// parameters the replayer depends on — cannot drift between entry points.
type stackConfig struct {
	self      ProcID
	group     types.GroupID // 0 in single-group runs
	universe  types.ProcSet
	p0        types.ProcSet // members of the initial view
	initial   types.View
	transport netfab.Transport

	mode                Mode
	disableRegistration bool
	tick                time.Duration
	suspect             time.Duration
	retry               time.Duration

	stream *TraceStream
	online *OnlineCheckConfig
}

// stack is one group's protocol stack at one process. The embedding types
// (Process, Node, and the sharded runtime's per-group handles) promote its
// fields and methods.
type stack struct {
	group types.GroupID
	vsg   *vsg.Node
	dvs   *dvsg.Layer
	tob   *tob.Layer
	check *conform.OnlineChecker // nil unless online
}

// buildStack assembles one stack. The vsg node is returned un-started;
// callers start every stack of a process after all of them are wired (the
// sharded runtime installs multicast hooks in between).
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

	var filter dvsg.Filter
	if sc.mode == ModeStatic {
		filter = staticcore.NewNode(sc.self, sc.initial, sc.initial.Contains(sc.self), quorum.Majority(sc.p0))
	} else {
		filter = core.NewNode(sc.self, sc.initial, sc.initial.Contains(sc.self))
	}
	app := tob.New(sc.self, sc.initial, !sc.disableRegistration, node.Stopped())
	layer := dvsg.New(filter, app, sc.mode == ModeDynamic)
	layer.Bind(node)
	app.Bind(layer)
	node.SetHandler(layer)

	// The recorded construction parameters must match how the cores were
	// actually built above: gc is on only in dynamic mode, and static marks
	// the filter as the staticcore baseline so the replayer re-executes the
	// right automaton.
	gcOn := sc.mode == ModeDynamic
	static := sc.mode == ModeStatic
	st := &stack{group: sc.group, vsg: node, dvs: layer, tob: app}
	if sc.stream != nil {
		sn, err := sc.stream.Node(sc.self, sc.group, sc.initial, sc.initial.Contains(sc.self), !sc.disableRegistration, gcOn, static)
		if err != nil {
			return nil, fmt.Errorf("dvs: registering process %s with trace stream: %w", sc.self, err)
		}
		layer.AddObserver(sn.ObserveDVS)
		app.AddObserver(sn.ObserveTO)
	}
	if sc.online != nil {
		st.check = conform.NewOnlineChecker(sc.self, sc.initial, sc.initial.Contains(sc.self), !sc.disableRegistration, true, *sc.online)
		layer.AddObserver(st.check.ObserveDVS)
		app.AddObserver(st.check.ObserveTO)
	}
	return st, nil
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
		ch <- reply{v.Clone(), ok}
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

// CheckStats returns the online conformance checker's counters, or a zero
// snapshot if the stack was built without an online checker (Config.Online,
// NodeConfig.Online). Thread-safe.
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
