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
