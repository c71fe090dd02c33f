// Package dvsg is the runtime realization of the DVS service: a thin shell
// that drives the shared protocol core (internal/protocol/dvscore) — by
// default the *verified* VS-TO-DVS automaton, exactly the code checked
// against the DVS specification — on top of the view-synchronous layer
// (internal/vsg).
//
// The shell contains no protocol state transitions. It translates vsg
// upcalls and client downcalls into dvscore Events, invokes dvscore.Step
// (one atomic macro-step: apply the event, then drain the enabled
// locally-controlled actions in the core's fixed order), and applies the
// emitted Effects: messages go down to vsg, deliveries and view
// announcements go up to the handler.
//
// Steps run to completion: the view-synchronous layer can synchronously
// re-enter the shell while an effect is being applied (a leader's own
// submission is ordered and delivered inline), so re-entrant events are
// queued and processed after the current step's effects have all been
// applied. Every event therefore observes a quiescent core, which is what
// makes the recorded (event, effects) logs exactly replayable by the
// conformance checker (internal/conform).
package dvsg

import (
	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/types"
	"repro/internal/vsg"
	"repro/internal/wire"
)

// Filter is the primary-view decision state machine the shell drives: the
// VS-TO-DVS automaton (dvscore.Node) or the static baseline
// (dvscore.StaticNode). Its transitions are unexported: the shell holds one
// to hand to dvscore.Step, and can read ClientCur and Amb.
type Filter = dvscore.Filter

// Handler receives the DVS upcalls (primary views, client messages, safe
// indications). Handlers are invoked from the vsg event loop.
type Handler interface {
	OnDVSNewView(v types.View)
	OnDVSRecv(m types.Msg, from types.ProcID)
	OnDVSSafe(m types.Msg, from types.ProcID)
}

// Observer receives every macro-step of the core, in execution order: the
// input event and the effects it emitted. The conformance recorder is an
// Observer. Called from the event loop; the effects slice must not be
// mutated and is valid only for the duration of the call (the layer reuses
// it for the next step), so an observer that keeps a step encodes or copies
// it before returning.
type Observer func(ev dvscore.Event, effects []dvscore.Effect)

// WireBatch groups the FxSendVS messages drained from one macro-step into a
// single view-synchronous submission. It exists only on the wire between
// dvsg shells: a received WireBatch is expanded back into one EvVSRecv (or
// EvVSSafe) per member before the core sees it, so the VS-TO-DVS event
// stream is identical to an unbatched execution. Unlike types.Batch (the
// tob-level unit, which flows through this core as one opaque client
// message), WireBatch is not a types.Msg and can never enter a core.
type WireBatch struct{ Msgs []types.Msg }

// WireBatch as a TCP payload (netfab.WirePayload), tag 0x98.
func (WireBatch) WireTag() byte { return 0x98 }

func (w WireBatch) AppendWire(b []byte, depth int) (_ []byte, err error) {
	b = wire.AppendCount(b, len(w.Msgs))
	for i := 0; i < len(w.Msgs) && err == nil; i++ {
		b, err = netfab.AppendPayload(b, w.Msgs[i], depth)
	}
	return b, err
}

// ReadWire refuses a member that is not a types.Msg: nothing else may reach
// a core.
func (WireBatch) ReadWire(r *wire.Reader, depth int) any {
	w := WireBatch{Msgs: make([]types.Msg, r.Count(1))}
	for i := range w.Msgs {
		var ok bool
		if w.Msgs[i], ok = netfab.ReadPayload(r, depth).(types.Msg); !ok {
			r.Fail("wire batch member is not a message")
		}
	}
	return w
}

// Stats are cumulative per-node dvsg counters. WireFrames/WirePayloads are
// the frames-vs-payloads distinction of the send path down to vsg:
// WirePayloads counts FxSendVS effects, WireFrames the vsg submissions that
// carried them.
type Stats struct {
	VSViews      uint64 // views delivered by the view-synchronous layer
	Primaries    uint64 // views accepted as primary (dvs-newview)
	GCs          uint64 // garbage collections performed
	MaxAmb       int    // high-water mark of |amb|
	RegistersOut uint64 // register requests forwarded
	SendsDown    uint64 // client messages submitted through the filter
	DeliveriesUp uint64 // client messages delivered to the handler
	SafesUp      uint64 // safe indications delivered to the handler
	WireFrames   uint64 // vsg submissions (batches plus unbatched singletons)
	WirePayloads uint64 // individual core messages carried by those submissions
	WireBatchIn  uint64 // received vsg payloads that were WireBatches
}

// Layer drives a Filter over a vsg.Node.
type Layer struct {
	filter   Filter
	node     *vsg.Node
	handler  Handler
	gc       bool
	stats    Stats
	observer Observer

	// Run-to-completion event queue: events arriving while a step is in
	// flight (synchronous re-entry from vsg) are deferred until the current
	// step's effects have been applied.
	stepping bool
	queue    []dvscore.Event
	out      dvscore.Outbox // scratch of step, which the queue keeps from nesting

	// Send coalescing: FxSendVS effects accumulate here during a dispatch
	// and go down to vsg as one WireBatch at the end. Pending messages are
	// discarded on a VS view change — vsg tags submissions with its current
	// view, and a message the core emitted in the old view must not be
	// carried by the new one (the discard is the message loss the VS
	// specification permits at view boundaries; the core re-exchanges its
	// state in the new view).
	pendingVS []types.Msg
	flushing  bool
}

// New builds the layer around the given filter. Garbage collection of
// ambiguous views (driven by registration) is performed eagerly when
// enableGC is true; disabling it isolates the effect of the paper's
// REGISTER mechanism (experiment E6).
func New(filter Filter, handler Handler, enableGC bool) *Layer {
	return &Layer{filter: filter, handler: handler, gc: enableGC}
}

var _ vsg.Handler = (*Layer)(nil)

// Bind attaches the vsg node used for sending. It must be called before the
// node starts.
func (l *Layer) Bind(node *vsg.Node) { l.node = node }

// AddObserver chains o after any already-installed observer, so a recorder,
// a stream spiller, and an online checker can watch the same layer. It must
// be called before the node starts.
func (l *Layer) AddObserver(o Observer) {
	if prev := l.observer; prev != nil {
		l.observer = func(ev dvscore.Event, effects []dvscore.Effect) {
			prev(ev, effects)
			o(ev, effects)
		}
		return
	}
	l.observer = o
}

// Stats returns a snapshot of the counters. It must be read from the event
// loop (via Node.Do) or after the node has stopped.
func (l *Layer) Stats() Stats { return l.stats }

// ClientCur exposes the filter's client-current primary view.
func (l *Layer) ClientCur() (types.View, bool) { return l.filter.ClientCur() }

// AmbCount returns the current number of ambiguous views in the filter.
func (l *Layer) AmbCount() int { return len(l.filter.Amb()) }

// Universe exposes the process universe the vsg node was configured with.
func (l *Layer) Universe() types.ProcSet { return l.node.Universe() }

// Defer schedules f onto a later iteration of the vsg event loop without
// blocking; it reports false when the loop is stopped or its queue is full.
// The tob shell uses it to defer batch flushes behind already-queued work.
func (l *Layer) Defer(f func()) bool { return l.node.Defer(f) }

// OnNewView implements vsg.Handler.
func (l *Layer) OnNewView(v types.View) {
	l.stats.VSViews++
	l.dispatch(dvscore.Event{Kind: dvscore.EvVSNewView, View: v})
}

// OnRecv implements vsg.Handler. WireBatches are expanded here, before the
// core sees them: one EvVSRecv per member, in batch order.
func (l *Layer) OnRecv(payload any, from types.ProcID) {
	if b, ok := payload.(WireBatch); ok {
		l.stats.WireBatchIn++
		for _, m := range b.Msgs {
			l.dispatch(dvscore.Event{Kind: dvscore.EvVSRecv, M: m, From: from})
		}
		return
	}
	m, ok := payload.(types.Msg)
	if !ok {
		return
	}
	l.dispatch(dvscore.Event{Kind: dvscore.EvVSRecv, M: m, From: from})
}

// OnSafe implements vsg.Handler. A safe indication for a WireBatch means
// every member message is safe, in batch order.
func (l *Layer) OnSafe(payload any, from types.ProcID) {
	if b, ok := payload.(WireBatch); ok {
		for _, m := range b.Msgs {
			l.dispatch(dvscore.Event{Kind: dvscore.EvVSSafe, M: m, From: from})
		}
		return
	}
	m, ok := payload.(types.Msg)
	if !ok {
		return
	}
	l.dispatch(dvscore.Event{Kind: dvscore.EvVSSafe, M: m, From: from})
}

// Send submits a client message for delivery in the current primary view.
// It must be called from the event loop.
func (l *Layer) Send(m types.Msg) {
	l.stats.SendsDown++
	l.dispatch(dvscore.Event{Kind: dvscore.EvClientSend, M: m})
}

// Register tells the service the application has gathered the information
// it needs to operate in the current primary view. It must be called from
// the event loop.
func (l *Layer) Register() {
	l.stats.RegistersOut++
	l.dispatch(dvscore.Event{Kind: dvscore.EvClientRegister})
}

// dispatch runs one core macro-step for ev, or queues it if a step is
// already in flight, then drains the queue. Queued events are processed in
// arrival order, so the delivery and view streams handed up preserve the
// core's emission order even under synchronous re-entry.
func (l *Layer) dispatch(ev dvscore.Event) {
	l.queue = append(l.queue, ev)
	if l.stepping {
		return
	}
	l.stepping = true
	for i := 0; i < len(l.queue); i++ {
		next := l.queue[i]
		l.queue[i] = dvscore.Event{} // a drained slot holds no payload
		l.step(next)
	}
	l.queue = l.queue[:0]
	l.stepping = false
	l.flushVS()
}

// flushVS submits the coalesced FxSendVS messages of the finished dispatch
// to vsg. Submitting can synchronously re-enter the shell (a leader's own
// submission is ordered and delivered inline) and emit further sends; the
// loop coalesces those too, and the flushing guard stops the re-entrant
// dispatch from flushing recursively.
func (l *Layer) flushVS() {
	if l.flushing {
		return
	}
	l.flushing = true
	defer func() { l.flushing = false }()
	for len(l.pendingVS) > 0 {
		var payload any
		k := len(l.pendingVS)
		if k == 1 {
			payload = l.pendingVS[0]
		} else {
			payload = WireBatch{Msgs: append([]types.Msg(nil), l.pendingVS...)}
		}
		clear(l.pendingVS)
		l.pendingVS = l.pendingVS[:0]
		l.stats.WireFrames++
		l.stats.WirePayloads += uint64(k)
		l.node.SendInLoop(payload)
	}
}

// step performs one atomic macro-step and applies its effects.
func (l *Layer) step(ev dvscore.Event) {
	if ev.Kind == dvscore.EvVSNewView && len(l.pendingVS) > 0 {
		// See the pendingVS field comment: unsent messages die with the view.
		clear(l.pendingVS)
		l.pendingVS = l.pendingVS[:0]
	}
	l.out.Effects = l.out.Effects[:0]
	if dvscore.Step(l.filter, ev, l.gc, &l.out) != nil {
		return
	}
	if l.observer != nil {
		l.observer(ev, l.out.Effects)
	}
	for _, fx := range l.out.Effects {
		switch fx.Kind {
		case dvscore.FxSendVS:
			l.pendingVS = append(l.pendingVS, fx.M)
		case dvscore.FxDeliver:
			l.stats.DeliveriesUp++
			l.handler.OnDVSRecv(fx.M, fx.From)
		case dvscore.FxSafeInd:
			l.stats.SafesUp++
			l.handler.OnDVSSafe(fx.M, fx.From)
		case dvscore.FxNewPrimary:
			l.stats.Primaries++
			l.handler.OnDVSNewView(fx.View)
		case dvscore.FxGC:
			l.stats.GCs++
		}
	}
	if n := len(l.filter.Amb()); n > l.stats.MaxAmb {
		l.stats.MaxAmb = n
	}
}
