// Package tob is the runtime realization of the totally-ordered broadcast
// application of Section 6: a thin shell that drives the shared protocol
// core (internal/protocol/tocore) — the *verified* DVS-TO-TO automaton,
// exactly the code checked against the TO specification — on top of the
// dynamic-view layer (internal/dvsg).
//
// The shell contains no protocol state transitions. It translates DVS
// upcalls and client broadcasts into tocore Events, invokes tocore.Step
// (one atomic macro-step: apply the event, then drain the enabled
// locally-controlled actions in the core's fixed order), and applies the
// emitted Effects: messages go down through DVS, ordered deliveries and
// view events go up to the application channels.
//
// Steps run to completion: sending through DVS can synchronously re-enter
// the shell (a leader's own submission is ordered, delivered, and acked
// inline by the layers below), so re-entrant events are queued and
// processed after the current step's effects have all been applied. Every
// event therefore observes a quiescent core, which is what makes the
// recorded (event, effects) logs exactly replayable by the conformance
// checker (internal/conform).
package tob

import (
	"repro/internal/dvsg"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// Delivery is one totally-ordered message handed to the application.
type Delivery struct {
	Payload string
	Origin  types.ProcID
}

// ViewEvent reports a primary view becoming current (and later established)
// at this node; used by experiments and applications that track membership.
type ViewEvent struct {
	View        types.View
	Established bool
}

// Observer receives every macro-step of the core, in execution order: the
// input event and the effects it emitted. The conformance recorder is an
// Observer. Called from the event loop; the effects slice must not be
// mutated and is valid only for the duration of the call (the layer reuses
// it for the next step), so an observer that keeps a step encodes or copies
// it before returning. Events the core rejects (unexpected message types)
// mutate no state and are not observed.
type Observer func(ev tocore.Event, effects []tocore.Effect)

// DeliverHook intercepts each totally-ordered delivery before it reaches
// the application stream, and returns the deliveries to hand up in its
// place: nil consumes the delivery, a singleton passes it (possibly
// rewritten) through, and a longer slice injects additional deliveries at
// this point of the order. The multicast coordinator uses this seam to
// strip its control payloads out of the application stream and to splice
// finalized cross-group deliveries in at deterministic points. The hook
// runs inline on the event loop, inside the macro-step's effect
// application, so whatever it returns inherits the total order's
// determinism — it must itself be a deterministic function of the
// delivery sequence it has seen.
type DeliverHook func(d Delivery) []Delivery

// Stats are cumulative per-node tob counters. The frames-vs-payloads pairs
// (BatchesOut/PayloadsOut, BatchesIn/PayloadsIn) make the effect of shell
// batching observable: PayloadsOut counts individual label/summary messages
// the core emitted, BatchesOut counts the DVS sends that carried them.
type Stats struct {
	Broadcasts     uint64
	Labeled        uint64
	Confirmed      uint64
	Delivered      uint64
	Established    uint64
	DroppedUp      uint64 // deliveries dropped because the application lagged
	DroppedViews   uint64 // view events dropped because the application lagged
	LabelsSent     uint64 // labeled client messages sent through DVS
	StateExchanges uint64 // recovery summaries sent (one per view needing state exchange)
	BatchesOut     uint64 // DVS sends (frames): batches plus unbatched singletons
	PayloadsOut    uint64 // individual messages carried by those sends
	BatchesIn      uint64 // received DVS frames that were batches
	PayloadsIn     uint64 // individual messages expanded from received batches
	FlushDiscards  uint64 // pending payloads discarded at a view change
	// The core's history (gauges, not counters): labels of the order dropped
	// as stable and labels still held; of those, the delivered ones, which a
	// view that is the whole universe lets go of and any other pins; and the
	// state exchanges left un-established because the representative's base
	// could not be aligned with (no correct run has one).
	HistoryBase     uint64
	HistoryRetained uint64
	HistoryPinned   uint64
	BaseMismatch    uint64
}

// maxBatch bounds the number of label/summary messages coalesced into one
// DVS send. Large enough to amortize per-frame cost across a loaded queue,
// small enough to keep individual frames (and the head-of-line latency they
// impose) bounded.
const maxBatch = 64

// Layer drives a tocore.Node over a dvsg.Layer.
type Layer struct {
	node     *tocore.Node
	dvs      *dvsg.Layer
	stop     <-chan struct{}
	stats    Stats
	observer Observer
	hook     DeliverHook

	deliveries chan Delivery
	views      chan ViewEvent

	register bool

	// Run-to-completion event queue: events arriving while a step is in
	// flight (synchronous re-entry from the layers below) are deferred until
	// the current step's effects have been applied.
	stepping bool
	queue    []tocore.Event
	out      tocore.Outbox // scratch of step, which the queue keeps from nesting

	// Send batching: FxSend effects accumulate in pending instead of going
	// through DVS one frame per message. A flush is deferred through the
	// event-loop scheduler when possible, so every broadcast already queued
	// behind the current one lands in the same batch; when the scheduler is
	// unavailable the flush happens at the end of the dispatch. Pending
	// messages are discarded (and counted) on a view change: a label popped
	// but unsent stays in the core's content and is recovered by the new
	// view's summary exchange, while sending it late — tagged with the new
	// view at the VS layer — could double-order it at receivers.
	pending        []types.Msg // storage kept; reset when all are sent or discarded
	sent           int         // pending[:sent] went out in this flush; their slots are cleared
	flushScheduled bool
	flushing       bool
}

// New builds the layer. register controls whether established views are
// registered with DVS (the paper's REGISTER mechanism; disable for the E6
// ablation). stop aborts blocking hand-offs to the application when the
// node shuts down.
func New(self types.ProcID, initial types.View, register bool, stop <-chan struct{}) *Layer {
	return &Layer{
		node:       tocore.NewNode(self, initial, initial.Contains(self), false),
		stop:       stop,
		register:   register,
		deliveries: make(chan Delivery, 1<<14),
		views:      make(chan ViewEvent, 1024),
	}
}

var _ dvsg.Handler = (*Layer)(nil)

// Bind attaches the dvsg layer used for sending and, through it, reads the
// process universe, which goes to the core as its first event. It must be
// called before the node starts.
func (l *Layer) Bind(dvs *dvsg.Layer) {
	l.dvs = dvs
	l.queue = append(l.queue, tocore.Event{Kind: tocore.EvUniverse, Set: dvs.Universe()})
}

// AddObserver chains o after any already-installed observer, so a recorder,
// a stream spiller, and an online checker can watch the same layer. It must
// be called before the node starts.
func (l *Layer) AddObserver(o Observer) {
	if prev := l.observer; prev != nil {
		l.observer = func(ev tocore.Event, effects []tocore.Effect) {
			prev(ev, effects)
			o(ev, effects)
		}
		return
	}
	l.observer = o
}

// SetDeliverHook installs the delivery interceptor. It must be called
// before the node starts.
func (l *Layer) SetDeliverHook(h DeliverHook) { l.hook = h }

// Deliveries is the application-facing totally ordered stream. Consumers
// must drain it; if it fills, further deliveries are dropped and counted.
func (l *Layer) Deliveries() <-chan Delivery { return l.deliveries }

// Views is the application-facing primary-view stream (best effort: events
// are dropped if the consumer lags).
func (l *Layer) Views() <-chan ViewEvent { return l.views }

// Stats returns a snapshot of the counters. Read from the event loop (via
// Node.Do) or after shutdown.
func (l *Layer) Stats() Stats {
	s, n := l.stats, l.node
	s.HistoryBase, s.HistoryRetained = uint64(n.Base()), uint64(n.Retained())
	s.HistoryPinned, s.BaseMismatch = uint64(n.NextReport()-1-n.Base()), uint64(n.BaseMismatches())
	return s
}

// Node exposes the underlying automaton for inspection by tests and
// experiments (event-loop context only).
func (l *Layer) Node() *tocore.Node { return l.node }

// Broadcast submits a client payload. It must be called from the event
// loop (via vsg.Node.Do).
func (l *Layer) Broadcast(a string) {
	l.stats.Broadcasts++
	l.dispatch(tocore.Event{Kind: tocore.EvBroadcast, A: a})
}

// OnDVSNewView implements dvsg.Handler.
func (l *Layer) OnDVSNewView(v types.View) {
	l.dispatch(tocore.Event{Kind: tocore.EvNewView, View: v})
}

// OnDVSRecv implements dvsg.Handler. Batches are expanded here, before the
// core sees them: one EvRecv per member, in batch order, so the core's event
// stream is identical to an unbatched execution.
func (l *Layer) OnDVSRecv(m types.Msg, from types.ProcID) {
	if b, ok := m.(types.Batch); ok {
		l.stats.BatchesIn++
		l.stats.PayloadsIn += uint64(len(b.Msgs))
		for _, inner := range b.Msgs {
			l.dispatch(tocore.Event{Kind: tocore.EvRecv, M: inner, From: from})
		}
		return
	}
	l.dispatch(tocore.Event{Kind: tocore.EvRecv, M: m, From: from})
}

// OnDVSSafe implements dvsg.Handler. A safe indication for a batch means
// every member message is safe, in batch order.
func (l *Layer) OnDVSSafe(m types.Msg, from types.ProcID) {
	if b, ok := m.(types.Batch); ok {
		for _, inner := range b.Msgs {
			l.dispatch(tocore.Event{Kind: tocore.EvSafe, M: inner, From: from})
		}
		return
	}
	l.dispatch(tocore.Event{Kind: tocore.EvSafe, M: m, From: from})
}

// dispatch runs one core macro-step for ev, or queues it if a step is
// already in flight, then drains the queue. Queued events are processed in
// arrival order, so the delivery and view streams handed up preserve the
// core's emission order even under synchronous re-entry.
func (l *Layer) dispatch(ev tocore.Event) {
	l.queue = append(l.queue, ev) // behind Bind's EvUniverse, if it is still there
	if l.stepping {
		return
	}
	l.stepping = true
	for i := 0; i < len(l.queue); i++ {
		next := l.queue[i]
		l.queue[i] = tocore.Event{} // a drained slot holds no payload
		l.step(next)
	}
	l.queue = l.queue[:0]
	l.stepping = false
	l.maybeFlush()
}

// maybeFlush arranges for the pending sends to go out: preferably on a later
// event-loop iteration (so adjacent queued events contribute to the same
// batch), synchronously as a fallback.
func (l *Layer) maybeFlush() {
	if len(l.pending) == 0 || l.flushScheduled || l.flushing {
		return
	}
	if l.dvs != nil && l.dvs.Defer(l.flush) {
		l.flushScheduled = true
		return
	}
	l.flush()
}

// flush drains the pending sends through DVS in maxBatch-sized frames.
// Sending can synchronously re-enter the shell (a leader's own labels come
// back ordered inline) and append further pending sends; the loop coalesces
// those too, and the flushing guard stops maybeFlush from recursing.
func (l *Layer) flush() {
	l.flushScheduled = false
	if l.flushing {
		return
	}
	l.flushing = true
	defer func() { l.flushing = false }()
	for l.sent < len(l.pending) {
		k := min(len(l.pending)-l.sent, maxBatch)
		unsent := l.pending[l.sent : l.sent+k]
		var m types.Msg
		if k == 1 {
			m = unsent[0]
		} else {
			m = types.Batch{Msgs: append([]types.Msg(nil), unsent...)}
		}
		clear(unsent)
		l.sent += k
		l.stats.BatchesOut++
		l.stats.PayloadsOut += uint64(k)
		l.dvs.Send(m)
	}
	l.pending, l.sent = l.pending[:0], 0
}

// step performs one atomic macro-step and applies its effects. A rejected
// event (unknown kind, unexpected message type) mutates no state and is
// dropped unobserved.
func (l *Layer) step(ev tocore.Event) {
	if ev.Kind == tocore.EvNewView && len(l.pending) > l.sent {
		// Unsent messages belong to the view that just died. See the pending
		// field comment: discarding is the VS-permitted loss; a late send
		// would leak old-view labels into the new view.
		l.stats.FlushDiscards += uint64(len(l.pending) - l.sent)
		clear(l.pending)
		l.pending, l.sent = l.pending[:0], 0
	}
	l.out.Effects = l.out.Effects[:0]
	if err := tocore.Step(l.node, ev, l.register, &l.out); err != nil {
		return
	}
	if l.observer != nil {
		l.observer(ev, l.out.Effects)
	}
	if ev.Kind == tocore.EvNewView {
		l.pushView(ViewEvent{View: ev.View})
	}
	for _, fx := range l.out.Effects {
		switch fx.Kind {
		case tocore.FxLabel:
			l.stats.Labeled++
		case tocore.FxSend:
			if _, isSummary := fx.M.(tocore.SummaryMsg); isSummary {
				l.stats.StateExchanges++
			} else {
				l.stats.LabelsSent++
			}
			l.pending = append(l.pending, fx.M)
		case tocore.FxConfirm:
			l.stats.Confirmed++
		case tocore.FxDeliver:
			l.stats.Delivered++
			d := Delivery{Payload: fx.A, Origin: fx.Origin}
			if l.hook != nil {
				for _, hd := range l.hook(d) {
					l.pushDelivery(hd)
				}
			} else {
				l.pushDelivery(d)
			}
		case tocore.FxRegister:
			l.stats.Established++
			l.pushView(ViewEvent{View: fx.View, Established: true})
			l.dvs.Register()
		}
	}
}

func (l *Layer) pushDelivery(d Delivery) {
	select {
	case l.deliveries <- d:
	case <-l.stop:
	default:
		l.stats.DroppedUp++
	}
}

func (l *Layer) pushView(e ViewEvent) {
	select {
	case l.views <- e:
	default:
		// Best effort by contract, but the loss is counted so a lagging
		// consumer shows up in the stats rather than as silent absence.
		l.stats.DroppedViews++
	}
}
