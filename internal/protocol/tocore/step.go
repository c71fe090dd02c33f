package tocore

import "repro/internal/types"

// This file is the runtime face of the protocol core: an explicit
// input-event / output-effect interface around the Figure 5 transition
// methods. One Step call is one atomic macro-step — apply an input event,
// then fire the enabled locally-controlled actions in the fixed drain order
// until quiescent — and the effects it emits into the Outbox are the only
// way anything leaves the state machine. The runtime shell (internal/tob)
// translates DVS upcalls into Events and applies Effects; the conformance
// replayer (internal/conform) re-executes recorded (Event, Effects) logs
// through the same code and flags any divergence.

// Event is one input of the DVS-TO-TO automaton as seen at runtime: a DVS
// upcall or a client broadcast.
type Event interface{ toEvent() }

// EvUniverse tells the node the process universe P, the one input Figure 5
// does not have: a view whose membership is Set is one no process is away
// from, which is when the node truncates (see the package comment). The
// shell dispatches it once, before anything else, so it is in the recorded
// log and replay re-derives every truncation from it.
type EvUniverse struct{ Set types.ProcSet }

// EvBroadcast is the bcast(a)_p input.
type EvBroadcast struct{ A string }

// EvNewView is the dvs-newview(v)_p input.
type EvNewView struct{ View types.View }

// EvRecv is the dvs-gprcv(m)_{q,p} input.
type EvRecv struct {
	M    types.Msg
	From types.ProcID
}

// EvSafe is the dvs-safe(m)_{q,p} input.
type EvSafe struct {
	M    types.Msg
	From types.ProcID
}

func (EvUniverse) toEvent()  {}
func (EvBroadcast) toEvent() {}
func (EvNewView) toEvent()   {}
func (EvRecv) toEvent()      {}
func (EvSafe) toEvent()      {}

// Effect is one output of a macro-step: a message for the DVS layer below,
// a delivery or view report for the application above, or an observable
// internal action.
type Effect interface{ toEffect() }

// FxLabel records the internal label(a)_p action: a buffered client payload
// received its label.
type FxLabel struct{ A string }

// FxSend submits m (a LabelMsg or SummaryMsg) to the DVS layer (dvs-gpsnd
// output).
type FxSend struct{ M types.Msg }

// FxConfirm records the internal confirm_p action.
type FxConfirm struct{}

// FxDeliver reports a totally ordered delivery to the application (brcv
// output).
type FxDeliver struct {
	A      string
	Origin types.ProcID
}

// FxRegister registers the established view with the DVS layer
// (dvs-register output) and reports it to the application.
type FxRegister struct{ View types.View }

func (FxLabel) toEffect()    {}
func (FxSend) toEffect()     {}
func (FxConfirm) toEffect()  {}
func (FxDeliver) toEffect()  {}
func (FxRegister) toEffect() {}

// Outbox collects the effects of one macro-step, in emission order.
type Outbox struct{ Effects []Effect }

func (o *Outbox) add(fx Effect) { o.Effects = append(o.Effects, fx) }

// Step applies one input event and then drains the node: one atomic
// macro-step of the runtime protocol core. register enables the paper's
// REGISTER mechanism (disabled for the E6 ablation). A non-nil error means
// the event was rejected (unexpected message type) and the node was left
// undrained, matching the runtime's drop-and-continue handling.
func Step(n *Node, ev Event, register bool, out *Outbox) error {
	switch e := ev.(type) {
	case EvUniverse:
		n.onUniverse(e.Set)
	case EvBroadcast:
		n.onBCast(e.A)
	case EvNewView:
		n.onDVSNewView(e.View)
	case EvRecv:
		if err := n.onDVSGpRcv(e.M, e.From); err != nil {
			return err
		}
	case EvSafe:
		if err := n.onDVSSafe(e.M, e.From); err != nil {
			return err
		}
	}
	drain(n, register, out)
	return nil
}

// drain fires the node's enabled locally-controlled actions until
// quiescent, emitting one effect per action: labeling buffered client
// payloads, sending the recovery summary and then labeled messages through
// DVS, confirming safe labels, reporting deliveries, and registering
// established views. Each action's precondition is evaluated once per
// firing — the guard below — and its effect applied directly; the
// perform*/take* methods re-check the guard for the caller that is handed
// an action by name (Impl.Perform), which here would repeat the lookup.
func drain(n *Node, register bool, out *Outbox) {
	for {
		progress := false
		if a, ok := n.labelHead(); ok {
			n.label()
			out.add(FxLabel{A: a})
			progress = true
		}
		if m, ok := n.gpSndSummary(); ok {
			n.sendSummary()
			out.add(FxSend{M: m})
			progress = true
		}
		if m, ok := n.gpSndLabel(); ok {
			n.sendLabel()
			out.add(FxSend{M: m})
			progress = true
		}
		if n.confirmEnabled() {
			n.confirm()
			out.add(FxConfirm{})
			progress = true
		}
		if a, origin, ok := n.brcvNext(); ok {
			n.brcv()
			out.add(FxDeliver{A: a, Origin: origin})
			progress = true
		}
		if register && n.registerEnabled() {
			n.register()
			out.add(FxRegister{View: n.current.Clone()})
			progress = true
		}
		if !progress {
			return
		}
	}
}
