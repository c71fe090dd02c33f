package tocore

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

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
// upcall or a client broadcast. A closed tagged value, Kind naming the input
// and only its fields set, it is passed by value: nothing is boxed per
// message. Step rejects a Kind it does not know.
type Event struct {
	Kind EventKind
	A    string        // EvBroadcast
	M    types.Msg     // EvRecv, EvSafe
	From types.ProcID  // EvRecv, EvSafe
	View types.View    // EvNewView
	Set  types.ProcSet // EvUniverse
}

// EventKind names one input, in the trace codec's tag order; 0 is none.
type EventKind uint8

const (
	EvBroadcast EventKind = iota + 1 // the bcast(a)_p input
	EvNewView                        // the dvs-newview(v)_p input
	EvRecv                           // the dvs-gprcv(m)_{q,p} input
	EvSafe                           // the dvs-safe(m)_{q,p} input
	// EvUniverse tells the node the process universe P, the one input
	// Figure 5 does not have: a view whose membership is Set is one no
	// process is away from, which is when the node truncates (see the
	// package comment). The shell dispatches it once, before anything else,
	// so it is in the recorded log and replay re-derives every truncation
	// from it.
	EvUniverse
)

func (k EventKind) String() string {
	return kindName(int(k), "EvBroadcast EvNewView EvRecv EvSafe EvUniverse")
}

// Effect is one output of a macro-step: a message for the DVS layer below,
// a delivery or view report for the application above, or an observable
// internal action. Like Event, a closed tagged value.
type Effect struct {
	Kind   EffectKind
	A      string       // FxLabel, FxDeliver
	Origin types.ProcID // FxDeliver
	M      types.Msg    // FxSend
	View   types.View   // FxRegister
}

// EffectKind names one output, numbered like EventKind; 0 is none.
type EffectKind uint8

const (
	FxLabel    EffectKind = iota + 1 // the internal label(a)_p action: a buffered payload got its label
	FxSend                           // M (a LabelMsg or SummaryMsg) to the DVS layer (dvs-gpsnd output)
	FxConfirm                        // the internal confirm_p action
	FxDeliver                        // A from Origin, totally ordered, to the application (brcv output)
	FxRegister                       // registers the established View with DVS (dvs-register) and reports it up
)

func (k EffectKind) String() string {
	return kindName(int(k), "FxLabel FxSend FxConfirm FxDeliver FxRegister")
}

// kindName is the k-th (from 1) of the space-separated names, or k's number.
func kindName(k int, names string) string {
	if f := strings.Fields(names); k >= 1 && k <= len(f) {
		return f[k-1]
	}
	return fmt.Sprint("kind ", k)
}

// Outbox collects the effects of one macro-step, in emission order.
type Outbox struct{ Effects []Effect }

func (o *Outbox) add(fx Effect) { o.Effects = append(o.Effects, fx) }

// Step applies one input event and then drains the node: one atomic
// macro-step of the runtime protocol core. register enables the paper's
// REGISTER mechanism (disabled for the E6 ablation). A non-nil error means
// the event was rejected (unknown kind, unexpected message type) and the node
// was left undrained, matching the runtime's drop-and-continue handling.
func Step(n *Node, ev Event, register bool, out *Outbox) error {
	switch ev.Kind {
	case EvUniverse:
		n.onUniverse(ev.Set)
	case EvBroadcast:
		n.onBCast(ev.A)
	case EvNewView:
		n.onDVSNewView(ev.View)
	case EvRecv:
		if err := n.onDVSGpRcv(ev.M, ev.From); err != nil {
			return err
		}
	case EvSafe:
		if err := n.onDVSSafe(ev.M, ev.From); err != nil {
			return err
		}
	default:
		return fmt.Errorf("tocore: unknown event %v", ev.Kind)
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
			out.add(Effect{Kind: FxLabel, A: a})
			progress = true
		}
		if m, ok := n.gpSndSummary(); ok {
			n.sendSummary()
			out.add(Effect{Kind: FxSend, M: m})
			progress = true
		}
		if m, ok := n.gpSndLabel(); ok {
			n.sendLabel()
			out.add(Effect{Kind: FxSend, M: m})
			progress = true
		}
		if n.confirmEnabled() {
			n.confirm()
			out.add(Effect{Kind: FxConfirm})
			progress = true
		}
		if a, origin, ok := n.brcvNext(); ok {
			n.brcv()
			out.add(Effect{Kind: FxDeliver, A: a, Origin: origin})
			progress = true
		}
		if register && n.registerEnabled() {
			n.register()
			out.add(Effect{Kind: FxRegister, View: n.current})
			progress = true
		}
		if !progress {
			return
		}
	}
}
