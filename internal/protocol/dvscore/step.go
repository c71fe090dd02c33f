package dvscore

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// This file is the runtime face of the protocol core: an explicit
// input-event / output-effect interface around the Figure 3 transition
// methods. One Step call is one atomic macro-step — apply an input event,
// then fire the enabled locally-controlled actions in the fixed drain order
// until quiescent — and the effects it emits into the Outbox are the only
// way anything leaves the state machine. The runtime shells (internal/dvsg)
// translate upcalls into Events and apply Effects; the conformance replayer
// (internal/conform) re-executes recorded (Event, Effects) logs through the
// same code and flags any divergence.

// Filter is the primary-view decision state machine the drain policy
// drives: the transition set of the VS-TO-DVS automaton (Node), which the
// static-primary baseline (StaticNode) implements too. The transitions are
// unexported, so only this package can implement a Filter or fire one of
// its actions; a holder outside it may observe the client-facing projection
// the paper's DVS interface exports, and every transition goes through Step.
type Filter interface {
	onVSNewView(v types.View)
	onVSGpRcv(m types.Msg, q types.ProcID)
	onVSSafe(m types.Msg, q types.ProcID)
	onDVSGpSnd(m types.Msg)
	onDVSRegister()
	vsGpSndHead() (types.Msg, bool)
	popVSGpSnd()
	dvsNewViewEnabled() (types.View, bool)
	dvsNewView(v types.View)
	dvsGpRcvHead() (MsgFrom, bool)
	popDVSGpRcv()
	dvsSafeHead() (MsgFrom, bool)
	popDVSSafe()
	gcCandidates() []types.View
	performGC(v types.View) error
	ClientCur() (types.View, bool)
	Amb() []types.View
}

var (
	_ Filter = (*Node)(nil)
	_ Filter = (*StaticNode)(nil)
)

// Event is one input of the VS-TO-DVS automaton as seen at runtime: a
// view-synchronous upcall or a client downcall. A closed tagged value, Kind
// naming the input and only its fields set, it is passed by value: nothing
// is boxed per message. Step rejects a Kind it does not know.
type Event struct {
	Kind EventKind
	M    types.Msg    // EvVSRecv, EvVSSafe, EvClientSend
	From types.ProcID // EvVSRecv, EvVSSafe
	View types.View   // EvVSNewView
}

// EventKind names one input, in the trace codec's tag order; 0 is none.
type EventKind uint8

const (
	EvVSNewView      EventKind = iota + 1 // the vs-newview(v)_p input
	EvVSRecv                              // the vs-gprcv(m)_{q,p} input
	EvVSSafe                              // the vs-safe(m)_{q,p} input
	EvClientSend                          // the dvs-gpsnd(m)_p input from the client above
	EvClientRegister                      // the dvs-register_p input from the client above
)

func (k EventKind) String() string {
	return kindName(int(k), "EvVSNewView EvVSRecv EvVSSafe EvClientSend EvClientRegister")
}

// Effect is one output of a macro-step: a message for the view-synchronous
// layer below, an upcall for the client above, or an observable internal
// action. Like Event, a closed tagged value.
type Effect struct {
	Kind EffectKind
	M    types.Msg    // FxSendVS, FxDeliver, FxSafeInd
	From types.ProcID // FxDeliver, FxSafeInd
	View types.View   // FxNewPrimary, FxGC
}

// EffectKind names one output, numbered like EventKind; 0 is none.
type EffectKind uint8

const (
	FxSendVS     EffectKind = iota + 1 // M to the view-synchronous layer (vs-gpsnd output)
	FxDeliver                          // a client message up (dvs-gprcv output)
	FxSafeInd                          // a safe indication up (dvs-safe output)
	FxNewPrimary                       // a new primary view (dvs-newview output)
	FxGC                               // a dvs-garbage-collect, observable so replay checks GC scheduling too
)

func (k EffectKind) String() string {
	return kindName(int(k), "FxSendVS FxDeliver FxSafeInd FxNewPrimary FxGC")
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

// Step applies one input event and then drains the filter: one atomic
// macro-step of the runtime protocol core. gc enables the eager
// dvs-garbage-collect scheduling (disabled for the REGISTER ablation). A
// non-nil error means the event's kind is unknown: the filter is left as it
// was, undrained.
func Step(f Filter, ev Event, gc bool, out *Outbox) error {
	switch ev.Kind {
	case EvVSNewView:
		f.onVSNewView(ev.View)
	case EvVSRecv:
		f.onVSGpRcv(ev.M, ev.From)
	case EvVSSafe:
		f.onVSSafe(ev.M, ev.From)
	case EvClientSend:
		f.onDVSGpSnd(ev.M)
	case EvClientRegister:
		f.onDVSRegister()
	default:
		return fmt.Errorf("dvscore: unknown event %v", ev.Kind)
	}
	drain(f, gc, out)
	return nil
}

// drain fires the filter's enabled locally-controlled actions until
// quiescent, emitting one effect per action: outgoing messages first, then
// client deliveries and safe indications of the current client view, then
// (only once those are drained) a new primary announcement, then garbage
// collection. This is the view-synchronous drain contract: all client
// deliveries and safe indications of a client view are handed up before a
// later primary view is announced. Each guard is evaluated once per firing
// and the effect applied directly — re-checking it would compare a whole
// batch with itself, per frame, on the up-path.
func drain(f Filter, gc bool, out *Outbox) {
	for {
		progress := false
		for {
			m, ok := f.vsGpSndHead()
			if !ok {
				break
			}
			f.popVSGpSnd()
			out.add(Effect{Kind: FxSendVS, M: m})
			progress = true
		}
		for {
			e, ok := f.dvsGpRcvHead()
			if !ok {
				break
			}
			f.popDVSGpRcv()
			out.add(Effect{Kind: FxDeliver, M: e.M, From: e.Q})
			progress = true
		}
		for {
			e, ok := f.dvsSafeHead()
			if !ok {
				break
			}
			f.popDVSSafe()
			out.add(Effect{Kind: FxSafeInd, M: e.M, From: e.Q})
			progress = true
		}
		if v, ok := f.dvsNewViewEnabled(); ok {
			f.dvsNewView(v)
			out.add(Effect{Kind: FxNewPrimary, View: v})
			progress = true
		}
		if gc {
			for _, v := range f.gcCandidates() {
				if err := f.performGC(v); err == nil {
					out.add(Effect{Kind: FxGC, View: v})
					progress = true
				}
			}
		}
		if !progress {
			return
		}
	}
}
