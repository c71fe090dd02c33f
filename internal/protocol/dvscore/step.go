package dvscore

import "repro/internal/types"

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
// view-synchronous upcall or a client downcall.
type Event interface{ dvsEvent() }

// EvVSNewView is the vs-newview(v)_p input.
type EvVSNewView struct{ View types.View }

// EvVSRecv is the vs-gprcv(m)_{q,p} input.
type EvVSRecv struct {
	M    types.Msg
	From types.ProcID
}

// EvVSSafe is the vs-safe(m)_{q,p} input.
type EvVSSafe struct {
	M    types.Msg
	From types.ProcID
}

// EvClientSend is the dvs-gpsnd(m)_p input from the client above.
type EvClientSend struct{ M types.Msg }

// EvClientRegister is the dvs-register_p input from the client above.
type EvClientRegister struct{}

func (EvVSNewView) dvsEvent()      {}
func (EvVSRecv) dvsEvent()         {}
func (EvVSSafe) dvsEvent()         {}
func (EvClientSend) dvsEvent()     {}
func (EvClientRegister) dvsEvent() {}

// Effect is one output of a macro-step: a message for the view-synchronous
// layer below, an upcall for the client above, or an observable internal
// action.
type Effect interface{ dvsEffect() }

// FxSendVS submits m to the view-synchronous layer (vs-gpsnd output).
type FxSendVS struct{ M types.Msg }

// FxDeliver hands a client message up (dvs-gprcv output).
type FxDeliver struct {
	M    types.Msg
	From types.ProcID
}

// FxSafeInd hands a safe indication up (dvs-safe output).
type FxSafeInd struct {
	M    types.Msg
	From types.ProcID
}

// FxNewPrimary announces a new primary view (dvs-newview output).
type FxNewPrimary struct{ View types.View }

// FxGC records a dvs-garbage-collect internal action (observable so the
// replayer can verify GC scheduling too).
type FxGC struct{ View types.View }

func (FxSendVS) dvsEffect()     {}
func (FxDeliver) dvsEffect()    {}
func (FxSafeInd) dvsEffect()    {}
func (FxNewPrimary) dvsEffect() {}
func (FxGC) dvsEffect()         {}

// Outbox collects the effects of one macro-step, in emission order.
type Outbox struct{ Effects []Effect }

func (o *Outbox) add(fx Effect) { o.Effects = append(o.Effects, fx) }

// Step applies one input event and then drains the filter: one atomic
// macro-step of the runtime protocol core. gc enables the eager
// dvs-garbage-collect scheduling (disabled for the REGISTER ablation).
func Step(f Filter, ev Event, gc bool, out *Outbox) {
	switch e := ev.(type) {
	case EvVSNewView:
		f.onVSNewView(e.View)
	case EvVSRecv:
		f.onVSGpRcv(e.M, e.From)
	case EvVSSafe:
		f.onVSSafe(e.M, e.From)
	case EvClientSend:
		f.onDVSGpSnd(e.M)
	case EvClientRegister:
		f.onDVSRegister()
	}
	drain(f, gc, out)
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
			out.add(FxSendVS{M: m})
			progress = true
		}
		for {
			e, ok := f.dvsGpRcvHead()
			if !ok {
				break
			}
			f.popDVSGpRcv()
			out.add(FxDeliver{M: e.M, From: e.Q})
			progress = true
		}
		for {
			e, ok := f.dvsSafeHead()
			if !ok {
				break
			}
			f.popDVSSafe()
			out.add(FxSafeInd{M: e.M, From: e.Q})
			progress = true
		}
		if v, ok := f.dvsNewViewEnabled(); ok {
			f.dvsNewView(v)
			out.add(FxNewPrimary{View: v})
			progress = true
		}
		if gc {
			for _, v := range f.gcCandidates() {
				if err := f.performGC(v); err == nil {
					out.add(FxGC{View: v})
					progress = true
				}
			}
		}
		if !progress {
			return
		}
	}
}
