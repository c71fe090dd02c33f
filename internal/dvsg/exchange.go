package dvsg

import (
	"repro/internal/types"
	"repro/internal/wire"
)

// This file implements the variation sketched in the paper's discussion
// (Section 7): "one in which the state exchange at the beginning of a new
// view is supported by the dynamic view service". Instead of every
// application hand-rolling its recovery protocol (as DVS-TO-TO does in
// Figure 5), the ExchangeLayer performs it: at each new primary view it
// snapshots the application state, multicasts it within the view, gathers
// every member's snapshot, hands the application the complete exchange in
// one upcall, and registers the view with the service on the application's
// behalf.
//
// The within-view total order gives the same guarantee Figure 5 relies on:
// a member only sends ordinary messages after it has received the whole
// exchange, so every receiver completes the exchange before any
// post-establishment message of that view arrives.

// ExchangeMsg carries one member's state snapshot for a view.
type ExchangeMsg struct {
	ViewID types.ViewID
	State  string
}

// MsgKey implements types.Msg.
func (m ExchangeMsg) MsgKey() string { return "xchg:" + m.ViewID.String() + ":" + m.State }

// EqualMsg implements types.Msg.
func (m ExchangeMsg) EqualMsg(o types.Msg) bool {
	om, ok := o.(ExchangeMsg)
	return ok && om == m
}

var _ types.Msg = ExchangeMsg{}

func (ExchangeMsg) WireTag() byte { return 0x99 }

func (m ExchangeMsg) AppendWire(b []byte, _ int) ([]byte, error) {
	return wire.AppendString(wire.AppendViewID(b, m.ViewID), m.State), nil
}

func (ExchangeMsg) ReadWire(r *wire.Reader, _ int) any {
	return ExchangeMsg{ViewID: r.ViewID(), State: r.Str()}
}

// ExchangeHandler is the application interface of the exchange-supporting
// service. All upcalls run on the node's event loop.
type ExchangeHandler interface {
	// StateSnapshot is called when a new primary view starts; the returned
	// blob is exchanged with the other members.
	StateSnapshot(v types.View) string
	// OnExchangedView delivers the new view together with every member's
	// snapshot; the view has been registered with the DVS service.
	OnExchangedView(v types.View, states map[types.ProcID]string)
	// OnRecv and OnSafe deliver ordinary client messages, exactly as in
	// the plain DVS interface, only within exchanged views.
	OnRecv(m types.Msg, from types.ProcID)
	OnSafe(m types.Msg, from types.ProcID)
}

// ExchangeLayer adapts an ExchangeHandler to the plain DVS Handler
// interface, implementing the service-supported state exchange.
type ExchangeLayer struct {
	app ExchangeHandler
	dvs *Layer

	collecting bool
	view       types.View
	states     map[types.ProcID]string
}

var _ Handler = (*ExchangeLayer)(nil)

// NewExchangeLayer builds the adapter. Call BindDVS with the dvsg.Layer it
// sits on before the node starts.
func NewExchangeLayer(app ExchangeHandler) *ExchangeLayer {
	return &ExchangeLayer{app: app}
}

// BindDVS attaches the underlying dvsg layer.
func (x *ExchangeLayer) BindDVS(dvs *Layer) { x.dvs = dvs }

// Send forwards a client message (event-loop context only).
func (x *ExchangeLayer) Send(m types.Msg) { x.dvs.Send(m) }

// OnDVSNewView implements Handler: start the exchange.
func (x *ExchangeLayer) OnDVSNewView(v types.View) {
	x.collecting = true
	x.view = v.Clone()
	x.states = make(map[types.ProcID]string, v.Members.Len())
	snap := x.app.StateSnapshot(v.Clone())
	x.dvs.Send(ExchangeMsg{ViewID: v.ID, State: snap})
}

// OnDVSRecv implements Handler.
func (x *ExchangeLayer) OnDVSRecv(m types.Msg, from types.ProcID) {
	if xm, ok := m.(ExchangeMsg); ok {
		if !x.collecting || xm.ViewID != x.view.ID {
			return // stale exchange message from an abandoned view
		}
		x.states[from] = xm.State
		if len(x.states) == x.view.Members.Len() {
			x.collecting = false
			// Registration before the upcall: the application receives an
			// already-registered view, per the Section 7 variation.
			x.dvs.Register()
			x.app.OnExchangedView(x.view.Clone(), x.states)
		}
		return
	}
	x.app.OnRecv(m, from)
}

// OnDVSSafe implements Handler. Safe indications for exchange messages are
// absorbed; the service-level exchange does not need them (registration is
// triggered by receipt from all members, matching Figure 3's use of
// "registered" messages).
func (x *ExchangeLayer) OnDVSSafe(m types.Msg, from types.ProcID) {
	if _, ok := m.(ExchangeMsg); ok {
		return
	}
	x.app.OnSafe(m, from)
}
