package mcastcore

import (
	"errors"

	"repro/internal/types"
)

// This file is the runtime face of the multicast core: an explicit
// input-event / output-effect interface in the exact shape of tocore's.
// One Step call is one atomic macro-step — apply an input event, then
// drain every enabled delivery — and the effects it emits into the Outbox
// are the only way anything leaves the state machine. The runtime shell
// (internal/mcast) translates per-group TO deliveries into Events and
// applies Effects; the conformance replayer (internal/conform)
// re-executes recorded (Event, Effects) logs through the same code and
// flags any divergence.

// Event is one input of the multicast coordinator automaton.
type Event interface{ mcEvent() }

// EvSubmit is the local mcast(dests, payload)_p input: the application
// submits a multi-group message. The core assigns the message id.
type EvSubmit struct {
	Dests   []types.GroupID
	Payload string
}

// EvData is the delivery of a multi-group message's data in group Group's
// total order (every member of Group applies this at the same point in the
// group's delivery sequence).
type EvData struct {
	Group   types.GroupID
	ID      string
	Origin  types.ProcID
	Dests   []types.GroupID
	Payload string
}

// EvProposal is the delivery of group PGroup's timestamp proposal for
// message ID, carried by group Group's total order.
type EvProposal struct {
	Group  types.GroupID
	PGroup types.GroupID
	ID     string
	TS     uint64
}

func (EvSubmit) mcEvent()   {}
func (EvData) mcEvent()     {}
func (EvProposal) mcEvent() {}

// Effect is one output of a macro-step: a broadcast for a group's total
// order below, or a multicast delivery for the application above.
type Effect interface{ mcEffect() }

// FxSendData asks the shell to broadcast the message's data through group
// To's total order (emitted once per destination group at the origin).
type FxSendData struct {
	To      types.GroupID
	ID      string
	Origin  types.ProcID
	Dests   []types.GroupID
	Payload string
}

// FxSendProp asks the shell to broadcast group PGroup's timestamp proposal
// for message ID through group To's total order (emitted at the origin
// only — the one process guaranteed to sit in every destination group —
// and only toward the other destination groups: every member of PGroup
// assigns PGroup's proposal deterministically when the data is ordered, so
// echoing it back into PGroup would be redundant).
type FxSendProp struct {
	To     types.GroupID
	PGroup types.GroupID
	ID     string
	TS     uint64
}

// FxDeliver reports a finalized multicast delivery in group Group, ordered
// by (TS, ID) within the group.
type FxDeliver struct {
	Group   types.GroupID
	ID      string
	Origin  types.ProcID
	Payload string
	TS      uint64
}

func (FxSendData) mcEffect() {}
func (FxSendProp) mcEffect() {}
func (FxDeliver) mcEffect()  {}

// Outbox collects the effects of one macro-step, in emission order.
type Outbox struct{ Effects []Effect }

func (o *Outbox) add(fx Effect) { o.Effects = append(o.Effects, fx) }

// ErrBadEvent reports an event the coordinator cannot apply: a destination
// set that is empty, not canonical (sorted, deduplicated), or containing a
// group this node is not a member of, or a carrier group the node does not
// participate in. The shell drops such events and continues.
var ErrBadEvent = errors.New("mcastcore: malformed event")

func (n *Node) checkDests(dests []types.GroupID) error {
	if len(dests) == 0 {
		return ErrBadEvent
	}
	for i, g := range dests {
		if i > 0 && dests[i-1] >= g {
			return ErrBadEvent
		}
		if !types.ContainsGroup(n.groups, g) {
			return ErrBadEvent
		}
	}
	return nil
}

// Step applies one input event and then drains every enabled delivery: one
// atomic macro-step of the multicast coordinator. A non-nil error means
// the event was rejected and the node was left unchanged.
func Step(n *Node, ev Event, out *Outbox) error {
	switch e := ev.(type) {
	case EvSubmit:
		if err := n.checkDests(e.Dests); err != nil {
			return err
		}
		id := n.onSubmit()
		dests := append([]types.GroupID(nil), e.Dests...)
		for _, g := range dests {
			out.add(FxSendData{To: g, ID: id, Origin: n.p, Dests: dests, Payload: e.Payload})
		}
		// No group state changes until the data comes back through the
		// groups' total orders, so there is nothing to drain.
		return nil
	case EvData:
		if !types.ContainsGroup(n.groups, e.Group) {
			return ErrBadEvent
		}
		if err := n.checkDests(e.Dests); err != nil {
			return err
		}
		if !types.ContainsGroup(e.Dests, e.Group) {
			return ErrBadEvent
		}
		if n.onData(e.Group, e.ID, e.Origin, append([]types.GroupID(nil), e.Dests...), e.Payload) && n.p == e.Origin {
			ts := n.gs[e.Group].clock
			for _, g := range e.Dests {
				if g != e.Group {
					out.add(FxSendProp{To: g, PGroup: e.Group, ID: e.ID, TS: ts})
				}
			}
		}
		drain(n, e.Group, out)
		return nil
	case EvProposal:
		if !types.ContainsGroup(n.groups, e.Group) {
			return ErrBadEvent
		}
		n.onProposal(e.Group, e.PGroup, e.ID, e.TS)
		drain(n, e.Group, out)
		return nil
	}
	return ErrBadEvent
}

// drain delivers every message group g is now obliged to deliver, in
// (final timestamp, id) order, emitting one FxDeliver per message. Only
// the carrier group of the event can have become deliverable: all protocol
// state is per-group, so an event carried by g never changes another
// group's pending set.
func drain(n *Node, g types.GroupID, out *Outbox) {
	st := n.gs[g]
	for {
		pd := st.deliverable()
		if pd == nil {
			return
		}
		d := st.deliver(pd)
		out.add(FxDeliver{Group: g, ID: d.ID, Origin: d.Origin, Payload: d.Payload, TS: d.TS})
	}
}
