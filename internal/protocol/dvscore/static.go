package dvscore

import (
	"fmt"

	"repro/internal/types"
)

// StaticNode is the static-primary baseline the paper argues against
// (Section 1), as the second implementation of Filter: it accepts a view as
// primary exactly when it contains a strict majority of the *static*
// universe P0. No information exchange, registration, or garbage
// collection is needed — and none is possible: when the active population
// drifts away from P0, no primary can ever form again, which is precisely
// the availability gap experiment E4 measures.
//
// It lives beside Node because Filter's transitions are unexported: the
// runtime shell (internal/dvsg) drives it through Step and consumes its
// effects through the Outbox like the dynamic filter, and the
// trace-conformance replayer (internal/conform) re-executes recorded static
// runs through this exact code.
type StaticNode struct {
	p  types.ProcID
	p0 types.ProcSet

	cur         types.View
	curOK       bool
	clientCur   types.View
	clientCurOK bool

	msgsToVS   map[types.ViewID][]types.Msg
	msgsFromVS map[types.ViewID][]MsgFrom
	safeFromVS map[types.ViewID][]MsgFrom
}

// NewStaticNode builds the filter over P0 = initial.Members; inP0 states
// whether p belongs to the initial view.
func NewStaticNode(p types.ProcID, initial types.View, inP0 bool) *StaticNode {
	n := &StaticNode{
		p:          p,
		p0:         initial.Members,
		msgsToVS:   make(map[types.ViewID][]types.Msg),
		msgsFromVS: make(map[types.ViewID][]MsgFrom),
		safeFromVS: make(map[types.ViewID][]MsgFrom),
	}
	if inP0 {
		n.cur, n.curOK = initial, true
		n.clientCur, n.clientCurOK = initial, true
	}
	return n
}

// P returns the process id.
func (n *StaticNode) P() types.ProcID { return n.p }

// onVSNewView installs the view-synchronous view.
func (n *StaticNode) onVSNewView(v types.View) {
	n.cur, n.curOK = v, true
}

// onVSGpRcv buffers a client message received in the current view.
func (n *StaticNode) onVSGpRcv(m types.Msg, q types.ProcID) {
	if !n.curOK {
		return
	}
	n.msgsFromVS[n.cur.ID] = append(n.msgsFromVS[n.cur.ID], MsgFrom{M: m, Q: q})
}

// onVSSafe buffers a safe indication received in the current view.
func (n *StaticNode) onVSSafe(m types.Msg, q types.ProcID) {
	if !n.curOK || !types.IsClient(m) {
		return
	}
	n.safeFromVS[n.cur.ID] = append(n.safeFromVS[n.cur.ID], MsgFrom{M: m, Q: q})
}

// onDVSGpSnd enqueues a client message for the current primary view.
func (n *StaticNode) onDVSGpSnd(m types.Msg) {
	if !n.clientCurOK {
		return
	}
	g := n.clientCur.ID
	n.msgsToVS[g] = append(n.msgsToVS[g], m)
}

// onDVSRegister is a no-op: static primaries need no registration.
func (n *StaticNode) onDVSRegister() {}

// vsGpSndHead returns the next message to submit to VS.
func (n *StaticNode) vsGpSndHead() (types.Msg, bool) {
	if !n.curOK {
		return nil, false
	}
	return headOf(n.msgsToVS, n.cur.ID)
}

// popVSGpSnd removes the head of the outgoing queue.
func (n *StaticNode) popVSGpSnd() { popHead(n.msgsToVS, n.cur.ID) }

// dvsNewViewEnabled reports whether the current view is a static primary
// not yet announced.
func (n *StaticNode) dvsNewViewEnabled() (types.View, bool) {
	if !n.curOK {
		return types.View{}, false
	}
	v := n.cur
	if n.clientCurOK && !n.clientCur.ID.Less(v.ID) {
		return types.View{}, false
	}
	if !n.Quorum(v.Members) {
		return types.View{}, false
	}
	return v, true
}

// dvsNewView announces the primary.
func (n *StaticNode) dvsNewView(v types.View) {
	n.clientCur, n.clientCurOK = v, true
}

// dvsGpRcvHead returns the next client delivery.
func (n *StaticNode) dvsGpRcvHead() (MsgFrom, bool) {
	if !n.clientCurOK {
		return MsgFrom{}, false
	}
	return headOf(n.msgsFromVS, n.clientCur.ID)
}

// popDVSGpRcv removes the next client delivery.
func (n *StaticNode) popDVSGpRcv() { popHead(n.msgsFromVS, n.clientCur.ID) }

// dvsSafeHead returns the next safe indication.
func (n *StaticNode) dvsSafeHead() (MsgFrom, bool) {
	if !n.clientCurOK {
		return MsgFrom{}, false
	}
	return headOf(n.safeFromVS, n.clientCur.ID)
}

// popDVSSafe removes the next safe indication.
func (n *StaticNode) popDVSSafe() { popHead(n.safeFromVS, n.clientCur.ID) }

// gcCandidates returns nothing: the static filter keeps no ambiguous views.
func (n *StaticNode) gcCandidates() []types.View { return nil }

// performGC always fails: there is nothing to collect.
func (n *StaticNode) performGC(v types.View) error {
	return fmt.Errorf("static dvs-garbage-collect(%s)_%s: no garbage collection", v, n.p)
}

// ClientCur returns the current primary view at the client; ok is false
// for ⊥.
func (n *StaticNode) ClientCur() (types.View, bool) { return n.clientCur, n.clientCurOK }

// Amb returns nothing: the static filter has no ambiguous views.
func (n *StaticNode) Amb() []types.View { return nil }

// Quorum reports whether s holds a strict majority of P0; the conformance
// replayer uses it to check that every announced static primary really was
// one.
func (n *StaticNode) Quorum(s types.ProcSet) bool { return s.MajorityOf(n.p0) }
