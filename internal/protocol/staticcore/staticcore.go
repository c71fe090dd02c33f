// Package staticcore is the pure protocol core of the static-primary
// baseline the paper argues against (Section 1): a filter with the same
// interface as the dynamic VS-TO-DVS automaton (internal/protocol/dvscore)
// that accepts a view as primary exactly when it contains a strict majority
// of the *static* universe P0 (or, more generally, a quorum of a fixed
// quorum system). No information exchange, registration, or garbage
// collection is needed — and none is possible: when the active population
// drifts away from P0, no primary can ever form again, which is precisely
// the availability gap experiment E4 measures.
//
// Like the other protocol cores, the package holds only the state machine:
// Node implements dvscore.Filter, so the runtime shell (internal/dvsg)
// drives it through dvscore.Step/Drain and consumes its effects through the
// Outbox — the same macro-step seam the corestep analyzer enforces — and the
// trace-conformance replayer (internal/conform) can re-execute recorded
// static runs through this exact code.
package staticcore

import (
	"fmt"

	"repro/internal/protocol/dvscore"
	"repro/internal/quorum"
	"repro/internal/types"
)

// Node is the static-primary filter state for one process.
type Node struct {
	p  types.ProcID
	qs quorum.System

	cur         types.View
	curOK       bool
	clientCur   types.View
	clientCurOK bool

	msgsToVS   map[types.ViewID][]types.Msg
	msgsFromVS map[types.ViewID][]dvscore.MsgFrom
	safeFromVS map[types.ViewID][]dvscore.MsgFrom
}

var _ dvscore.Filter = (*Node)(nil)

// NewNode builds the filter. qs decides primacy (typically
// quorum.Majority(P0)); inP0 states whether p belongs to the initial view.
func NewNode(p types.ProcID, initial types.View, inP0 bool, qs quorum.System) *Node {
	n := &Node{
		p:          p,
		qs:         qs,
		msgsToVS:   make(map[types.ViewID][]types.Msg),
		msgsFromVS: make(map[types.ViewID][]dvscore.MsgFrom),
		safeFromVS: make(map[types.ViewID][]dvscore.MsgFrom),
	}
	if inP0 {
		n.cur, n.curOK = initial.Clone(), true
		n.clientCur, n.clientCurOK = initial.Clone(), true
	}
	return n
}

// P returns the process id.
func (n *Node) P() types.ProcID { return n.p }

// OnVSNewView installs the view-synchronous view.
func (n *Node) OnVSNewView(v types.View) {
	n.cur, n.curOK = v.Clone(), true
}

// OnVSGpRcv buffers a client message received in the current view.
func (n *Node) OnVSGpRcv(m types.Msg, q types.ProcID) {
	if !n.curOK {
		return
	}
	n.msgsFromVS[n.cur.ID] = append(n.msgsFromVS[n.cur.ID], dvscore.MsgFrom{M: m, Q: q})
}

// OnVSSafe buffers a safe indication received in the current view.
func (n *Node) OnVSSafe(m types.Msg, q types.ProcID) {
	if !n.curOK || !types.IsClient(m) {
		return
	}
	n.safeFromVS[n.cur.ID] = append(n.safeFromVS[n.cur.ID], dvscore.MsgFrom{M: m, Q: q})
}

// OnDVSGpSnd enqueues a client message for the current primary view.
func (n *Node) OnDVSGpSnd(m types.Msg) {
	if !n.clientCurOK {
		return
	}
	g := n.clientCur.ID
	n.msgsToVS[g] = append(n.msgsToVS[g], m)
}

// OnDVSRegister is a no-op: static primaries need no registration.
func (n *Node) OnDVSRegister() {}

// VSGpSndHead returns the next message to submit to VS.
func (n *Node) VSGpSndHead() (types.Msg, bool) {
	if !n.curOK {
		return nil, false
	}
	q := n.msgsToVS[n.cur.ID]
	if len(q) == 0 {
		return nil, false
	}
	return q[0], true
}

// TakeVSGpSndHead removes the head of the outgoing queue.
func (n *Node) TakeVSGpSndHead(m types.Msg) error {
	head, ok := n.VSGpSndHead()
	if !ok || !head.EqualMsg(m) {
		return fmt.Errorf("staticcore vs-gpsnd(%s)_%s: not head", m.MsgKey(), n.p)
	}
	g := n.cur.ID
	n.msgsToVS[g] = n.msgsToVS[g][1:]
	return nil
}

// DVSNewViewEnabled reports whether the current view is a static primary
// not yet announced.
func (n *Node) DVSNewViewEnabled() (types.View, bool) {
	if !n.curOK {
		return types.View{}, false
	}
	v := n.cur
	if n.clientCurOK && !n.clientCur.ID.Less(v.ID) {
		return types.View{}, false
	}
	if !n.qs.IsQuorum(v.Members) {
		return types.View{}, false
	}
	return v.Clone(), true
}

// PerformDVSNewView announces the primary.
func (n *Node) PerformDVSNewView(v types.View) error {
	cand, ok := n.DVSNewViewEnabled()
	if !ok || !cand.Equal(v) {
		return fmt.Errorf("staticcore dvs-newview(%s)_%s: not enabled", v, n.p)
	}
	n.clientCur, n.clientCurOK = v.Clone(), true
	return nil
}

// DVSGpRcvHead returns the next client delivery.
func (n *Node) DVSGpRcvHead() (dvscore.MsgFrom, bool) {
	if !n.clientCurOK {
		return dvscore.MsgFrom{}, false
	}
	q := n.msgsFromVS[n.clientCur.ID]
	if len(q) == 0 {
		return dvscore.MsgFrom{}, false
	}
	return q[0], true
}

// TakeDVSGpRcvHead removes the next client delivery.
func (n *Node) TakeDVSGpRcvHead(e dvscore.MsgFrom) error {
	head, ok := n.DVSGpRcvHead()
	if !ok || !head.Equal(e) {
		return fmt.Errorf("staticcore dvs-gprcv_%s: not head", n.p)
	}
	g := n.clientCur.ID
	n.msgsFromVS[g] = n.msgsFromVS[g][1:]
	return nil
}

// DVSSafeHead returns the next safe indication.
func (n *Node) DVSSafeHead() (dvscore.MsgFrom, bool) {
	if !n.clientCurOK {
		return dvscore.MsgFrom{}, false
	}
	q := n.safeFromVS[n.clientCur.ID]
	if len(q) == 0 {
		return dvscore.MsgFrom{}, false
	}
	return q[0], true
}

// TakeDVSSafeHead removes the next safe indication.
func (n *Node) TakeDVSSafeHead(e dvscore.MsgFrom) error {
	head, ok := n.DVSSafeHead()
	if !ok || !head.Equal(e) {
		return fmt.Errorf("staticcore dvs-safe_%s: not head", n.p)
	}
	g := n.clientCur.ID
	n.safeFromVS[g] = n.safeFromVS[g][1:]
	return nil
}

// GCCandidates returns nothing: the static filter keeps no ambiguous views.
func (n *Node) GCCandidates() []types.View { return nil }

// PerformGC always fails: there is nothing to collect.
func (n *Node) PerformGC(v types.View) error {
	return fmt.Errorf("staticcore: no garbage collection")
}

// ClientCur returns the current primary view at the client; ok is false
// for ⊥.
func (n *Node) ClientCur() (types.View, bool) { return n.clientCur, n.clientCurOK }

// Amb returns nothing: the static filter has no ambiguous views.
func (n *Node) Amb() []types.View { return nil }

// Quorum reports whether s is accepted as primary-forming by this node's
// fixed quorum system; the conformance replayer uses it to check that every
// announced static primary really was a quorum of P0.
func (n *Node) Quorum(s types.ProcSet) bool { return n.qs.IsQuorum(s) }
