// Package dvscore is the deterministic, side-effect-free protocol core of
// the paper's primary contribution: the VS-TO-DVS_p automaton of Figure 3 as
// a pure state machine. The same code is driven by two consumers — the
// exhaustive checker (Impl, in this package, composes it with the VS
// specification into DVS-IMPL and explores it against Invariants 5.1–5.6 and
// the Figure 4 refinement) and the live runtime (internal/dvsg translates
// view-synchronous upcalls into Events and applies the Effects that Step
// emits). There is no second hand-written implementation: what the checker
// verifies is what runs over TCP.
//
// The fine-grained transitions (one per Figure 3 action) are unexported:
// the paper defines DVS-IMPL as a composition of these automata, so the
// composition lives here and fires them one at a time, where every
// interleaving matters, and everything outside the package drives a node
// through Step — one input event, then the drain policy over the Filter
// interface, emitting Effects into an Outbox. What is exported on Node is
// the read-only accessor roster (pinned by TestExportedSurface), Impl with
// its environments and the Refinement of Figure 4, and the System invariant
// formulas 5.1–5.6 shared by the model checker and the trace-conformance
// replayer (internal/conform).
package dvscore

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// Info is a ⟨act, amb⟩ pair as recorded in info-sent and info-rcvd.
type Info struct {
	Act types.View
	Amb []types.View // sorted by id
}

func (i Info) clone() Info {
	cp := make([]types.View, 0, len(i.Amb))
	for _, v := range i.Amb {
		cp = append(cp, v.Clone())
	}
	return Info{Act: i.Act.Clone(), Amb: cp}
}

type procViewKey struct {
	Q types.ProcID
	G types.ViewID
}

// MsgFrom is a ⟨m, q⟩ pair buffered in msgs-from-vs / safe-from-vs.
type MsgFrom struct {
	M types.Msg
	Q types.ProcID
}

// Equal reports whether e and o are the same ⟨m, q⟩ pair.
func (e MsgFrom) Equal(o MsgFrom) bool { return e.Q == o.Q && e.M.EqualMsg(o.M) }

// Node is the state of the VS-TO-DVS_p automaton of Figure 3 for one
// process p. It is not a standalone ioa.Automaton: its vs-* actions
// synchronize with the VS automaton inside the Impl composition.
type Node struct {
	p types.ProcID

	cur         types.View // meaningful iff curOK
	curOK       bool
	clientCur   types.View // meaningful iff clientCurOK
	clientCurOK bool
	act         types.View
	amb         map[types.ViewID]types.View
	attempted   map[types.ViewID]types.View // history variable (for proofs)
	infoRcvd    map[procViewKey]Info
	rcvdRgst    map[types.ViewID]types.ProcSet
	msgsToVS    map[types.ViewID][]types.Msg
	msgsFromVS  map[types.ViewID][]MsgFrom
	safeFromVS  map[types.ViewID][]MsgFrom
	reg         map[types.ViewID]bool
	infoSent    map[types.ViewID]Info
}

// NewNode returns VS-TO-DVS_p in its initial state. initial is v0; inP0
// states whether p ∈ P0.
func NewNode(p types.ProcID, initial types.View, inP0 bool) *Node {
	n := &Node{
		p:          p,
		act:        initial.Clone(),
		amb:        make(map[types.ViewID]types.View),
		attempted:  make(map[types.ViewID]types.View),
		infoRcvd:   make(map[procViewKey]Info),
		rcvdRgst:   make(map[types.ViewID]types.ProcSet),
		msgsToVS:   make(map[types.ViewID][]types.Msg),
		msgsFromVS: make(map[types.ViewID][]MsgFrom),
		safeFromVS: make(map[types.ViewID][]MsgFrom),
		reg:        make(map[types.ViewID]bool),
		infoSent:   make(map[types.ViewID]Info),
	}
	if inP0 {
		n.cur, n.curOK = initial.Clone(), true
		n.clientCur, n.clientCurOK = initial.Clone(), true
		n.attempted[initial.ID] = initial.Clone()
		n.reg[initial.ID] = true
	}
	return n
}

// P returns the process id.
func (n *Node) P() types.ProcID { return n.p }

// Cur returns cur; ok is false for ⊥.
func (n *Node) Cur() (types.View, bool) { return n.cur, n.curOK }

// ClientCur returns client-cur; ok is false for ⊥.
func (n *Node) ClientCur() (types.View, bool) { return n.clientCur, n.clientCurOK }

// Act returns the active view act.
func (n *Node) Act() types.View { return n.act.Clone() }

// Amb returns the ambiguous views, sorted by id.
func (n *Node) Amb() []types.View { return sortedViews(n.amb) }

// Attempted returns the history variable attempted_p, sorted by id.
func (n *Node) Attempted() []types.View { return sortedViews(n.attempted) }

// AttemptedShared returns attempted_p sorted by id without cloning
// memberships; the views are read-only. The per-step abstraction function
// uses it: its output is deep-copied by dvs.FromState anyway.
func (n *Node) AttemptedShared() []types.View {
	out := make([]types.View, 0, len(n.attempted))
	for _, v := range n.attempted {
		out = append(out, v)
	}
	types.SortViews(out)
	return out
}

// inUse reports whether a view with the given id is in use = {act} ∪ amb.
func (n *Node) inUse(id types.ViewID) bool {
	if id == n.act.ID {
		return true
	}
	_, ok := n.amb[id]
	return ok
}

// HasAttempted reports whether a view with the given id is in attempted_p.
func (n *Node) HasAttempted(g types.ViewID) bool {
	_, ok := n.attempted[g]
	return ok
}

// Reg reports reg[g]_p.
func (n *Node) Reg(g types.ViewID) bool { return n.reg[g] }

// RegisteredIDs returns the ids g with reg[g]_p, sorted. The conformance
// replayer uses it to rebuild the DVS-level registered sets.
func (n *Node) RegisteredIDs() []types.ViewID {
	out := make([]types.ViewID, 0, len(n.reg))
	for g, b := range n.reg {
		if b {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func sortedViews(m map[types.ViewID]types.View) []types.View {
	out := make([]types.View, 0, len(m))
	for _, v := range m {
		out = append(out, v.Clone())
	}
	types.SortViews(out)
	return out
}

// --- Input handlers (effects of Figure 3 input actions) ---

// onVSNewView handles input vs-newview(v)_p: install cur := v and enqueue an
// ⟨"info", act, amb⟩ message for the new view.
//
// Installs that do not advance cur are ignored. The VS specification
// delivers strictly monotone views per process, so in the checked
// composition this guard never fires; at runtime it absorbs the bootstrap
// re-delivery of the initial view (already reflected in the core's initial
// state) and keeps a faulty view-synchronous layer from driving the core
// outside the state space the invariants were verified on.
func (n *Node) onVSNewView(v types.View) {
	if n.curOK && !n.cur.ID.Less(v.ID) {
		return
	}
	n.cur, n.curOK = v.Clone(), true
	info := Info{Act: n.act.Clone(), Amb: sortedViews(n.amb)}
	n.msgsToVS[v.ID] = append(n.msgsToVS[v.ID], NewInfoMsg(info.Act, info.Amb))
	n.infoSent[v.ID] = info
}

// onVSGpRcv handles input vs-gprcv(m)_{q,p} by case analysis on m.
func (n *Node) onVSGpRcv(m types.Msg, q types.ProcID) {
	switch msg := m.(type) {
	case InfoMsg:
		if !n.curOK {
			return // unreachable: VS only delivers within a current view
		}
		n.infoRcvd[procViewKey{q, n.cur.ID}] = Info{Act: msg.Act.Clone(), Amb: types.CloneSeq(msg.Amb)}
		if n.act.ID.Less(msg.Act.ID) {
			n.act = msg.Act.Clone()
		}
		// amb := {w ∈ amb ∪ V | w.id > act.id}
		for _, w := range msg.Amb {
			if n.act.ID.Less(w.ID) {
				n.amb[w.ID] = w.Clone()
			}
		}
		for id := range n.amb {
			if !n.act.ID.Less(id) {
				delete(n.amb, id)
			}
		}
	case RegisteredMsg:
		if !n.curOK {
			return
		}
		set, ok := n.rcvdRgst[n.cur.ID]
		if !ok {
			set = types.NewProcSet()
			n.rcvdRgst[n.cur.ID] = set
		}
		set.Add(q)
	default:
		if !n.curOK {
			return
		}
		n.msgsFromVS[n.cur.ID] = append(n.msgsFromVS[n.cur.ID], MsgFrom{M: m, Q: q})
	}
}

// onVSSafe handles input vs-safe(m)_{q,p}: client messages are buffered for
// dvs-safe delivery; "info" and "registered" safety indications have no
// effect (Figure 3).
func (n *Node) onVSSafe(m types.Msg, q types.ProcID) {
	if !types.IsClient(m) {
		return
	}
	if !n.curOK {
		return
	}
	n.safeFromVS[n.cur.ID] = append(n.safeFromVS[n.cur.ID], MsgFrom{M: m, Q: q})
}

// onDVSGpSnd handles input dvs-gpsnd(m)_p.
func (n *Node) onDVSGpSnd(m types.Msg) {
	if !n.clientCurOK {
		return
	}
	g := n.clientCur.ID
	n.msgsToVS[g] = append(n.msgsToVS[g], m)
}

// onDVSRegister handles input dvs-register_p.
func (n *Node) onDVSRegister() {
	if !n.clientCurOK {
		return
	}
	g := n.clientCur.ID
	n.reg[g] = true
	n.msgsToVS[g] = append(n.msgsToVS[g], RegisteredMsg{})
}

// --- Locally controlled actions ---
//
// Each guarded output is split in two: the enabling condition (a head, or
// dvsNewViewEnabled) and the unguarded effect (pop*, dvsNewView). drain
// applies an effect right after the guard it has just evaluated; Impl.Perform,
// which is handed an action by name, goes through the validating forms in
// impl.go (takeVSGpSnd, …), which are guard plus the same effect.

// vsGpSndHead returns the head of msgs-to-vs[cur.id], if any: the message a
// vs-gpsnd(m)_p output would submit to VS.
func (n *Node) vsGpSndHead() (types.Msg, bool) {
	if !n.curOK {
		return nil, false
	}
	return headOf(n.msgsToVS, n.cur.ID)
}

// popVSGpSnd removes the head of msgs-to-vs[cur.id].
func (n *Node) popVSGpSnd() { popHead(n.msgsToVS, n.cur.ID) }

// dvsNewViewEnabled reports whether output dvs-newview(v)_p is enabled for
// v = cur (Figure 3): v.id > client-cur.id, info received from every other
// member of v, and v majority-intersects every view in use.
func (n *Node) dvsNewViewEnabled() (types.View, bool) {
	if !n.curOK {
		return types.View{}, false
	}
	v := n.cur
	if n.clientCurOK && !n.clientCur.ID.Less(v.ID) {
		return types.View{}, false
	}
	for q := range v.Members {
		if q == n.p {
			continue
		}
		if _, ok := n.infoRcvd[procViewKey{q, v.ID}]; !ok {
			return types.View{}, false
		}
	}
	if !v.Members.MajorityOf(n.act.Members) {
		return types.View{}, false
	}
	for _, w := range n.amb {
		if !v.Members.MajorityOf(w.Members) {
			return types.View{}, false
		}
	}
	return v.Clone(), true
}

// dvsNewView applies the effect of dvs-newview(v)_p.
func (n *Node) dvsNewView(v types.View) {
	n.amb[v.ID] = v.Clone()
	n.attempted[v.ID] = v.Clone()
	n.clientCur, n.clientCurOK = v.Clone(), true
}

// dvsGpRcvHead returns the head of msgs-from-vs[client-cur.id], if any.
func (n *Node) dvsGpRcvHead() (MsgFrom, bool) {
	if !n.clientCurOK {
		return MsgFrom{}, false
	}
	return headOf(n.msgsFromVS, n.clientCur.ID)
}

// popDVSGpRcv removes the head of msgs-from-vs[client-cur.id].
func (n *Node) popDVSGpRcv() { popHead(n.msgsFromVS, n.clientCur.ID) }

// dvsSafeHead returns the head of safe-from-vs[client-cur.id], if any.
func (n *Node) dvsSafeHead() (MsgFrom, bool) {
	if !n.clientCurOK {
		return MsgFrom{}, false
	}
	return headOf(n.safeFromVS, n.clientCur.ID)
}

// popDVSSafe removes the head of safe-from-vs[client-cur.id].
func (n *Node) popDVSSafe() { popHead(n.safeFromVS, n.clientCur.ID) }

// headOf returns the head of the per-view queue qs[g], if any.
func headOf[E any](qs map[types.ViewID][]E, g types.ViewID) (head E, ok bool) {
	if q := qs[g]; len(q) > 0 {
		return q[0], true
	}
	return head, false
}

// popHead removes the head of the non-empty queue qs[g]; an emptied queue
// leaves the map, so that equal states have equal maps.
func popHead[E any](qs map[types.ViewID][]E, g types.ViewID) {
	if qs[g] = qs[g][1:]; len(qs[g]) == 0 {
		delete(qs, g)
	}
}

// gcCandidates returns the views v for which dvs-garbage-collect(v)_p is
// enabled: p has received "registered" messages from every member of v in
// view v.id, and v.id > act.id. Candidates are drawn from the views p
// knows (amb and cur), sorted by id.
func (n *Node) gcCandidates() []types.View {
	var cands []types.View
	consider := func(v types.View) {
		if !n.act.ID.Less(v.ID) {
			return
		}
		set, ok := n.rcvdRgst[v.ID]
		if !ok || !v.Members.Subset(set) {
			return
		}
		cands = append(cands, v.Clone())
	}
	for _, v := range sortedViews(n.amb) {
		consider(v)
	}
	if n.curOK {
		if _, inAmb := n.amb[n.cur.ID]; !inAmb {
			consider(n.cur)
		}
	}
	types.SortViews(cands)
	return cands
}

// performGC applies dvs-garbage-collect(v)_p: act := v and ambiguous views
// with ids ≤ v.id are discarded. Unlike the other outputs it keeps its own
// guard: one collection changes act under the remaining candidates drain
// has already listed.
func (n *Node) performGC(v types.View) error {
	enabled := false
	for _, c := range n.gcCandidates() {
		if c.Equal(v) {
			enabled = true
			break
		}
	}
	if !enabled {
		return fmt.Errorf("dvs-garbage-collect(%s)_%s: not enabled", v, n.p)
	}
	n.act = v.Clone()
	for id := range n.amb {
		if !n.act.ID.Less(id) {
			delete(n.amb, id)
		}
	}
	return nil
}

// Clone returns an independent deep copy of the node.
func (n *Node) Clone() *Node {
	c := &Node{
		p:           n.p,
		cur:         n.cur.Clone(),
		curOK:       n.curOK,
		clientCur:   n.clientCur.Clone(),
		clientCurOK: n.clientCurOK,
		act:         n.act.Clone(),
		amb:         make(map[types.ViewID]types.View, len(n.amb)),
		attempted:   make(map[types.ViewID]types.View, len(n.attempted)),
		infoRcvd:    make(map[procViewKey]Info, len(n.infoRcvd)),
		rcvdRgst:    make(map[types.ViewID]types.ProcSet, len(n.rcvdRgst)),
		msgsToVS:    make(map[types.ViewID][]types.Msg, len(n.msgsToVS)),
		msgsFromVS:  make(map[types.ViewID][]MsgFrom, len(n.msgsFromVS)),
		safeFromVS:  make(map[types.ViewID][]MsgFrom, len(n.safeFromVS)),
		reg:         make(map[types.ViewID]bool, len(n.reg)),
		infoSent:    make(map[types.ViewID]Info, len(n.infoSent)),
	}
	for id, v := range n.amb {
		c.amb[id] = v.Clone()
	}
	for id, v := range n.attempted {
		c.attempted[id] = v.Clone()
	}
	for k, i := range n.infoRcvd {
		c.infoRcvd[k] = i.clone()
	}
	for g, s := range n.rcvdRgst {
		c.rcvdRgst[g] = s.Clone()
	}
	for g, q := range n.msgsToVS {
		c.msgsToVS[g] = types.CloneSeq(q)
	}
	for g, q := range n.msgsFromVS {
		c.msgsFromVS[g] = types.CloneSeq(q)
	}
	for g, q := range n.safeFromVS {
		c.safeFromVS[g] = types.CloneSeq(q)
	}
	for g, b := range n.reg {
		c.reg[g] = b
	}
	for g, i := range n.infoSent {
		c.infoSent[g] = i.clone()
	}
	return c
}
