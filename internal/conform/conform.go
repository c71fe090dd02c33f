// Package conform is the trace-conformance harness that closes the loop
// between the machine-checked protocol cores and the live runtime.
//
// The runtime shells (internal/dvsg, internal/tob) drive the pure cores
// (internal/protocol/dvscore, internal/protocol/tocore) through an explicit
// input-event / output-effect interface, and every macro-step is observable:
// the shell hands the recorder the input event and the exact effect sequence
// the core emitted. Because shells run steps to completion, each recorded
// step saw a quiescent core, so a per-node log is a complete, deterministic
// account of that node's protocol state evolution — independent of the
// unverified layers below it (vsg, membership, transport, the network).
//
// Replay re-executes each log through the same core code and checks two
// things:
//
//   - Per-node determinism: the replayed effect sequence of every step must
//     equal the recorded one. A divergence means the core was influenced by
//     something outside its event stream (shared-state mutation, map
//     iteration nondeterminism, version skew between recorder and replayer).
//
//   - Global safety: the replayed final states form a consistent cut (logs
//     must be harvested after every node has stopped), over which the
//     paper's invariants are evaluated — 5.1–5.6 on the DVS implementation
//     cut, 4.1–4.2 on the abstracted DVS specification state, and 6.1–6.3
//     plus confirmed-prefix agreement on the TO cut. This is the refinement
//     check of the layers the exhaustive checker cannot reach: if vsg or
//     the transport violated view synchrony, the cores would be driven into
//     states the invariants reject.
package conform

import (
	"sync"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// DVSRecord is one macro-step of the VS-TO-DVS core: the input event and
// the effect sequence it emitted.
type DVSRecord struct {
	Ev dvscore.Event
	Fx []dvscore.Effect
}

// TORecord is one macro-step of the DVS-TO-TO core.
type TORecord struct {
	Ev tocore.Event
	Fx []tocore.Effect
}

// NodeLog is the complete protocol trace of one runtime node: the core
// construction parameters plus every macro-step of both layers, in
// execution order.
type NodeLog struct {
	P        types.ProcID
	Group    types.GroupID // DVS/TO group this stack belongs to (0 in single-group runs)
	Initial  types.View
	InP0     bool
	Register bool // REGISTER mechanism enabled (tob layer)
	GC       bool // eager garbage collection enabled (dvsg layer)
	Static   bool // static-primary filter (staticcore) instead of the DVS core
	DVS      []DVSRecord
	TO       []TORecord
}

// Recorder accumulates one node's log. Observe callbacks run on the node's
// event loop; Log may be called from any goroutine, but yields a consistent
// cut only after the node has stopped.
type Recorder struct {
	mu  sync.Mutex
	log NodeLog
}

// NewRecorder starts a log for the node with the given core construction
// parameters. g tags every step with the group whose stack this node runs
// (0 in single-group runs); a replayed log set must be group-homogeneous —
// each group's run is an independent total order, so sharded runs harvest
// one log set per group. static marks a node whose view filter is the
// static-primary core (staticcore) rather than the paper's DVS automaton;
// the replayer re-executes its DVS-layer records through that core instead.
func NewRecorder(p types.ProcID, g types.GroupID, initial types.View, inP0, register, gc, static bool) *Recorder {
	return &Recorder{log: NodeLog{
		P: p, Group: g, Initial: initial.Clone(), InP0: inP0, Register: register, GC: gc, Static: static,
	}}
}

// ObserveDVS records one VS-TO-DVS macro-step; it is installed as the dvsg
// layer's Observer. Events and effects are deep-copied: the runtime keeps
// mutating the views and messages they reference.
func (r *Recorder) ObserveDVS(ev dvscore.Event, fx []dvscore.Effect) {
	rec := cloneDVSRecord(ev, fx)
	r.mu.Lock()
	r.log.DVS = append(r.log.DVS, rec)
	r.mu.Unlock()
}

// ObserveTO records one DVS-TO-TO macro-step; it is installed as the tob
// layer's Observer.
func (r *Recorder) ObserveTO(ev tocore.Event, fx []tocore.Effect) {
	rec := cloneTORecord(ev, fx)
	r.mu.Lock()
	r.log.TO = append(r.log.TO, rec)
	r.mu.Unlock()
}

// Log returns a snapshot of the accumulated log. The records are shared
// with the recorder (they are never mutated after append), the slices are
// copied.
func (r *Recorder) Log() NodeLog {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.log
	out.DVS = append([]DVSRecord(nil), r.log.DVS...)
	out.TO = append([]TORecord(nil), r.log.TO...)
	return out
}

// cloneMsg deep-copies the mutable message types; the rest (ClientMsg,
// RegisteredMsg, LabelMsg and any test payloads) are immutable values.
// Batches are cloned recursively: the runtime reuses neither the slice nor
// the mutable members once handed down, but the recorder must not rely on
// that.
func cloneMsg(m types.Msg) types.Msg {
	switch mm := m.(type) {
	case dvscore.InfoMsg:
		return mm.Clone()
	case tocore.SummaryMsg:
		return tocore.SummaryMsg{X: mm.X.Clone()}
	case types.Batch:
		out := types.Batch{Msgs: make([]types.Msg, len(mm.Msgs))}
		for i, inner := range mm.Msgs {
			out.Msgs[i] = cloneMsg(inner)
		}
		return out
	default:
		return m
	}
}

// cloneDVSRecord deep-copies one observed macro-step for a consumer that
// keeps live structs (Recorder, OnlineChecker); the stream path encodes
// instead.
func cloneDVSRecord(ev dvscore.Event, fx []dvscore.Effect) DVSRecord {
	rec := DVSRecord{Ev: cloneDVSEvent(ev), Fx: make([]dvscore.Effect, len(fx))}
	for i, f := range fx {
		rec.Fx[i] = cloneDVSEffect(f)
	}
	return rec
}

func cloneTORecord(ev tocore.Event, fx []tocore.Effect) TORecord {
	rec := TORecord{Ev: cloneTOEvent(ev), Fx: make([]tocore.Effect, len(fx))}
	for i, f := range fx {
		rec.Fx[i] = cloneTOEffect(f)
	}
	return rec
}

func cloneDVSEvent(ev dvscore.Event) dvscore.Event {
	switch e := ev.(type) {
	case dvscore.EvVSNewView:
		return dvscore.EvVSNewView{View: e.View.Clone()}
	case dvscore.EvVSRecv:
		return dvscore.EvVSRecv{M: cloneMsg(e.M), From: e.From}
	case dvscore.EvVSSafe:
		return dvscore.EvVSSafe{M: cloneMsg(e.M), From: e.From}
	case dvscore.EvClientSend:
		return dvscore.EvClientSend{M: cloneMsg(e.M)}
	case dvscore.EvClientRegister:
		return e // no fields
	default:
		return ev
	}
}

func cloneDVSEffect(fx dvscore.Effect) dvscore.Effect {
	switch f := fx.(type) {
	case dvscore.FxSendVS:
		return dvscore.FxSendVS{M: cloneMsg(f.M)}
	case dvscore.FxDeliver:
		return dvscore.FxDeliver{M: cloneMsg(f.M), From: f.From}
	case dvscore.FxSafeInd:
		return dvscore.FxSafeInd{M: cloneMsg(f.M), From: f.From}
	case dvscore.FxNewPrimary:
		return dvscore.FxNewPrimary{View: f.View.Clone()}
	case dvscore.FxGC:
		return dvscore.FxGC{View: f.View.Clone()}
	default:
		return fx
	}
}

func cloneTOEvent(ev tocore.Event) tocore.Event {
	switch e := ev.(type) {
	case tocore.EvBroadcast:
		return e // payload is an immutable string
	case tocore.EvNewView:
		return tocore.EvNewView{View: e.View.Clone()}
	case tocore.EvRecv:
		return tocore.EvRecv{M: cloneMsg(e.M), From: e.From}
	case tocore.EvSafe:
		return tocore.EvSafe{M: cloneMsg(e.M), From: e.From}
	default:
		return ev
	}
}

func cloneTOEffect(fx tocore.Effect) tocore.Effect {
	switch f := fx.(type) {
	case tocore.FxLabel:
		return f // label + immutable payload, no references
	case tocore.FxSend:
		return tocore.FxSend{M: cloneMsg(f.M)}
	case tocore.FxConfirm:
		return f // no fields
	case tocore.FxDeliver:
		return f // label, origin, immutable payload
	case tocore.FxRegister:
		return tocore.FxRegister{View: f.View.Clone()}
	default:
		return fx
	}
}
