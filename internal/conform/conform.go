// Package conform is the trace-conformance harness that closes the loop
// between the machine-checked protocol cores and the live runtime.
//
// The runtime shells (internal/dvsg, internal/tob, internal/mcast) drive the
// pure cores (internal/protocol/dvscore, tocore, mcastcore) through an
// explicit input-event / output-effect interface, and every macro-step is
// observable: the shell hands the recorder the input event and the exact
// effect sequence the core emitted. Because shells run steps to completion,
// each recorded step saw a quiescent core, so a per-node log is a complete,
// deterministic account of that node's protocol state evolution —
// independent of the unverified layers below it (vsg, membership, transport,
// the network).
//
// There is one pipeline. A record is encoded at the observation point
// (wire.go) and exists as bytes from then on; the one recorder
// (StreamRecorder, stream.go) spills the bytes to a chunked, crash-safe
// trace directory; the one replay engine (replay.go) re-executes decoded
// windows of records through the same core code and checks two things:
//
//   - Per-node determinism: the replayed effect sequence of every step must
//     equal the recorded one. A divergence means the core was influenced by
//     something outside its event stream (shared-state mutation, map
//     iteration nondeterminism, version skew between recorder and replayer).
//
//   - Global safety: the replayed states at a quiescent boundary form a
//     consistent cut, over which the paper's invariants are evaluated —
//     5.1–5.6 on the DVS implementation cut, 4.1–4.2 on the abstracted DVS
//     specification state, 6.1–6.3 plus confirmed-prefix agreement on the TO
//     cut, and the four multicast safety checks on the coordinators'
//     delivery histories. This is the refinement check of the layers the
//     exhaustive checker cannot reach: if vsg or the transport violated view
//     synchrony, the cores would be driven into states the invariants
//     reject.
//
// ReplayStream feeds the engine a trace directory chunk by chunk, Replay a
// decoded log set as one window, ReplaySharded loops ReplayStream over the
// streams of a sharded run, and a recorder with no directory (NewOnlineChecker)
// has its writer feed it each chunk as the run cuts it.
package conform

import (
	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// Record is one macro-step of a protocol core: the input event and the
// effect sequence it emitted. On the recording side a record exists only as
// its wire.go encoding, written at the observation point; this struct is
// what the decoder hands the replay engine (and tests that tamper with a
// trace).
type Record[E, F any] struct {
	Ev E
	Fx []F
}

// The three recorded layers: the VS-TO-DVS core (dvscore.Node, or
// dvscore.StaticNode in static mode), the DVS-TO-TO core, and the
// cross-group multicast core.
type (
	DVSRecord   = Record[dvscore.Event, dvscore.Effect]
	TORecord    = Record[tocore.Event, tocore.Effect]
	McastRecord = Record[mcastcore.Event, mcastcore.Effect]
)

// Layer indices, in chunk order.
const (
	layerDVS = iota
	layerTO
	layerMcast
	numLayers
)

// NodeMeta carries one node's core construction parameters; the stream
// header holds one per registered node. A node is either a protocol stack
// (DVS and TO layers) or, with McastGroups set, a multicast coordinator
// (mcast layer only, the stack fields unused).
type NodeMeta struct {
	P        types.ProcID
	Group    types.GroupID // DVS/TO group this stack belongs to (0 in single-group runs)
	Initial  types.View
	InP0     bool
	Register bool // REGISTER mechanism enabled (tob layer)
	GC       bool // eager garbage collection enabled (dvsg layer)
	Static   bool // static-primary filter (dvscore.StaticNode) instead of the DVS core
	// McastGroups, when non-nil, makes this node a multicast coordinator over
	// these groups.
	McastGroups []types.GroupID
}

// NodeLog is the decoded protocol trace of one node: the core construction
// parameters plus every macro-step of its layers, in execution order. See
// ReadStream.
type NodeLog struct {
	NodeMeta
	DVS   []DVSRecord
	TO    []TORecord
	Mcast []McastRecord
}
