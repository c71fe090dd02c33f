// Package member provides the membership substrate of the runtime stack: a
// heartbeat failure detector and a leader-driven view agreement protocol.
// Both are pure state machines driven by a single per-node event loop (see
// internal/vsg); they never spawn goroutines or touch the network directly —
// they return the messages to send.
//
// The agreement protocol is deliberately simple: the minimum-id process in a
// node's perceived component proposes a view with a fresh identifier
// (seq, leader) greater than every identifier it has seen; members accept
// proposals with increasing identifiers; once every member has accepted, the
// leader instructs installation. Nodes install views in strictly increasing
// identifier order (Local View Identifier Monotony) and only views
// containing themselves (Self Inclusion). Transient disagreement between
// components is tolerated by the layers above: the view-synchronous layer
// tags every message with its view identifier, and the dynamic-primary
// filter (VS-TO-DVS) decides which views may act as primaries.
package member

import (
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// Wire messages of the membership layer.
type (
	// Heartbeat announces liveness.
	Heartbeat struct{}
	// Propose asks the recipients to accept a new view.
	Propose struct{ View types.View }
	// Accept acknowledges a proposal.
	Accept struct{ ViewID types.ViewID }
	// Install instructs the recipients to install an accepted view.
	Install struct{ View types.View }
)

// The wire messages as TCP payloads (net.WirePayload), tags 0x88–0x8B.
func (Heartbeat) WireTag() byte { return 0x88 }
func (Propose) WireTag() byte   { return 0x89 }
func (Accept) WireTag() byte    { return 0x8A }
func (Install) WireTag() byte   { return 0x8B }

func (Heartbeat) AppendWire(b []byte, _ int) ([]byte, error) { return b, nil }
func (m Propose) AppendWire(b []byte, _ int) ([]byte, error) { return wire.AppendView(b, m.View), nil }
func (m Accept) AppendWire(b []byte, _ int) ([]byte, error) {
	return wire.AppendViewID(b, m.ViewID), nil
}
func (m Install) AppendWire(b []byte, _ int) ([]byte, error) { return wire.AppendView(b, m.View), nil }

func (Heartbeat) ReadWire(*wire.Reader, int) any   { return Heartbeat{} }
func (Propose) ReadWire(r *wire.Reader, _ int) any { return Propose{View: r.View()} }
func (Accept) ReadWire(r *wire.Reader, _ int) any  { return Accept{ViewID: r.ViewID()} }
func (Install) ReadWire(r *wire.Reader, _ int) any { return Install{View: r.View()} }

// Send is an outgoing unicast request produced by the state machines.
type Send struct {
	To      types.ProcID
	Payload any
}

// Detector is a heartbeat failure detector.
type Detector struct {
	self     types.ProcID
	timeout  time.Duration
	lastSeen map[types.ProcID]time.Time
}

// NewDetector builds a detector that suspects a process after timeout
// without a heartbeat.
func NewDetector(self types.ProcID, universe types.ProcSet, timeout time.Duration, now time.Time) *Detector {
	d := &Detector{
		self:     self,
		timeout:  timeout,
		lastSeen: make(map[types.ProcID]time.Time, universe.Len()),
	}
	for p := universe.First(); p >= 0; p = universe.Next(p) {
		d.lastSeen[p] = now
	}
	return d
}

// Observe records a heartbeat (or any message) from q. A q outside the
// universe the detector was built with is ignored: it must never show up in
// Alive, where Agreement would propose it into views nobody can accept.
func (d *Detector) Observe(q types.ProcID, now time.Time) {
	if _, known := d.lastSeen[q]; known {
		d.lastSeen[q] = now
	}
}

// Alive returns the set of processes not currently suspected. It always
// contains the local process.
func (d *Detector) Alive(now time.Time) types.ProcSet {
	out := types.NewProcSet(d.self)
	for p, seen := range d.lastSeen {
		if now.Sub(seen) <= d.timeout {
			out = out.With(p)
		}
	}
	return out
}

// Agreement is the leader-driven view agreement state machine of one node.
type Agreement struct {
	self    types.ProcID
	current types.View
	hasView bool

	maxSeq uint64 // highest view sequence number seen anywhere

	// Leader proposal state.
	proposing   bool
	proposal    types.View
	accepted    types.ProcSet
	deadline    time.Time
	retryPeriod time.Duration

	// Stability: last observed alive set, to avoid proposing on flapping
	// membership.
	lastAlive types.ProcSet
}

// NewAgreement builds the agreement machine. If the node belongs to the
// initial view, that view is pre-installed.
func NewAgreement(self types.ProcID, initial types.View, retry time.Duration) *Agreement {
	a := &Agreement{
		self:        self,
		retryPeriod: retry,
		lastAlive:   types.NewProcSet(),
	}
	if initial.Contains(self) {
		a.current = initial
		a.hasView = true
	}
	a.maxSeq = initial.ID.Seq
	return a
}

// Current returns the installed view; ok is false if none.
func (a *Agreement) Current() (types.View, bool) { return a.current, a.hasView }

// observeID folds a remotely seen view identifier into maxSeq.
func (a *Agreement) observeID(id types.ViewID) {
	if id.Seq > a.maxSeq {
		a.maxSeq = id.Seq
	}
}

// Tick drives proposals. alive is the detector's current estimate. The
// returned sends carry Propose or Install payloads; installed is non-nil
// when the local node installs a view during this tick.
func (a *Agreement) Tick(now time.Time, alive types.ProcSet) (sends []Send, installed *types.View) {
	stable := alive == a.lastAlive
	a.lastAlive = alive

	// Complete an outstanding proposal.
	if a.proposing {
		if a.proposal.Members.Subset(a.accepted) {
			v := a.proposal
			a.proposing = false
			for _, q := range v.Members.Sorted() {
				if q != a.self {
					sends = append(sends, Send{To: q, Payload: Install{View: v}})
				}
			}
			if inst := a.install(v); inst != nil {
				installed = inst
			}
			return sends, installed
		}
		if now.Before(a.deadline) {
			return nil, nil
		}
		a.proposing = false // timed out; fall through and maybe re-propose
	}

	// Propose only if: the perceived component differs from the current
	// view, the estimate is stable, and we are its leader.
	if !stable || alive.Len() == 0 {
		return nil, nil
	}
	// Re-propose when the perceived component differs from the current view,
	// or when a strictly newer view identifier has been observed anywhere: a
	// member that transiently suspected everyone installs a singleton view
	// with a higher sequence number, and monotony then blocks it from ever
	// rejoining a view it already overtook. Its gossip carries the higher
	// identifier back to the leader, and only a fresh proposal with a yet
	// higher identifier can reunite the component.
	if a.hasView && a.current.Members == alive && a.maxSeq == a.current.ID.Seq {
		return nil, nil
	}
	if alive.First() != a.self {
		return nil, nil
	}
	a.maxSeq++
	a.proposal = types.View{ID: types.ViewID{Seq: a.maxSeq, Origin: a.self}, Members: alive}
	a.proposing = true
	a.accepted = types.NewProcSet(a.self)
	a.deadline = now.Add(a.retryPeriod)
	for _, q := range alive.Sorted() {
		if q != a.self {
			sends = append(sends, Send{To: q, Payload: Propose{View: a.proposal}})
		}
	}
	return sends, nil
}

// OnPropose handles a Propose message.
func (a *Agreement) OnPropose(from types.ProcID, v types.View) []Send {
	a.observeID(v.ID)
	if !v.Contains(a.self) {
		return nil
	}
	if a.hasView && !a.current.ID.Less(v.ID) {
		return nil
	}
	return []Send{{To: from, Payload: Accept{ViewID: v.ID}}}
}

// OnAccept handles an Accept message.
func (a *Agreement) OnAccept(from types.ProcID, id types.ViewID) {
	a.observeID(id)
	if a.proposing && a.proposal.ID == id && a.proposal.Contains(from) {
		a.accepted = a.accepted.With(from)
	}
}

// OnInstall handles an Install message; the result is non-nil if the local
// node installs the view.
func (a *Agreement) OnInstall(v types.View) *types.View {
	a.observeID(v.ID)
	return a.install(v)
}

func (a *Agreement) install(v types.View) *types.View {
	if !v.Contains(a.self) {
		return nil
	}
	if a.hasView && !a.current.ID.Less(v.ID) {
		return nil
	}
	a.current = v
	a.hasView = true
	out := v
	return &out
}
