// Package to implements the totally-ordered-broadcast service specification
// TO used in Section 6 of the paper (defined in Fekete, Lynch, Shvartsman,
// PODC'97, cited as [12]): clients broadcast messages with bcast(a)_p; the
// service places them into a single system-wide queue; each client receives
// a gap-free prefix of that queue via brcv(a)_{q,p} (q is the originator).
//
// The package provides both the executable specification automaton and a
// greedy trace Monitor. The monitor is sound and complete for TO: the only
// nondeterminism in TO is the order in which pending messages are appended
// to the single shared queue, and since the queue is append-only and common
// to all receivers, resolving an append exactly when the first receiver
// needs it accepts precisely the traces of TO.
package to

import (
	"fmt"
	"maps"

	"repro/internal/ioa"
	"repro/internal/types"
)

// Action names.
const (
	ActBCast = "bcast"
	ActOrder = "to-order"
	ActBRcv  = "brcv"
)

// BCastParam parameterizes bcast(a)_p.
type BCastParam struct {
	A string
	P types.ProcID
}

// String renders the parameter canonically.
func (p BCastParam) String() string { return p.A + "_" + p.P.String() }

// OrderParam parameterizes the internal to-order(a,p).
type OrderParam struct {
	A string
	P types.ProcID
}

// String renders the parameter canonically.
func (p OrderParam) String() string { return p.A + "," + p.P.String() }

// BRcvParam parameterizes brcv(a)_{q,p}: p receives a, originated by q.
type BRcvParam struct {
	A      string
	Origin types.ProcID
	To     types.ProcID
}

// String renders the parameter canonically.
func (p BRcvParam) String() string {
	return p.A + "_" + p.Origin.String() + "," + p.To.String()
}

// Entry is a queue element ⟨a, p⟩.
type Entry struct {
	A string
	P types.ProcID
}

func (e Entry) key() string { return e.A + "@" + e.P.String() }

// TO is the specification automaton.
type TO struct {
	universe types.ProcSet
	pending  map[types.ProcID][]string
	queue    []Entry
	next     map[types.ProcID]int // absent = 1
}

var _ ioa.Automaton = (*TO)(nil)

// New returns the TO automaton in its initial state.
func New(universe types.ProcSet) *TO {
	return &TO{
		universe: universe,
		pending:  make(map[types.ProcID][]string),
		next:     make(map[types.ProcID]int),
	}
}

// Name implements ioa.Automaton.
func (a *TO) Name() string { return "TO" }

// Queue returns a copy of the global order.
func (a *TO) Queue() []Entry { return types.CloneSeq(a.queue) }

// Next returns next[p].
func (a *TO) Next(p types.ProcID) int {
	if n, ok := a.next[p]; ok {
		return n
	}
	return 1
}

// Pending returns a copy of pending[p].
func (a *TO) Pending(p types.ProcID) []string { return types.CloneSeq(a.pending[p]) }

// Enabled implements ioa.Automaton.
func (a *TO) Enabled() []ioa.Action {
	var acts []ioa.Action
	for p, msgs := range a.pending {
		if len(msgs) > 0 {
			acts = append(acts, ioa.Action{Name: ActOrder, Kind: ioa.KindInternal, Param: OrderParam{A: msgs[0], P: p}})
		}
	}
	for p := a.universe.First(); p >= 0; p = a.universe.Next(p) {
		if n := a.Next(p); n <= len(a.queue) {
			e := a.queue[n-1]
			acts = append(acts, ioa.Action{Name: ActBRcv, Kind: ioa.KindOutput, Param: BRcvParam{A: e.A, Origin: e.P, To: p}})
		}
	}
	ioa.SortActions(acts)
	return acts
}

// Perform implements ioa.Automaton.
func (a *TO) Perform(act ioa.Action) error {
	switch act.Name {
	case ActBCast:
		p, ok := act.Param.(BCastParam)
		if !ok {
			return badParam(act)
		}
		a.pending[p.P] = append(a.pending[p.P], p.A)
		return nil
	case ActOrder:
		p, ok := act.Param.(OrderParam)
		if !ok {
			return badParam(act)
		}
		msgs := a.pending[p.P]
		if len(msgs) == 0 || msgs[0] != p.A {
			return fmt.Errorf("to-order(%s,%s): not head of pending", p.A, p.P)
		}
		a.pending[p.P] = msgs[1:]
		a.queue = append(a.queue, Entry{A: p.A, P: p.P})
		return nil
	case ActBRcv:
		p, ok := act.Param.(BRcvParam)
		if !ok {
			return badParam(act)
		}
		n := a.Next(p.To)
		if n > len(a.queue) || a.queue[n-1].A != p.A || a.queue[n-1].P != p.Origin {
			return fmt.Errorf("brcv(%s)_%s,%s: queue(%d) mismatch", p.A, p.Origin, p.To, n)
		}
		a.next[p.To] = n + 1
		return nil
	default:
		return fmt.Errorf("to: unknown action %q", act.Name)
	}
}

func badParam(act ioa.Action) error {
	return fmt.Errorf("%s: bad parameter type %T", act.Name, act.Param)
}

// Clone implements ioa.Automaton.
func (a *TO) Clone() ioa.Automaton {
	b := &TO{
		universe: a.universe,
		pending:  make(map[types.ProcID][]string, len(a.pending)),
		queue:    types.CloneSeq(a.queue),
		next:     maps.Clone(a.next),
	}
	for p, msgs := range a.pending {
		b.pending[p] = types.CloneSeq(msgs)
	}
	return b
}

// Monitor is a greedy trace-inclusion monitor for TO. Feed it the external
// actions (bcast and brcv) of an implementation; Observe fails on the first
// action that cannot be produced by any TO execution extending the observed
// trace.
type Monitor struct {
	spec *TO
}

var _ ioa.Monitor = (*Monitor)(nil)

// NewMonitor returns a monitor over the given universe.
func NewMonitor(universe types.ProcSet) *Monitor {
	return &Monitor{spec: New(universe)}
}

// Spec exposes the monitor's specification state (for inspection in tests).
func (m *Monitor) Spec() *TO { return m.spec }

// Observe implements ioa.Monitor.
func (m *Monitor) Observe(act ioa.Action) error {
	switch act.Name {
	case ActBCast:
		return m.spec.Perform(act)
	case ActBRcv:
		p, ok := act.Param.(BRcvParam)
		if !ok {
			return badParam(act)
		}
		n := m.spec.Next(p.To)
		if n > len(m.spec.queue) {
			// Greedy append: the queue must be extended now, which is
			// possible exactly when a is the head of pending[origin].
			if err := m.spec.Perform(ioa.Action{Name: ActOrder, Kind: ioa.KindInternal, Param: OrderParam{A: p.A, P: p.Origin}}); err != nil {
				return fmt.Errorf("cannot order %s from %s: %w", p.A, p.Origin, err)
			}
		}
		return m.spec.Perform(act)
	default:
		return fmt.Errorf("to monitor: unexpected external action %q", act.Name)
	}
}
