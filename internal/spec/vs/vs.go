// Package vs implements the VS specification automaton of Figure 1 of the
// paper: the (modified) static view-oriented group communication service of
// Fekete, Lynch and Shvartsman, with a distinguished initial view v0 rather
// than a universe-wide initial view.
//
// The automaton is executable: every transition of Figure 1 is a Perform
// case, and Enabled enumerates the locally-controlled actions whose
// preconditions hold in the current state. View creation (vs-createview) is
// parameterized over the infinite set of views, so candidate views are
// supplied by the execution environment rather than enumerated.
package vs

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/ioa"
	"repro/internal/types"
)

// Action names, exactly as in Figure 1.
const (
	ActCreateView = "vs-createview"
	ActNewView    = "vs-newview"
	ActGpSnd      = "vs-gpsnd"
	ActOrder      = "vs-order"
	ActGpRcv      = "vs-gprcv"
	ActSafe       = "vs-safe"
)

// CreateViewParam parameterizes vs-createview(v).
type CreateViewParam struct{ View types.View }

// String renders the parameter canonically.
func (p CreateViewParam) String() string { return p.View.String() }

// NewViewParam parameterizes vs-newview(v)_p.
type NewViewParam struct {
	View types.View
	P    types.ProcID
}

// String renders the parameter canonically.
func (p NewViewParam) String() string { return p.View.String() + "_" + p.P.String() }

// SndParam parameterizes vs-gpsnd(m)_p.
type SndParam struct {
	M types.Msg
	P types.ProcID
}

// String renders the parameter canonically.
func (p SndParam) String() string { return p.M.MsgKey() + "_" + p.P.String() }

// OrderParam parameterizes vs-order(m,p,g).
type OrderParam struct {
	M types.Msg
	P types.ProcID
	G types.ViewID
}

// String renders the parameter canonically.
func (p OrderParam) String() string {
	return p.M.MsgKey() + "," + p.P.String() + "," + p.G.String()
}

// RcvParam parameterizes vs-gprcv(m)_{p,q} and vs-safe(m)_{p,q}. The paper's
// "choose g" (and "choose P" for safe) components are determined by the
// state (g = current-viewid[q]; P by Invariant 3.1) and are therefore not
// part of the action identity.
type RcvParam struct {
	M    types.Msg
	From types.ProcID
	To   types.ProcID
}

// String renders the parameter canonically.
func (p RcvParam) String() string {
	return p.M.MsgKey() + "_" + p.From.String() + "," + p.To.String()
}

// Entry is a queue element <m, p>.
type Entry struct {
	M types.Msg
	P types.ProcID
}

func (e Entry) key() string { return e.M.MsgKey() + "@" + e.P.String() }

type procView struct {
	P types.ProcID
	G types.ViewID
}

// VS is the specification automaton state of Figure 1.
type VS struct {
	universe types.ProcSet
	initial  types.View

	created  map[types.ViewID]types.View
	current  map[types.ProcID]types.ViewID // current-viewid; absent key = ⊥
	queues   map[types.ViewID][]Entry
	pending  map[procView][]types.Msg
	next     map[procView]int // absent = 1
	nextSafe map[procView]int // absent = 1
}

var _ ioa.Automaton = (*VS)(nil)

// New returns the VS automaton in its initial state: created = {v0},
// current-viewid[p] = g0 for p ∈ P0 and ⊥ otherwise.
func New(universe types.ProcSet, initial types.View) *VS {
	a := &VS{
		universe: universe,
		initial:  initial,
		created:  map[types.ViewID]types.View{initial.ID: initial},
		current:  make(map[types.ProcID]types.ViewID),
		queues:   make(map[types.ViewID][]Entry),
		pending:  make(map[procView][]types.Msg),
		next:     make(map[procView]int),
		nextSafe: make(map[procView]int),
	}
	for p := initial.Members.First(); p >= 0; p = initial.Members.Next(p) {
		a.current[p] = initial.ID
	}
	return a
}

// Name implements ioa.Automaton.
func (a *VS) Name() string { return "VS" }

// Universe returns the processor universe P.
func (a *VS) Universe() types.ProcSet { return a.universe }

// Created returns the set of created views, sorted by identifier.
func (a *VS) Created() []types.View {
	out := make([]types.View, 0, len(a.created))
	for _, v := range a.created {
		out = append(out, v)
	}
	types.SortViews(out)
	return out
}

// CreatedCount returns |created| without materializing the views.
func (a *VS) CreatedCount() int { return len(a.created) }

// MaxCreatedID returns the largest created view id (the zero ViewID if no
// view has been created, which cannot happen after initialization).
func (a *VS) MaxCreatedID() types.ViewID {
	var max types.ViewID
	for id := range a.created {
		if max.Less(id) {
			max = id
		}
	}
	return max
}

// CurrentViewID returns current-viewid[p]; ok is false for ⊥.
func (a *VS) CurrentViewID(p types.ProcID) (types.ViewID, bool) {
	g, ok := a.current[p]
	return g, ok
}

// Queue returns a copy of queue[g].
func (a *VS) Queue(g types.ViewID) []Entry {
	q := a.queues[g]
	out := make([]Entry, len(q))
	copy(out, q)
	return out
}

// QueueShared returns queue[g] without copying; read-only.
func (a *VS) QueueShared(g types.ViewID) []Entry { return a.queues[g] }

// Next returns next[p, g].
func (a *VS) Next(p types.ProcID, g types.ViewID) int {
	return defaultOne(a.next, procView{p, g})
}

// NextSafe returns next-safe[p, g].
func (a *VS) NextSafe(p types.ProcID, g types.ViewID) int {
	return defaultOne(a.nextSafe, procView{p, g})
}

// Pending returns a copy of pending[p, g].
func (a *VS) Pending(p types.ProcID, g types.ViewID) []types.Msg {
	return types.CloneSeq(a.pending[procView{p, g}])
}

// PendingShared returns pending[p, g] without copying; read-only.
func (a *VS) PendingShared(p types.ProcID, g types.ViewID) []types.Msg {
	return a.pending[procView{p, g}]
}

func defaultOne(m map[procView]int, k procView) int {
	if v, ok := m[k]; ok {
		return v
	}
	return 1
}

// Enabled implements ioa.Automaton. It enumerates the locally controlled
// actions with satisfied preconditions, except vs-createview whose parameter
// space is unbounded (candidates come from the environment; see
// CreateViewCandidateOK for its precondition).
func (a *VS) Enabled() []ioa.Action {
	var acts []ioa.Action
	// vs-newview(v)_p
	for _, v := range a.created {
		for p := v.Members.First(); p >= 0; p = v.Members.Next(p) {
			if cur, ok := a.current[p]; !ok || cur.Less(v.ID) {
				acts = append(acts, ioa.Action{Name: ActNewView, Kind: ioa.KindOutput, Param: NewViewParam{View: v, P: p}})
			}
		}
	}
	// vs-order(m, p, g)
	for pg, msgs := range a.pending {
		if len(msgs) > 0 {
			acts = append(acts, ioa.Action{Name: ActOrder, Kind: ioa.KindInternal, Param: OrderParam{M: msgs[0], P: pg.P, G: pg.G}})
		}
	}
	// vs-gprcv(m)_{p,q} and vs-safe(m)_{p,q}
	for q, g := range a.current {
		queue := a.queues[g]
		if n := a.Next(q, g); n <= len(queue) {
			e := queue[n-1]
			acts = append(acts, ioa.Action{Name: ActGpRcv, Kind: ioa.KindOutput, Param: RcvParam{M: e.M, From: e.P, To: q}})
		}
		if ns := a.NextSafe(q, g); ns <= len(queue) {
			if a.safeEnabled(q, g, ns) {
				e := queue[ns-1]
				acts = append(acts, ioa.Action{Name: ActSafe, Kind: ioa.KindOutput, Param: RcvParam{M: e.M, From: e.P, To: q}})
			}
		}
	}
	ioa.SortActions(acts)
	return acts
}

func (a *VS) safeEnabled(q types.ProcID, g types.ViewID, ns int) bool {
	v, ok := a.created[g]
	if !ok {
		return false
	}
	for r := v.Members.First(); r >= 0; r = v.Members.Next(r) {
		if a.Next(r, g) <= ns {
			return false
		}
	}
	return true
}

// CreateViewCandidateOK reports whether vs-createview(v) is enabled: v.id
// strictly greater than every created view's id.
func (a *VS) CreateViewCandidateOK(v types.View) bool {
	if v.Members.Len() == 0 {
		return false
	}
	for id := range a.created {
		if !id.Less(v.ID) {
			return false
		}
	}
	return true
}

// Perform implements ioa.Automaton.
func (a *VS) Perform(act ioa.Action) error {
	switch act.Name {
	case ActCreateView:
		p, ok := act.Param.(CreateViewParam)
		if !ok {
			return badParam(act)
		}
		if !a.CreateViewCandidateOK(p.View) {
			return fmt.Errorf("vs-createview(%s): id not greater than all created", p.View)
		}
		a.created[p.View.ID] = p.View
		return nil

	case ActNewView:
		p, ok := act.Param.(NewViewParam)
		if !ok {
			return badParam(act)
		}
		v, created := a.created[p.View.ID]
		if !created || v != p.View {
			return fmt.Errorf("vs-newview(%s): view not created", p.View)
		}
		if !v.Contains(p.P) {
			return fmt.Errorf("vs-newview(%s)_%s: process not a member", p.View, p.P)
		}
		if cur, ok := a.current[p.P]; ok && !cur.Less(v.ID) {
			return fmt.Errorf("vs-newview(%s)_%s: id not greater than current %s", p.View, p.P, cur)
		}
		a.current[p.P] = v.ID
		return nil

	case ActGpSnd:
		p, ok := act.Param.(SndParam)
		if !ok {
			return badParam(act)
		}
		if g, ok := a.current[p.P]; ok {
			k := procView{p.P, g}
			a.pending[k] = append(a.pending[k], p.M)
		}
		return nil

	case ActOrder:
		p, ok := act.Param.(OrderParam)
		if !ok {
			return badParam(act)
		}
		k := procView{p.P, p.G}
		msgs := a.pending[k]
		if len(msgs) == 0 || !msgs[0].EqualMsg(p.M) {
			return fmt.Errorf("vs-order(%s): not head of pending[%s,%s]", p.M.MsgKey(), p.P, p.G)
		}
		a.pending[k] = msgs[1:]
		if len(a.pending[k]) == 0 {
			delete(a.pending, k)
		}
		a.queues[p.G] = append(a.queues[p.G], Entry{M: p.M, P: p.P})
		return nil

	case ActGpRcv:
		p, ok := act.Param.(RcvParam)
		if !ok {
			return badParam(act)
		}
		g, hasView := a.current[p.To]
		if !hasView {
			return fmt.Errorf("vs-gprcv to %s: no current view", p.To)
		}
		k := procView{p.To, g}
		n := defaultOne(a.next, k)
		queue := a.queues[g]
		if n > len(queue) || !queue[n-1].M.EqualMsg(p.M) || queue[n-1].P != p.From {
			return fmt.Errorf("vs-gprcv(%s)_%s,%s: queue[%s](%d) mismatch", p.M.MsgKey(), p.From, p.To, g, n)
		}
		a.next[k] = n + 1
		return nil

	case ActSafe:
		p, ok := act.Param.(RcvParam)
		if !ok {
			return badParam(act)
		}
		g, hasView := a.current[p.To]
		if !hasView {
			return fmt.Errorf("vs-safe to %s: no current view", p.To)
		}
		k := procView{p.To, g}
		ns := defaultOne(a.nextSafe, k)
		queue := a.queues[g]
		if ns > len(queue) || !queue[ns-1].M.EqualMsg(p.M) || queue[ns-1].P != p.From {
			return fmt.Errorf("vs-safe(%s)_%s,%s: queue[%s](%d) mismatch", p.M.MsgKey(), p.From, p.To, g, ns)
		}
		if !a.safeEnabled(p.To, g, ns) {
			return fmt.Errorf("vs-safe(%s)_%s,%s: some member has not received index %d", p.M.MsgKey(), p.From, p.To, ns)
		}
		a.nextSafe[k] = ns + 1
		return nil

	default:
		return fmt.Errorf("vs: unknown action %q", act.Name)
	}
}

func badParam(act ioa.Action) error {
	return fmt.Errorf("%s: bad parameter type %T", act.Name, act.Param)
}

// Clone implements ioa.Automaton.
func (a *VS) Clone() ioa.Automaton {
	b := &VS{
		universe: a.universe,
		initial:  a.initial,
		created:  maps.Clone(a.created),
		current:  maps.Clone(a.current),
		queues:   make(map[types.ViewID][]Entry, len(a.queues)),
		pending:  make(map[procView][]types.Msg, len(a.pending)),
		next:     maps.Clone(a.next),
		nextSafe: maps.Clone(a.nextSafe),
	}
	for g, q := range a.queues {
		b.queues[g] = types.CloneSeq(q)
	}
	for k, msgs := range a.pending {
		b.pending[k] = types.CloneSeq(msgs)
	}
	return b
}

// CheckInvariant31 checks Invariant 3.1: created views have unique ids. The
// representation indexes created by id, so the checkable content is that the
// stored view's id matches its key.
func CheckInvariant31(a *VS) error {
	for id, v := range a.created {
		if v.ID != id {
			return fmt.Errorf("created view %s stored under id %s", v, id)
		}
		if v.Members.Len() == 0 {
			return errors.New("created view with empty membership: " + v.String())
		}
	}
	return nil
}

// Invariants returns the paper's invariants for VS as ioa invariants.
func Invariants() []ioa.Invariant {
	return []ioa.Invariant{{
		Name: "VS-3.1",
		Check: func(a ioa.Automaton) error {
			v, ok := a.(*VS)
			if !ok {
				return fmt.Errorf("VS invariant on %T", a)
			}
			return CheckInvariant31(v)
		},
	}}
}
