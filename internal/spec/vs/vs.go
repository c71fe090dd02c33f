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
//
// VS is also the per-view channel of Figure 2 (package dvs), which runs
// Outputs and Step under its own action names and Rules: the preconditions
// Figure 2 changes are stated there, the effects only here.
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

// Names are the action names of the channel's transitions.
type Names struct{ CreateView, NewView, GpSnd, Order, GpRcv, Safe string }

var figure1 = Names{ActCreateView, ActNewView, ActGpSnd, ActOrder, ActGpRcv, ActSafe}

// Rules are the preconditions an automaton over the channel states for
// itself. VS's are Figure 1's; Figure 2 changes all four.
type Rules interface {
	// CreateViewCandidateOK is createview(v)'s precondition.
	CreateViewCandidateOK(v types.View) bool
	// NewViewOK reports whether p may leave its current view.
	NewViewOK(p types.ProcID) bool
	// GpRcvOK reports whether q's client may receive queue[g](n).
	GpRcvOK(q types.ProcID, g types.ViewID, n int) bool
	// Received is one past the last message of queue[g] that r has
	// received: safe waits until every member has received a message.
	Received(r types.ProcID, g types.ViewID) int
}

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

// ProcView indexes the per-process, per-view variables.
type ProcView struct {
	P types.ProcID
	G types.ViewID
}

// Counter is an index into queue[g] per process and view: next,
// next-safe, or Figure 2's rcvd. An absent key reads 1, and 1 is never
// stored.
type Counter map[ProcView]int

// At returns c[p, g].
func (c Counter) At(p types.ProcID, g types.ViewID) int {
	if n, ok := c[ProcView{p, g}]; ok {
		return n
	}
	return 1
}

// VS is the specification automaton state of Figure 1.
type VS struct {
	universe types.ProcSet
	initial  types.View

	created  map[types.ViewID]types.View
	current  map[types.ProcID]types.ViewID // current-viewid; absent key = ⊥
	queues   map[types.ViewID][]Entry
	pending  map[ProcView][]types.Msg
	next     Counter
	nextSafe Counter
}

var (
	_ ioa.Automaton = (*VS)(nil)
	_ Rules         = (*VS)(nil)
)

// New returns the VS automaton in its initial state: created = {v0},
// current-viewid[p] = g0 for p ∈ P0 and ⊥ otherwise.
func New(universe types.ProcSet, initial types.View) *VS {
	a := FromState(State{Universe: universe, Initial: initial, Created: []types.View{initial}})
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
	return a.AppendCreated(make([]types.View, 0, len(a.created)))
}

// AppendCreated appends the created views to dst, sorted by identifier.
func (a *VS) AppendCreated(dst []types.View) []types.View {
	n := len(dst)
	for _, v := range a.created {
		dst = append(dst, v)
	}
	// Insertion sort: there are few views, and the DVS invariants and its
	// createview precondition sort them on every call.
	for i := n + 1; i < len(dst); i++ {
		for j := i; j > n && dst[j].ID.Less(dst[j-1].ID); j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// View returns the created view with id g.
func (a *VS) View(g types.ViewID) (types.View, bool) {
	v, ok := a.created[g]
	return v, ok
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

// QueueShared returns queue[g] without copying; read-only.
func (a *VS) QueueShared(g types.ViewID) []Entry { return a.queues[g] }

// Holds reports whether queue[g](i) is <m, p>.
func (a *VS) Holds(g types.ViewID, i int, m types.Msg, p types.ProcID) bool {
	q := a.queues[g]
	return i <= len(q) && q[i-1].M.EqualMsg(m) && q[i-1].P == p
}

// Next returns next[p, g].
func (a *VS) Next(p types.ProcID, g types.ViewID) int { return a.next.At(p, g) }

// NextSafe returns next-safe[p, g].
func (a *VS) NextSafe(p types.ProcID, g types.ViewID) int { return a.nextSafe.At(p, g) }

// PendingShared returns pending[p, g] without copying; read-only.
func (a *VS) PendingShared(p types.ProcID, g types.ViewID) []types.Msg {
	return a.pending[ProcView{p, g}]
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

// NewViewOK implements Rules: in Figure 1 a process may leave any view.
func (a *VS) NewViewOK(types.ProcID) bool { return true }

// GpRcvOK implements Rules: in Figure 1 a client receives what is queued.
func (a *VS) GpRcvOK(types.ProcID, types.ViewID, int) bool { return true }

// Received implements Rules: Figure 1's safe waits for every member's
// client, next[r, g].
func (a *VS) Received(r types.ProcID, g types.ViewID) int { return a.Next(r, g) }

// Enabled implements ioa.Automaton. It enumerates the locally controlled
// actions with satisfied preconditions, except vs-createview whose parameter
// space is unbounded (candidates come from the environment; see
// CreateViewCandidateOK for its precondition).
func (a *VS) Enabled() []ioa.Action {
	acts := a.Outputs(&figure1, a)
	ioa.SortActions(acts)
	return acts
}

// Outputs lists, unsorted and named by n, the newview, order, gprcv and
// safe actions whose preconditions hold under r.
func (a *VS) Outputs(n *Names, r Rules) []ioa.Action {
	var acts []ioa.Action
	for _, v := range a.created {
		for p := v.Members.First(); p >= 0; p = v.Members.Next(p) {
			if cur, ok := a.current[p]; (!ok || cur.Less(v.ID)) && r.NewViewOK(p) {
				acts = append(acts, ioa.Action{Name: n.NewView, Kind: ioa.KindOutput, Param: NewViewParam{View: v, P: p}})
			}
		}
	}
	for pg, msgs := range a.pending {
		if len(msgs) > 0 {
			acts = append(acts, ioa.Action{Name: n.Order, Kind: ioa.KindInternal, Param: OrderParam{M: msgs[0], P: pg.P, G: pg.G}})
		}
	}
	for q, g := range a.current {
		queue := a.queues[g]
		if i := a.Next(q, g); i <= len(queue) && r.GpRcvOK(q, g, i) {
			e := queue[i-1]
			acts = append(acts, ioa.Action{Name: n.GpRcv, Kind: ioa.KindOutput, Param: RcvParam{M: e.M, From: e.P, To: q}})
		}
		if i := a.NextSafe(q, g); i <= len(queue) && a.safeOK(r, g, i) {
			e := queue[i-1]
			acts = append(acts, ioa.Action{Name: n.Safe, Kind: ioa.KindOutput, Param: RcvParam{M: e.M, From: e.P, To: q}})
		}
	}
	return acts
}

// safeOK reports whether every member of view g has received queue[g](i).
func (a *VS) safeOK(r Rules, g types.ViewID, i int) bool {
	v, ok := a.created[g]
	if !ok {
		return false
	}
	for m := v.Members.First(); m >= 0; m = v.Members.Next(m) {
		if r.Received(m, g) <= i {
			return false
		}
	}
	return true
}

// Perform implements ioa.Automaton.
func (a *VS) Perform(act ioa.Action) error { return a.Step(&figure1, a, act) }

// Step performs act, a transition of the channel named by n, if its
// precondition holds under r.
func (a *VS) Step(n *Names, r Rules, act ioa.Action) error {
	switch act.Name {
	case n.CreateView:
		p, ok := act.Param.(CreateViewParam)
		if !ok {
			return badParam(act)
		}
		if !r.CreateViewCandidateOK(p.View) {
			return fmt.Errorf("%s(%s): precondition fails", act.Name, p.View)
		}
		a.created[p.View.ID] = p.View
		return nil

	case n.NewView:
		p, ok := act.Param.(NewViewParam)
		if !ok {
			return badParam(act)
		}
		v, created := a.created[p.View.ID]
		if !created || v != p.View {
			return fmt.Errorf("%s(%s): view not created", act.Name, p.View)
		}
		if !v.Contains(p.P) {
			return fmt.Errorf("%s(%s)_%s: process not a member", act.Name, p.View, p.P)
		}
		if cur, ok := a.current[p.P]; ok && !cur.Less(v.ID) {
			return fmt.Errorf("%s(%s)_%s: id not greater than current %s", act.Name, p.View, p.P, cur)
		}
		if !r.NewViewOK(p.P) {
			return fmt.Errorf("%s(%s)_%s: may not leave the current view", act.Name, p.View, p.P)
		}
		a.current[p.P] = v.ID
		return nil

	case n.GpSnd:
		p, ok := act.Param.(SndParam)
		if !ok {
			return badParam(act)
		}
		if g, ok := a.current[p.P]; ok {
			k := ProcView{p.P, g}
			a.pending[k] = append(a.pending[k], p.M)
		}
		return nil

	case n.Order:
		p, ok := act.Param.(OrderParam)
		if !ok {
			return badParam(act)
		}
		k := ProcView{p.P, p.G}
		msgs := a.pending[k]
		if len(msgs) == 0 || !msgs[0].EqualMsg(p.M) {
			return fmt.Errorf("%s(%s): not head of pending[%s,%s]", act.Name, p.M.MsgKey(), p.P, p.G)
		}
		a.pending[k] = msgs[1:]
		if len(a.pending[k]) == 0 {
			delete(a.pending, k)
		}
		a.queues[p.G] = append(a.queues[p.G], Entry{M: p.M, P: p.P})
		return nil

	case n.GpRcv, n.Safe:
		p, ok := act.Param.(RcvParam)
		if !ok {
			return badParam(act)
		}
		g, hasView := a.current[p.To]
		if !hasView {
			return fmt.Errorf("%s to %s: no current view", act.Name, p.To)
		}
		c := a.next
		if act.Name == n.Safe {
			c = a.nextSafe
		}
		i := c.At(p.To, g)
		if !a.Holds(g, i, p.M, p.From) {
			return fmt.Errorf("%s(%s)_%s,%s: queue[%s](%d) mismatch", act.Name, p.M.MsgKey(), p.From, p.To, g, i)
		}
		if act.Name == n.GpRcv && !r.GpRcvOK(p.To, g, i) {
			return fmt.Errorf("%s(%s)_%s,%s: not yet received at index %d", act.Name, p.M.MsgKey(), p.From, p.To, i)
		}
		if act.Name == n.Safe && !a.safeOK(r, g, i) {
			return fmt.Errorf("%s(%s)_%s,%s: some member has not received index %d", act.Name, p.M.MsgKey(), p.From, p.To, i)
		}
		c[ProcView{p.To, g}] = i + 1
		return nil

	default:
		return fmt.Errorf("unknown action %q", act.Name)
	}
}

func badParam(act ioa.Action) error {
	return fmt.Errorf("%s: bad parameter type %T", act.Name, act.Param)
}

// Clone implements ioa.Automaton.
func (a *VS) Clone() ioa.Automaton {
	b := a.Copy()
	return &b
}

// Copy returns a copy of the state that shares no storage with it.
func (a *VS) Copy() VS {
	b := VS{
		universe: a.universe,
		initial:  a.initial,
		created:  maps.Clone(a.created),
		current:  maps.Clone(a.current),
		queues:   make(map[types.ViewID][]Entry, len(a.queues)),
		pending:  make(map[ProcView][]types.Msg, len(a.pending)),
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

// State describes an explicit VS state, for FromState.
type State struct {
	Universe types.ProcSet
	Initial  types.View
	Created  []types.View
	Current  map[types.ProcID]types.ViewID // omit key for ⊥
	Queues   map[types.ViewID][]Entry
	Pending  map[ProcView][]types.Msg
	Next     Counter
	NextSafe Counter
}

// FromState returns a VS holding exactly st, which it does not share.
func FromState(st State) *VS {
	a := &VS{
		universe: st.Universe,
		initial:  st.Initial,
		created:  make(map[types.ViewID]types.View, len(st.Created)),
		current:  make(map[types.ProcID]types.ViewID, len(st.Current)),
		queues:   make(map[types.ViewID][]Entry, len(st.Queues)),
		pending:  make(map[ProcView][]types.Msg, len(st.Pending)),
		next:     st.Next.Copy(),
		nextSafe: st.NextSafe.Copy(),
	}
	for _, v := range st.Created {
		a.created[v.ID] = v
	}
	maps.Copy(a.current, st.Current)
	for g, q := range st.Queues {
		if len(q) > 0 {
			a.queues[g] = types.CloneSeq(q)
		}
	}
	for k, msgs := range st.Pending {
		if len(msgs) > 0 {
			a.pending[k] = types.CloneSeq(msgs)
		}
	}
	return a
}

// Copy returns c without the entries that read as absent.
func (c Counter) Copy() Counter {
	out := make(Counter, len(c))
	for k, n := range c {
		if n != 1 {
			out[k] = n
		}
	}
	return out
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
