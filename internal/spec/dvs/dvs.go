// Package dvs implements the DVS specification automaton of Figure 2 of the
// paper: the dynamic view-oriented group communication service. It differs
// from VS in that (1) clients register views via dvs-register, (2) attempted
// and registered sets are tracked per view, and (3) dvs-createview only
// creates primary components, enforcing nonempty intersection with every
// created view not separated by a totally registered view.
//
// The package also provides executable checkers for the paper's Invariants
// 4.1 and 4.2.
//
// Two variants of the automaton are provided. NewLiteral builds Figure 2
// exactly as printed. New builds the amended specification used as the
// default refinement target: it adds per-process service-level receipt
// counters rcvd[p, g], advanced by a new internal action dvs-rcv, and
// weakens the dvs-safe precondition to quantify over service-level receipt
// (∀r ∈ P: rcvd[r,g] > next-safe[q,g]) rather than client-level delivery
// (∀r ∈ P: next[r,g] > next-safe[q,g]). The amendment is a sound weakening —
// every trace of the literal automaton is a trace of the amended one — and
// is necessary: the VS-TO-DVS implementation of Figure 3 reports safety as
// soon as the underlying VS does, while a member whose client-current view
// lags its VS-current view may still hold the message in its
// msgs-from-vs buffer, so the literal Figure 2 safe precondition does not
// hold under the refinement of Figure 4 (see the core package tests, which
// demonstrate the failing step mechanically).
package dvs

import (
	"fmt"
	"maps"
	"sort"
	"sync"

	"repro/internal/ioa"
	"repro/internal/types"
)

// Action names, exactly as in Figure 2.
const (
	ActCreateView = "dvs-createview"
	ActNewView    = "dvs-newview"
	ActRegister   = "dvs-register"
	ActGpSnd      = "dvs-gpsnd"
	ActOrder      = "dvs-order"
	ActRcv        = "dvs-rcv" // amended spec only: service-level receipt
	ActGpRcv      = "dvs-gprcv"
	ActSafe       = "dvs-safe"
)

// CreateViewParam parameterizes dvs-createview(v).
type CreateViewParam struct{ View types.View }

// String renders the parameter canonically.
func (p CreateViewParam) String() string { return p.View.String() }

// NewViewParam parameterizes dvs-newview(v)_p.
type NewViewParam struct {
	View types.View
	P    types.ProcID
}

// String renders the parameter canonically.
func (p NewViewParam) String() string { return p.View.String() + "_" + p.P.String() }

// RegisterParam parameterizes dvs-register_p.
type RegisterParam struct{ P types.ProcID }

// String renders the parameter canonically.
func (p RegisterParam) String() string { return p.P.String() }

// SndParam parameterizes dvs-gpsnd(m)_p, m ∈ M_c.
type SndParam struct {
	M types.Msg
	P types.ProcID
}

// String renders the parameter canonically.
func (p SndParam) String() string { return p.M.MsgKey() + "_" + p.P.String() }

// OrderParam parameterizes dvs-order(m,p,g).
type OrderParam struct {
	M types.Msg
	P types.ProcID
	G types.ViewID
}

// String renders the parameter canonically.
func (p OrderParam) String() string {
	return p.M.MsgKey() + "," + p.P.String() + "," + p.G.String()
}

// SvcRcvParam parameterizes the amended spec's internal dvs-rcv(m,p,q,g):
// the service endpoint at q receives the next queued message of view g.
type SvcRcvParam struct {
	M    types.Msg
	From types.ProcID
	To   types.ProcID
	G    types.ViewID
}

// String renders the parameter canonically.
func (p SvcRcvParam) String() string {
	return p.M.MsgKey() + "_" + p.From.String() + "," + p.To.String() + "," + p.G.String()
}

// RcvParam parameterizes dvs-gprcv(m)_{p,q} and dvs-safe(m)_{p,q}.
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

// DVS is the specification automaton state of Figure 2.
type DVS struct {
	universe types.ProcSet
	initial  types.View

	created    map[types.ViewID]types.View
	current    map[types.ProcID]types.ViewID // absent = ⊥
	queues     map[types.ViewID][]Entry
	attempted  map[types.ViewID]types.ProcSet
	registered map[types.ViewID]types.ProcSet
	pending    map[procView][]types.Msg
	next       map[procView]int // absent = 1
	nextSafe   map[procView]int // absent = 1
	rcvd       map[procView]int // absent = 1; amended spec only
	literal    bool             // Figure 2 exactly as printed
	drained    bool             // amended + view-synchronous drain on newview
	syms       []types.Perm     `ioa:"shared"`
}

var _ ioa.Automaton = (*DVS)(nil)

// New returns the amended DVS automaton in its initial state.
func New(universe types.ProcSet, initial types.View) *DVS {
	return newDVS(universe, initial, false, false)
}

// NewLiteral returns the DVS automaton exactly as printed in Figure 2.
func NewLiteral(universe types.ProcSet, initial types.View) *DVS {
	return newDVS(universe, initial, true, false)
}

// NewDrained returns the amended DVS automaton with the view-synchronous
// drain condition: dvs-newview(v)_p additionally requires that p's client
// has delivered every message p's service endpoint received in p's current
// view (next[p, cvid[p]] = rcvd[p, cvid[p]]). This is the interface contract
// real view-synchronous systems provide, and it is what the totally-ordered
// broadcast algorithm of Figure 5 needs when safe indications are
// endpoint-level rather than client-level (see the toimpl package tests for
// the mechanical demonstration).
func NewDrained(universe types.ProcSet, initial types.View) *DVS {
	return newDVS(universe, initial, false, true)
}

func newDVS(universe types.ProcSet, initial types.View, literal, drained bool) *DVS {
	a := &DVS{
		literal:    literal,
		drained:    drained,
		universe:   universe,
		initial:    initial,
		created:    map[types.ViewID]types.View{initial.ID: initial},
		current:    make(map[types.ProcID]types.ViewID),
		queues:     make(map[types.ViewID][]Entry),
		attempted:  map[types.ViewID]types.ProcSet{initial.ID: initial.Members},
		registered: map[types.ViewID]types.ProcSet{initial.ID: initial.Members},
		pending:    make(map[procView][]types.Msg),
		next:       make(map[procView]int),
		nextSafe:   make(map[procView]int),
		rcvd:       make(map[procView]int),
	}
	for p := initial.Members.First(); p >= 0; p = initial.Members.Next(p) {
		a.current[p] = initial.ID
	}
	return a
}

// Name implements ioa.Automaton.
func (a *DVS) Name() string {
	switch {
	case a.literal:
		return "DVS-literal"
	case a.drained:
		return "DVS-drained"
	default:
		return "DVS"
	}
}

// Literal reports whether this is the automaton exactly as printed in
// Figure 2 (true) or the amended variant (false).
func (a *DVS) Literal() bool { return a.literal }

// Drained reports whether dvs-newview requires the view-synchronous drain.
func (a *DVS) Drained() bool { return a.drained }

// drainOK reports whether p may install a new view under the drain rule.
func (a *DVS) drainOK(p types.ProcID) bool {
	if !a.drained {
		return true
	}
	g, ok := a.current[p]
	if !ok {
		return true
	}
	return a.Next(p, g) == a.Rcvd(p, g)
}

// Rcvd returns rcvd[p, g] (amended spec; always 1 in the literal variant).
func (a *DVS) Rcvd(p types.ProcID, g types.ViewID) int {
	return defaultOne(a.rcvd, procView{p, g})
}

// Universe returns the processor universe P.
func (a *DVS) Universe() types.ProcSet { return a.universe }

// InitialView returns v0.
func (a *DVS) InitialView() types.View { return a.initial }

// Created returns the created views sorted by id.
func (a *DVS) Created() []types.View {
	out := make([]types.View, 0, len(a.created))
	for _, v := range a.created {
		out = append(out, v)
	}
	types.SortViews(out)
	return out
}

// CurrentViewID returns current-viewid[p]; ok is false for ⊥.
func (a *DVS) CurrentViewID(p types.ProcID) (types.ViewID, bool) {
	g, ok := a.current[p]
	return g, ok
}

// Attempted returns attempted[g].
func (a *DVS) Attempted(g types.ViewID) types.ProcSet { return a.attempted[g] }

// Registered returns registered[g].
func (a *DVS) Registered(g types.ViewID) types.ProcSet { return a.registered[g] }

// TotReg returns the derived variable TotReg: created views all of whose
// members have registered, sorted by id.
func (a *DVS) TotReg() []types.View {
	var out []types.View
	for id, v := range a.created {
		if reg, ok := a.registered[id]; ok && v.Members.Subset(reg) {
			out = append(out, v)
		}
	}
	types.SortViews(out)
	return out
}

// TotAtt returns the derived variable TotAtt: created views all of whose
// members have attempted, sorted by id.
func (a *DVS) TotAtt() []types.View {
	var out []types.View
	for id, v := range a.created {
		if att, ok := a.attempted[id]; ok && v.Members.Subset(att) {
			out = append(out, v)
		}
	}
	types.SortViews(out)
	return out
}

// CreatedCount returns |created| without materializing the views.
func (a *DVS) CreatedCount() int { return len(a.created) }

// MaxCreatedID returns the largest created view id (the zero ViewID if no
// view has been created, which cannot happen after initialization).
func (a *DVS) MaxCreatedID() types.ViewID {
	var max types.ViewID
	for id := range a.created {
		if max.Less(id) {
			max = id
		}
	}
	return max
}

// totRegSnap is a pooled snapshot of the created view ids in increasing
// order with a parallel flag marking the totally registered ones. The
// snapshot is read-only and must be released with putTotReg; pooling exists
// because sortedTotReg runs per state (invariant checks) and up to
// candidateTries times per state (view-candidate filtering), and its two
// slices were the largest remaining allocation site on the E1 hot path.
type totRegSnap struct {
	ids []types.ViewID
	tot []bool
}

var totRegPool = sync.Pool{New: func() any { return new(totRegSnap) }}

func putTotReg(s *totRegSnap) { totRegPool.Put(s) }

// sortedTotReg returns the created view ids in increasing order together
// with a parallel flag marking the totally registered ones; the snapshot is
// read-only. It backs the early-breaking "totally registered view strictly
// between" scans below, which replace per-pair rescans of the created map
// (O(V³·n) worst case on the invariant check, the dominant cost of
// spec-state exploration).
func (a *DVS) sortedTotReg() *totRegSnap {
	s := totRegPool.Get().(*totRegSnap)
	s.ids = s.ids[:0]
	for id := range a.created {
		s.ids = append(s.ids, id)
	}
	// Insertion sort: view counts are bounded and small, and this avoids
	// sort.Slice's reflective swapper allocation on a per-state path.
	for i := 1; i < len(s.ids); i++ {
		for j := i; j > 0 && s.ids[j].Less(s.ids[j-1]); j-- {
			s.ids[j], s.ids[j-1] = s.ids[j-1], s.ids[j]
		}
	}
	s.tot = s.tot[:0]
	for _, id := range s.ids {
		reg, ok := a.registered[id]
		s.tot = append(s.tot, ok && a.created[id].Members.Subset(reg))
	}
	return s
}

// CreateViewCandidateOK reports whether dvs-createview(v)'s precondition
// holds: no created view shares v's id, and for every created view w either
// a totally registered view lies strictly between them (in either order) or
// v.set ∩ w.set is nonempty.
func (a *DVS) CreateViewCandidateOK(v types.View) bool {
	if v.Members.Len() == 0 {
		return false
	}
	if _, dup := a.created[v.ID]; dup {
		return false
	}
	snap := a.sortedTotReg()
	defer putTotReg(snap)
	ids, tot := snap.ids, snap.tot
	pos := sort.Search(len(ids), func(k int) bool { return v.ID.Less(ids[k]) })
	// Walk outward from v's position in id order. A totally registered view
	// at index k lies strictly between v and every view beyond k, so each
	// scan stops at the first flagged view (after checking it: the flagged
	// view itself has nothing strictly between it and v).
	for k := pos - 1; k >= 0; k-- {
		if !v.Members.Intersects(a.created[ids[k]].Members) {
			return false
		}
		if tot[k] {
			break
		}
	}
	for k := pos; k < len(ids); k++ {
		if !v.Members.Intersects(a.created[ids[k]].Members) {
			return false
		}
		if tot[k] {
			break
		}
	}
	return true
}

// Enabled implements ioa.Automaton. dvs-createview candidates come from the
// environment (unbounded parameter space).
func (a *DVS) Enabled() []ioa.Action {
	var acts []ioa.Action
	for _, v := range a.created {
		for p := v.Members.First(); p >= 0; p = v.Members.Next(p) {
			if cur, ok := a.current[p]; (!ok || cur.Less(v.ID)) && a.drainOK(p) {
				acts = append(acts, ioa.Action{Name: ActNewView, Kind: ioa.KindOutput, Param: NewViewParam{View: v, P: p}})
			}
		}
	}
	for pg, msgs := range a.pending {
		if len(msgs) > 0 {
			acts = append(acts, ioa.Action{Name: ActOrder, Kind: ioa.KindInternal, Param: OrderParam{M: msgs[0], P: pg.P, G: pg.G}})
		}
	}
	for q, g := range a.current {
		queue := a.queues[g]
		if n := a.Next(q, g); n <= len(queue) && (a.literal || n < a.Rcvd(q, g)) {
			e := queue[n-1]
			acts = append(acts, ioa.Action{Name: ActGpRcv, Kind: ioa.KindOutput, Param: RcvParam{M: e.M, From: e.P, To: q}})
		}
		if ns := a.NextSafe(q, g); ns <= len(queue) && a.safeEnabled(q, g, ns) {
			e := queue[ns-1]
			acts = append(acts, ioa.Action{Name: ActSafe, Kind: ioa.KindOutput, Param: RcvParam{M: e.M, From: e.P, To: q}})
		}
	}
	if !a.literal {
		// dvs-rcv: service-level receipt at each member of each created view.
		for g, v := range a.created {
			queue := a.queues[g]
			for q := v.Members.First(); q >= 0; q = v.Members.Next(q) {
				if cur, ok := a.current[q]; ok && g.Less(cur) {
					continue // q's client moved past g: its endpoint no longer receives in g
				}
				if r := a.Rcvd(q, g); r <= len(queue) {
					e := queue[r-1]
					acts = append(acts, ioa.Action{Name: ActRcv, Kind: ioa.KindInternal, Param: SvcRcvParam{M: e.M, From: e.P, To: q, G: g}})
				}
			}
		}
	}
	ioa.SortActions(acts)
	return acts
}

func (a *DVS) safeEnabled(q types.ProcID, g types.ViewID, ns int) bool {
	v, ok := a.created[g]
	if !ok {
		return false
	}
	if a.literal {
		// Figure 2 as printed: every member has client-delivered past ns.
		for r := v.Members.First(); r >= 0; r = v.Members.Next(r) {
			if a.Next(r, g) <= ns {
				return false
			}
		}
		return true
	}
	// Amended: q's service endpoint has received past ns, and every member's
	// service endpoint has received past ns.
	if a.Rcvd(q, g) <= ns {
		return false
	}
	for r := v.Members.First(); r >= 0; r = v.Members.Next(r) {
		if a.Rcvd(r, g) <= ns {
			return false
		}
	}
	return true
}

// Next returns next[p, g].
func (a *DVS) Next(p types.ProcID, g types.ViewID) int {
	return defaultOne(a.next, procView{p, g})
}

// NextSafe returns next-safe[p, g].
func (a *DVS) NextSafe(p types.ProcID, g types.ViewID) int {
	return defaultOne(a.nextSafe, procView{p, g})
}

// Queue returns a copy of queue[g].
func (a *DVS) Queue(g types.ViewID) []Entry {
	return types.CloneSeq(a.queues[g])
}

// QueueShared returns queue[g] without copying; read-only.
func (a *DVS) QueueShared(g types.ViewID) []Entry { return a.queues[g] }

// Pending returns a copy of pending[p, g].
func (a *DVS) Pending(p types.ProcID, g types.ViewID) []types.Msg {
	return types.CloneSeq(a.pending[procView{p, g}])
}

// PendingShared returns pending[p, g] without copying; read-only.
func (a *DVS) PendingShared(p types.ProcID, g types.ViewID) []types.Msg {
	return a.pending[procView{p, g}]
}

func defaultOne(m map[procView]int, k procView) int {
	if v, ok := m[k]; ok {
		return v
	}
	return 1
}

// Perform implements ioa.Automaton.
func (a *DVS) Perform(act ioa.Action) error {
	switch act.Name {
	case ActCreateView:
		p, ok := act.Param.(CreateViewParam)
		if !ok {
			return badParam(act)
		}
		if _, dup := a.created[p.View.ID]; dup {
			return fmt.Errorf("dvs-createview(%s): id already created", p.View)
		}
		if !a.CreateViewCandidateOK(p.View) {
			return fmt.Errorf("dvs-createview(%s): intersection precondition fails", p.View)
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
			return fmt.Errorf("dvs-newview(%s): view not created", p.View)
		}
		if !v.Contains(p.P) {
			return fmt.Errorf("dvs-newview(%s)_%s: process not a member", p.View, p.P)
		}
		if cur, ok := a.current[p.P]; ok && !cur.Less(v.ID) {
			return fmt.Errorf("dvs-newview(%s)_%s: id not greater than current %s", p.View, p.P, cur)
		}
		if !a.drainOK(p.P) {
			return fmt.Errorf("dvs-newview(%s)_%s: client has undelivered messages in current view", p.View, p.P)
		}
		a.current[p.P] = v.ID
		a.attempted[v.ID] = a.attempted[v.ID].With(p.P)
		return nil

	case ActRegister:
		p, ok := act.Param.(RegisterParam)
		if !ok {
			return badParam(act)
		}
		if g, ok := a.current[p.P]; ok {
			a.registered[g] = a.registered[g].With(p.P)
		}
		return nil

	case ActGpSnd:
		p, ok := act.Param.(SndParam)
		if !ok {
			return badParam(act)
		}
		if !types.IsClient(p.M) {
			return fmt.Errorf("dvs-gpsnd: %s is not a client message", p.M.MsgKey())
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
			return fmt.Errorf("dvs-order(%s): not head of pending[%s,%s]", p.M.MsgKey(), p.P, p.G)
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
			return fmt.Errorf("dvs-gprcv to %s: no current view", p.To)
		}
		k := procView{p.To, g}
		n := defaultOne(a.next, k)
		queue := a.queues[g]
		if n > len(queue) || !queue[n-1].M.EqualMsg(p.M) || queue[n-1].P != p.From {
			return fmt.Errorf("dvs-gprcv(%s)_%s,%s: queue[%s](%d) mismatch", p.M.MsgKey(), p.From, p.To, g, n)
		}
		if !a.literal && n >= a.Rcvd(p.To, g) {
			return fmt.Errorf("dvs-gprcv(%s)_%s,%s: not yet received at service level", p.M.MsgKey(), p.From, p.To)
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
			return fmt.Errorf("dvs-safe to %s: no current view", p.To)
		}
		k := procView{p.To, g}
		ns := defaultOne(a.nextSafe, k)
		queue := a.queues[g]
		if ns > len(queue) || !queue[ns-1].M.EqualMsg(p.M) || queue[ns-1].P != p.From {
			return fmt.Errorf("dvs-safe(%s)_%s,%s: queue[%s](%d) mismatch", p.M.MsgKey(), p.From, p.To, g, ns)
		}
		if !a.safeEnabled(p.To, g, ns) {
			return fmt.Errorf("dvs-safe(%s)_%s,%s: some member has not received index %d", p.M.MsgKey(), p.From, p.To, ns)
		}
		a.nextSafe[k] = ns + 1
		return nil

	case ActRcv:
		p, ok := act.Param.(SvcRcvParam)
		if !ok {
			return badParam(act)
		}
		if a.literal {
			return fmt.Errorf("dvs-rcv: not an action of the literal Figure 2 automaton")
		}
		v, created := a.created[p.G]
		if !created || !v.Contains(p.To) {
			return fmt.Errorf("dvs-rcv(%s)_%s,%s: %s not a member of created view %s", p.M.MsgKey(), p.From, p.To, p.To, p.G)
		}
		if cur, ok := a.current[p.To]; ok && p.G.Less(cur) {
			return fmt.Errorf("dvs-rcv(%s)_%s,%s: client moved past view %s", p.M.MsgKey(), p.From, p.To, p.G)
		}
		k := procView{p.To, p.G}
		r := defaultOne(a.rcvd, k)
		queue := a.queues[p.G]
		if r > len(queue) || !queue[r-1].M.EqualMsg(p.M) || queue[r-1].P != p.From {
			return fmt.Errorf("dvs-rcv(%s)_%s,%s: queue[%s](%d) mismatch", p.M.MsgKey(), p.From, p.To, p.G, r)
		}
		a.rcvd[k] = r + 1
		return nil

	default:
		return fmt.Errorf("dvs: unknown action %q", act.Name)
	}
}

func badParam(act ioa.Action) error {
	return fmt.Errorf("%s: bad parameter type %T", act.Name, act.Param)
}

// Clone implements ioa.Automaton.
func (a *DVS) Clone() ioa.Automaton {
	b := &DVS{
		literal: a.literal,
		drained: a.drained,
		syms:    a.syms, // immutable; shared across clones

		universe:   a.universe,
		initial:    a.initial,
		created:    maps.Clone(a.created),
		current:    maps.Clone(a.current),
		queues:     make(map[types.ViewID][]Entry, len(a.queues)),
		attempted:  maps.Clone(a.attempted),
		registered: maps.Clone(a.registered),
		pending:    make(map[procView][]types.Msg, len(a.pending)),
		next:       maps.Clone(a.next),
		nextSafe:   maps.Clone(a.nextSafe),
		rcvd:       maps.Clone(a.rcvd),
	}
	for g, q := range a.queues {
		b.queues[g] = types.CloneSeq(q)
	}
	for k, msgs := range a.pending {
		b.pending[k] = types.CloneSeq(msgs)
	}
	return b
}
