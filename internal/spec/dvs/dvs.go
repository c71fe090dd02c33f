// Package dvs implements the DVS specification automaton of Figure 2 of the
// paper: the dynamic view-oriented group communication service. It is the
// per-view channel of Figure 1 (package vs) under Figure 2's action names,
// plus what Figure 2 adds: (1) clients register views via dvs-register,
// (2) attempted and registered sets are tracked per view, and (3)
// dvs-createview only creates primary components, enforcing nonempty
// intersection with every created view not separated by a totally
// registered view. Figure 2's preconditions are this package's vs.Rules;
// the effects are the channel's.
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
	"repro/internal/spec/vs"
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

// names are Figure 2's names for the channel's transitions.
var names = vs.Names{CreateView: ActCreateView, NewView: ActNewView, GpSnd: ActGpSnd,
	Order: ActOrder, GpRcv: ActGpRcv, Safe: ActSafe}

// The parameters of the channel's transitions are Figure 1's.
type (
	CreateViewParam = vs.CreateViewParam
	NewViewParam    = vs.NewViewParam
	SndParam        = vs.SndParam // m ∈ M_c
	OrderParam      = vs.OrderParam
	RcvParam        = vs.RcvParam
	Entry           = vs.Entry
)

// RegisterParam parameterizes dvs-register_p.
type RegisterParam struct{ P types.ProcID }

// String renders the parameter canonically.
func (p RegisterParam) String() string { return p.P.String() }

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

// DVS is the specification automaton state of Figure 2.
type DVS struct {
	vs.VS
	attempted  map[types.ViewID]types.ProcSet
	registered map[types.ViewID]types.ProcSet
	rcvd       vs.Counter   // amended spec only
	literal    bool         // Figure 2 exactly as printed
	drained    bool         // amended + view-synchronous drain on newview
	syms       []types.Perm `ioa:"shared"`
}

var (
	_ ioa.Automaton = (*DVS)(nil)
	_ vs.Rules      = (*DVS)(nil)
)

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
	return &DVS{
		VS:         *vs.New(universe, initial),
		attempted:  map[types.ViewID]types.ProcSet{initial.ID: initial.Members},
		registered: map[types.ViewID]types.ProcSet{initial.ID: initial.Members},
		rcvd:       make(vs.Counter),
		literal:    literal,
		drained:    drained,
	}
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

// Rcvd returns rcvd[p, g] (amended spec; always 1 in the literal variant).
func (a *DVS) Rcvd(p types.ProcID, g types.ViewID) int { return a.rcvd.At(p, g) }

// Attempted returns attempted[g].
func (a *DVS) Attempted(g types.ViewID) types.ProcSet { return a.attempted[g] }

// Registered returns registered[g].
func (a *DVS) Registered(g types.ViewID) types.ProcSet { return a.registered[g] }

// viewBufs pools the buffers of views: the invariants read the created
// views once per state and the environment once per createview draw, and a
// fresh slice each time was most of what a seeded DVS run allocates.
var viewBufs = sync.Pool{New: func() any { return new([]types.View) }}

// views returns the created views sorted by id in a pooled buffer, which
// the caller hands back to viewBufs.
func (a *DVS) views() *[]types.View {
	buf := viewBufs.Get().(*[]types.View)
	*buf = a.AppendCreated((*buf)[:0])
	return buf
}

// totReg reports whether v ∈ TotReg.
func (a *DVS) totReg(v types.View) bool { return v.Members.Subset(a.registered[v.ID]) }

// CreateViewCandidateOK implements vs.Rules: dvs-createview(v)'s
// precondition holds when no created view shares v's id, and for every
// created view w either a totally registered view lies strictly between
// them (in either order) or v.set ∩ w.set is nonempty.
func (a *DVS) CreateViewCandidateOK(v types.View) bool {
	if _, dup := a.View(v.ID); dup || v.Members.Len() == 0 {
		return false
	}
	buf := a.views()
	defer viewBufs.Put(buf)
	views := *buf
	pos := sort.Search(len(views), func(k int) bool { return v.ID.Less(views[k].ID) })
	// Walk outward from v's position in id order. A totally registered view
	// at index k lies strictly between v and every view beyond k, so each
	// scan stops at the first one (after checking it: the view itself has
	// nothing strictly between it and v).
	for k := pos - 1; k >= 0; k-- {
		if !v.Members.Intersects(views[k].Members) {
			return false
		}
		if a.totReg(views[k]) {
			break
		}
	}
	for _, w := range views[pos:] {
		if !v.Members.Intersects(w.Members) {
			return false
		}
		if a.totReg(w) {
			break
		}
	}
	return true
}

// NewViewOK implements vs.Rules: with the drain rule, p leaves its current
// view only once its client has delivered every message its endpoint
// received there.
func (a *DVS) NewViewOK(p types.ProcID) bool {
	g, ok := a.CurrentViewID(p)
	return !a.drained || !ok || a.Next(p, g) == a.Rcvd(p, g)
}

// GpRcvOK implements vs.Rules: in the amended automaton a client receives
// only what its service endpoint has.
func (a *DVS) GpRcvOK(q types.ProcID, g types.ViewID, n int) bool {
	return a.literal || n < a.Rcvd(q, g)
}

// Received implements vs.Rules: the amended dvs-safe waits for every
// member's endpoint, rcvd[r, g]; Figure 2 as printed, for every member's
// client, next[r, g].
func (a *DVS) Received(r types.ProcID, g types.ViewID) int {
	if a.literal {
		return a.Next(r, g)
	}
	return a.Rcvd(r, g)
}

// Enabled implements ioa.Automaton. dvs-createview candidates come from the
// environment (unbounded parameter space).
func (a *DVS) Enabled() []ioa.Action {
	acts := a.Outputs(&names, a)
	if !a.literal {
		// dvs-rcv: service-level receipt at each member of each created view.
		buf := a.views()
		defer viewBufs.Put(buf)
		for _, v := range *buf {
			queue := a.QueueShared(v.ID)
			for q := v.Members.First(); q >= 0; q = v.Members.Next(q) {
				if cur, ok := a.CurrentViewID(q); ok && v.ID.Less(cur) {
					continue // q's client moved past v: its endpoint no longer receives in v
				}
				if r := a.Rcvd(q, v.ID); r <= len(queue) {
					e := queue[r-1]
					acts = append(acts, ioa.Action{Name: ActRcv, Kind: ioa.KindInternal, Param: SvcRcvParam{M: e.M, From: e.P, To: q, G: v.ID}})
				}
			}
		}
	}
	ioa.SortActions(acts)
	return acts
}

// Perform implements ioa.Automaton.
func (a *DVS) Perform(act ioa.Action) error {
	switch act.Name {
	case ActRegister:
		p, ok := act.Param.(RegisterParam)
		if !ok {
			return badParam(act)
		}
		if g, ok := a.CurrentViewID(p.P); ok {
			a.registered[g] = a.registered[g].With(p.P)
		}
		return nil

	case ActRcv:
		p, ok := act.Param.(SvcRcvParam)
		if !ok {
			return badParam(act)
		}
		if a.literal {
			return fmt.Errorf("dvs-rcv: not an action of the literal Figure 2 automaton")
		}
		if v, created := a.View(p.G); !created || !v.Contains(p.To) {
			return fmt.Errorf("dvs-rcv(%s)_%s,%s: %s not a member of created view %s", p.M.MsgKey(), p.From, p.To, p.To, p.G)
		}
		if cur, ok := a.CurrentViewID(p.To); ok && p.G.Less(cur) {
			return fmt.Errorf("dvs-rcv(%s)_%s,%s: client moved past view %s", p.M.MsgKey(), p.From, p.To, p.G)
		}
		r := a.Rcvd(p.To, p.G)
		if !a.Holds(p.G, r, p.M, p.From) {
			return fmt.Errorf("dvs-rcv(%s)_%s,%s: queue[%s](%d) mismatch", p.M.MsgKey(), p.From, p.To, p.G, r)
		}
		a.rcvd[vs.ProcView{P: p.To, G: p.G}] = r + 1
		return nil

	case ActCreateView:
		if p, ok := act.Param.(CreateViewParam); ok && !a.CreateViewCandidateOK(p.View) {
			if _, dup := a.View(p.View.ID); dup {
				return fmt.Errorf("dvs-createview(%s): id already created", p.View)
			}
			return fmt.Errorf("dvs-createview(%s): intersection precondition fails", p.View)
		}

	case ActGpSnd:
		if p, ok := act.Param.(SndParam); ok && !types.IsClient(p.M) {
			return fmt.Errorf("dvs-gpsnd: %s is not a client message", p.M.MsgKey())
		}

	case ActNewView:
		if err := a.Step(&names, a, act); err != nil {
			return err
		}
		p := act.Param.(NewViewParam)
		a.attempted[p.View.ID] = a.attempted[p.View.ID].With(p.P)
		return nil
	}
	return a.Step(&names, a, act)
}

func badParam(act ioa.Action) error {
	return fmt.Errorf("%s: bad parameter type %T", act.Name, act.Param)
}

// Clone implements ioa.Automaton.
func (a *DVS) Clone() ioa.Automaton {
	return &DVS{
		VS:         a.Copy(),
		attempted:  maps.Clone(a.attempted),
		registered: maps.Clone(a.registered),
		rcvd:       maps.Clone(a.rcvd),
		literal:    a.literal,
		drained:    a.drained,
		syms:       a.syms, // immutable; shared across clones
	}
}
