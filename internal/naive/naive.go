// Package naive implements the strawman the paper warns about (Section 1):
// dynamic voting WITHOUT the information exchange of Lotem–Keidar–Dolev.
// Each process accepts a view as primary if it majority-intersects the last
// primary that process itself accepted — no "info" messages, no ambiguous
// sets. Under partitions this admits two disjoint concurrent primaries
// ("These difficulties have led to errors in some of the past work on
// dynamic voting"), which the tests demonstrate with the classic schedule
// and which the paper's VS-TO-DVS filter provably rejects.
//
// The package mirrors the shape of internal/protocol/dvscore: a per-process
// filter node plus, in the same package, the composed system over the VS
// specification (dvscore.Impl's counterpart), so the two algorithms can be
// driven through identical schedules and compared.
package naive

import (
	"fmt"
	"maps"

	"repro/internal/ioa"
	vsspec "repro/internal/spec/vs"
	"repro/internal/types"
)

// Node is the naive dynamic-voting filter for one process: the only state
// is the last primary this process accepted.
type Node struct {
	p     types.ProcID
	cur   types.View
	curOK bool
	last  types.View // last accepted primary; starts at v0
	// attempted is the history variable used by the intersection checks.
	attempted map[types.ViewID]types.View
}

// NewNode builds the filter; last starts at v0 for every process, as in the
// paper's model where v0 is the distinguished initial primary.
func NewNode(p types.ProcID, initial types.View, inP0 bool) *Node {
	n := &Node{
		p:         p,
		last:      initial,
		attempted: make(map[types.ViewID]types.View),
	}
	if inP0 {
		n.cur, n.curOK = initial, true
		n.attempted[initial.ID] = initial
	}
	return n
}

// OnVSNewView records the view-synchronous view.
func (n *Node) OnVSNewView(v types.View) { n.cur, n.curOK = v, true }

// AcceptEnabled reports whether the naive filter would announce its current
// view as primary: majority intersection with its own last primary only.
func (n *Node) AcceptEnabled() (types.View, bool) {
	if !n.curOK {
		return types.View{}, false
	}
	if _, done := n.attempted[n.cur.ID]; done {
		return types.View{}, false
	}
	if !n.cur.Members.MajorityOf(n.last.Members) {
		return types.View{}, false
	}
	return n.cur, true
}

// Accept announces the primary and updates last.
func (n *Node) Accept(v types.View) error {
	cand, ok := n.AcceptEnabled()
	if !ok || cand != v {
		return fmt.Errorf("naive accept(%s)_%s: not enabled", v, n.p)
	}
	n.last = v
	n.attempted[v.ID] = v
	return nil
}

// Attempted returns the primaries this process accepted, sorted by id.
func (n *Node) Attempted() []types.View {
	out := make([]types.View, 0, len(n.attempted))
	for _, v := range n.attempted {
		out = append(out, v)
	}
	types.SortViews(out)
	return out
}

func (n *Node) clone() *Node {
	return &Node{p: n.p, cur: n.cur, curOK: n.curOK, last: n.last, attempted: maps.Clone(n.attempted)}
}

// Impl composes the naive filters with the VS specification, mirroring
// dvscore.Impl's external shape (minus communication, which the strawman does
// not need to go wrong).
type Impl struct {
	universe types.ProcSet
	initial  types.View
	procs    []types.ProcID
	vs       *vsspec.VS
	nodes    map[types.ProcID]*Node
}

var _ ioa.Automaton = (*Impl)(nil)

// NewImpl builds the composed system.
func NewImpl(universe types.ProcSet, initial types.View) *Impl {
	im := &Impl{
		universe: universe,
		initial:  initial,
		procs:    universe.Sorted(),
		vs:       vsspec.New(universe, initial),
		nodes:    make(map[types.ProcID]*Node, universe.Len()),
	}
	for _, p := range im.procs {
		im.nodes[p] = NewNode(p, initial, initial.Contains(p))
	}
	return im
}

// Name implements ioa.Automaton.
func (im *Impl) Name() string { return "NAIVE-DV" }

// VS exposes the inner VS automaton.
func (im *Impl) VS() *vsspec.VS { return im.vs }

// Node returns process p's filter.
func (im *Impl) Node(p types.ProcID) *Node { return im.nodes[p] }

// Att returns all views accepted as primary by at least one process.
func (im *Impl) Att() []types.View {
	seen := make(map[types.ViewID]types.View)
	for _, p := range im.procs {
		for _, v := range im.nodes[p].Attempted() {
			seen[v.ID] = v
		}
	}
	out := make([]types.View, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	types.SortViews(out)
	return out
}

// CheckIntersectionChain checks the property the paper's Invariant 4.1
// gives the real algorithm: consecutive accepted primaries (by id)
// intersect. The naive filter violates it.
func (im *Impl) CheckIntersectionChain() error {
	att := im.Att()
	for i := 1; i < len(att); i++ {
		if !att[i-1].Members.Intersects(att[i].Members) {
			return fmt.Errorf("disjoint concurrent primaries %s and %s", att[i-1], att[i])
		}
	}
	return nil
}

// Enabled implements ioa.Automaton: VS's locally controlled actions
// (hidden) plus each node's accept action.
func (im *Impl) Enabled() []ioa.Action {
	var acts []ioa.Action
	for _, a := range im.vs.Enabled() {
		a.Kind = ioa.KindInternal
		acts = append(acts, a)
	}
	for _, p := range im.procs {
		if v, ok := im.nodes[p].AcceptEnabled(); ok {
			acts = append(acts, ioa.Action{Name: "naive-accept", Kind: ioa.KindOutput,
				Param: AcceptParam{View: v, P: p}})
		}
	}
	ioa.SortActions(acts)
	return acts
}

// AcceptParam parameterizes naive-accept(v)_p.
type AcceptParam struct {
	View types.View
	P    types.ProcID
}

// String renders the parameter canonically.
func (p AcceptParam) String() string { return p.View.String() + "_" + p.P.String() }

// Perform implements ioa.Automaton.
func (im *Impl) Perform(act ioa.Action) error {
	switch act.Name {
	case vsspec.ActCreateView, vsspec.ActOrder, vsspec.ActGpSnd,
		vsspec.ActGpRcv, vsspec.ActSafe:
		return im.vs.Perform(act)
	case vsspec.ActNewView:
		p, ok := act.Param.(vsspec.NewViewParam)
		if !ok {
			return fmt.Errorf("%s: bad parameter type %T", act.Name, act.Param)
		}
		if err := im.vs.Perform(act); err != nil {
			return err
		}
		im.nodes[p.P].OnVSNewView(p.View)
		return nil
	case "naive-accept":
		p, ok := act.Param.(AcceptParam)
		if !ok {
			return fmt.Errorf("%s: bad parameter type %T", act.Name, act.Param)
		}
		return im.nodes[p.P].Accept(p.View)
	default:
		return fmt.Errorf("naive: unknown action %q", act.Name)
	}
}

// Clone implements ioa.Automaton.
func (im *Impl) Clone() ioa.Automaton {
	c := &Impl{
		universe: im.universe,
		initial:  im.initial,
		procs:    types.CloneSeq(im.procs),
		vs:       im.vs.Clone().(*vsspec.VS),
		nodes:    make(map[types.ProcID]*Node, len(im.nodes)),
	}
	for p, n := range im.nodes {
		c.nodes[p] = n.clone()
	}
	return c
}

// maxCreated returns the largest view id created in the underlying VS.
func (im *Impl) maxCreated() types.ViewID {
	var best types.ViewID
	for _, v := range im.vs.Created() {
		if best.Less(v.ID) {
			best = v.ID
		}
	}
	return best
}
