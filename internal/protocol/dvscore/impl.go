package dvscore

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	vsspec "repro/internal/spec/vs"
	"repro/internal/types"
)

// GCParam parameterizes the internal action dvs-garbage-collect(v)_p.
type GCParam struct {
	View types.View
	P    types.ProcID
}

// String renders the parameter canonically.
func (p GCParam) String() string { return p.View.String() + "_" + p.P.String() }

// Impl is DVS-IMPL: the composition of the VS specification automaton with
// one VS-TO-DVS_p automaton per process, with all external actions of VS
// hidden. Its external signature is exactly that of the DVS specification,
// and the external actions reuse the dvs package's names and parameter
// types so implementation and specification traces compare directly.
type Impl struct {
	universe types.ProcSet
	initial  types.View
	procs    []types.ProcID // sorted universe, for deterministic enumeration
	vs       *vsspec.VS
	nodes    map[types.ProcID]*Node
	syms     []types.Perm `ioa:"shared"`
}

var _ ioa.Automaton = (*Impl)(nil)

// NewImpl constructs DVS-IMPL in its initial state.
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
func (im *Impl) Name() string { return "DVS-IMPL" }

// VS exposes the inner VS automaton (read-only use by checks and tests).
func (im *Impl) VS() *vsspec.VS { return im.vs }

// Node returns the VS-TO-DVS automaton of process p.
func (im *Impl) Node(p types.ProcID) *Node { return im.nodes[p] }

// Enabled implements ioa.Automaton. The enumeration covers:
//
//   - the inner VS automaton's locally controlled actions (hidden in the
//     composition, so re-kinded internal) — vs-newview, vs-order, vs-gprcv,
//     vs-safe;
//   - each node's locally controlled actions — vs-gpsnd (synchronizing with
//     VS's input), dvs-newview, dvs-gprcv, dvs-safe (outputs of the
//     composition), and dvs-garbage-collect (internal).
//
// vs-createview remains environment-proposed, as in the VS automaton.
func (im *Impl) Enabled() []ioa.Action {
	var acts []ioa.Action
	for _, a := range im.vs.Enabled() {
		a.Kind = ioa.KindInternal // VS external actions are hidden
		acts = append(acts, a)
	}
	for _, p := range im.procs {
		n := im.nodes[p]
		if m, ok := n.vsGpSndHead(); ok {
			acts = append(acts, ioa.Action{Name: vsspec.ActGpSnd, Kind: ioa.KindInternal, Param: vsspec.SndParam{M: m, P: p}})
		}
		if v, ok := n.dvsNewViewEnabled(); ok {
			acts = append(acts, ioa.Action{Name: dvs.ActNewView, Kind: ioa.KindOutput, Param: dvs.NewViewParam{View: v, P: p}})
		}
		if e, ok := n.dvsGpRcvHead(); ok {
			acts = append(acts, ioa.Action{Name: dvs.ActGpRcv, Kind: ioa.KindOutput, Param: dvs.RcvParam{M: e.M, From: e.Q, To: p}})
		}
		if e, ok := n.dvsSafeHead(); ok {
			acts = append(acts, ioa.Action{Name: dvs.ActSafe, Kind: ioa.KindOutput, Param: dvs.RcvParam{M: e.M, From: e.Q, To: p}})
		}
		for _, v := range n.gcCandidates() {
			acts = append(acts, ioa.Action{Name: "dvs-garbage-collect", Kind: ioa.KindInternal, Param: GCParam{View: v, P: p}})
		}
	}
	ioa.SortActions(acts)
	return acts
}

// node returns the VS-TO-DVS automaton the action named name addresses, or
// an error for a process outside the universe.
func (im *Impl) node(name string, p types.ProcID) (*Node, error) {
	n, ok := im.nodes[p]
	if !ok {
		return nil, fmt.Errorf("%s: unknown process %s", name, p)
	}
	return n, nil
}

// Perform implements ioa.Automaton.
func (im *Impl) Perform(act ioa.Action) error {
	switch act.Name {
	case vsspec.ActCreateView, vsspec.ActOrder:
		return im.vs.Perform(act)

	case vsspec.ActNewView:
		p, ok := act.Param.(vsspec.NewViewParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		if err := im.vs.Perform(act); err != nil {
			return err
		}
		n.onVSNewView(p.View)
		return nil

	case vsspec.ActGpRcv, vsspec.ActSafe:
		p, ok := act.Param.(vsspec.RcvParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.To)
		if err != nil {
			return err
		}
		if err := im.vs.Perform(act); err != nil {
			return err
		}
		if act.Name == vsspec.ActGpRcv {
			n.onVSGpRcv(p.M, p.From)
		} else {
			n.onVSSafe(p.M, p.From)
		}
		return nil

	case vsspec.ActGpSnd:
		p, ok := act.Param.(vsspec.SndParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		if err := takeVSGpSnd(n, p.P, p.M); err != nil {
			return err
		}
		return im.vs.Perform(act)

	case dvs.ActGpSnd:
		p, ok := act.Param.(dvs.SndParam)
		if !ok {
			return badActParam(act)
		}
		if !types.IsClient(p.M) {
			return fmt.Errorf("dvs-gpsnd: %s is not a client message", p.M.MsgKey())
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		n.onDVSGpSnd(p.M)
		return nil

	case dvs.ActRegister:
		p, ok := act.Param.(dvs.RegisterParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		n.onDVSRegister()
		return nil

	case dvs.ActNewView:
		p, ok := act.Param.(dvs.NewViewParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		return performDVSNewView(n, p.P, p.View)

	case dvs.ActGpRcv, dvs.ActSafe:
		p, ok := act.Param.(dvs.RcvParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.To)
		if err != nil {
			return err
		}
		if act.Name == dvs.ActGpRcv {
			return takeDVSGpRcv(n, p.To, MsgFrom{M: p.M, Q: p.From})
		}
		return takeDVSSafe(n, p.To, MsgFrom{M: p.M, Q: p.From})

	case "dvs-garbage-collect":
		p, ok := act.Param.(GCParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		return n.performGC(p.View)

	default:
		return fmt.Errorf("dvs-impl: unknown action %q", act.Name)
	}
}

// The validating forms of the four outputs whose effect drain applies
// unguarded: Perform is handed an action by name and parameter, possibly one
// that is not enabled, so here the guard is evaluated against the parameter
// before the same effect runs. They are written over Filter so that both
// implementations answer to one statement of each precondition.

// takeVSGpSnd is vs-gpsnd(m)_p: m must be the head of msgs-to-vs[cur.id].
func takeVSGpSnd(f Filter, p types.ProcID, m types.Msg) error {
	if head, ok := f.vsGpSndHead(); !ok || !head.EqualMsg(m) {
		return fmt.Errorf("vs-gpsnd(%s)_%s: not head of msgs-to-vs", m.MsgKey(), p)
	}
	f.popVSGpSnd()
	return nil
}

// performDVSNewView is dvs-newview(v)_p: v must be the enabled candidate.
func performDVSNewView(f Filter, p types.ProcID, v types.View) error {
	if cand, ok := f.dvsNewViewEnabled(); !ok || cand != v {
		return fmt.Errorf("dvs-newview(%s)_%s: not enabled", v, p)
	}
	f.dvsNewView(v)
	return nil
}

// takeDVSGpRcv is dvs-gprcv(m)_{q,p}: ⟨m, q⟩ must be the head of
// msgs-from-vs[client-cur.id].
func takeDVSGpRcv(f Filter, p types.ProcID, e MsgFrom) error {
	if head, ok := f.dvsGpRcvHead(); !ok || !head.Equal(e) {
		return fmt.Errorf("dvs-gprcv(%s)_%s,%s: not head of msgs-from-vs", e.M.MsgKey(), e.Q, p)
	}
	f.popDVSGpRcv()
	return nil
}

// takeDVSSafe is dvs-safe(m)_{q,p}: ⟨m, q⟩ must be the head of
// safe-from-vs[client-cur.id].
func takeDVSSafe(f Filter, p types.ProcID, e MsgFrom) error {
	if head, ok := f.dvsSafeHead(); !ok || !head.Equal(e) {
		return fmt.Errorf("dvs-safe(%s)_%s,%s: not head of safe-from-vs", e.M.MsgKey(), e.Q, p)
	}
	f.popDVSSafe()
	return nil
}

func badActParam(act ioa.Action) error {
	return fmt.Errorf("%s: bad parameter type %T", act.Name, act.Param)
}

// Clone implements ioa.Automaton.
func (im *Impl) Clone() ioa.Automaton {
	c := &Impl{
		universe: im.universe,
		initial:  im.initial,
		procs:    types.CloneSeq(im.procs),
		vs:       im.vs.Clone().(*vsspec.VS),
		nodes:    make(map[types.ProcID]*Node, len(im.nodes)),
		syms:     im.syms, // immutable; shared across clones
	}
	for p, n := range im.nodes {
		c.nodes[p] = n.Clone()
	}
	return c
}
