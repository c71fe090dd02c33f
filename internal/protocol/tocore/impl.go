package tocore

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	"repro/internal/spec/to"
	"repro/internal/types"
)

// LabelParam parameterizes the internal label(a)_p action.
type LabelParam struct {
	A string
	P types.ProcID
}

// String renders the parameter canonically.
func (p LabelParam) String() string { return p.A + "_" + p.P.String() }

// ConfirmParam parameterizes the internal confirm_p action.
type ConfirmParam struct{ P types.ProcID }

// String renders the parameter canonically.
func (p ConfirmParam) String() string { return p.P.String() }

// DVSVariant selects which DVS specification TO-IMPL composes with.
type DVSVariant int

// DVS variants. The zero value is DVSLiteral: the paper's own setting for
// Section 6 (Figure 5 over Figure 2 exactly as printed), under which
// Theorem 6.4 holds. DVSAmended is the endpoint-level-safe specification
// that the Figure 3 implementation actually refines; Figure 5 is UNSAFE over
// it (total order can diverge — see the tests), because endpoint-level safe
// no longer guarantees that a member moving to a new view carries every
// confirmed message in its summary. DVSAmendedDrained adds the
// view-synchronous drain rule, restoring safety; it is the contract the
// runtime stack in this repository provides.
const (
	DVSLiteral DVSVariant = iota
	DVSAmended
	DVSAmendedDrained
)

// Config selects the variant of TO-IMPL to build.
type Config struct {
	// DVS selects the DVS specification variant to compose with.
	DVS DVSVariant
	// LiteralFigure5 uses Figure 5's LABEL precondition and
	// DVS-SAFE(summary) handler exactly as printed; the default requires
	// status = normal to label (preventing duplicate ordering of labels
	// created during recovery) and defers marking the state exchange safe
	// until the view is established locally.
	LiteralFigure5 bool
	// Universe gives every node the EvUniverse input before anything else,
	// as the runtime shell does, so the nodes truncate; without it they are
	// Figure 5 and hold everything.
	Universe bool
}

// Impl is TO-IMPL: the composition of the DVS specification automaton with
// one DVS-TO-TO_p automaton per process, with all DVS actions hidden. Its
// external signature is that of the TO service: bcast(a)_p inputs and
// brcv(a)_{q,p} outputs.
type Impl struct {
	universe types.ProcSet
	initial  types.View
	procs    []types.ProcID
	cfg      Config
	dvs      *dvs.DVS
	nodes    map[types.ProcID]*Node
	// dropped is the history variable of truncation: the labels each node
	// has dropped, which the node itself knows only by count and digest.
	dropped map[types.ProcID][]types.Label
	syms    []types.Perm `ioa:"shared"`
}

var _ ioa.Automaton = (*Impl)(nil)

// NewImpl constructs TO-IMPL in its initial state.
func NewImpl(universe types.ProcSet, initial types.View, cfg Config) *Impl {
	im := &Impl{
		universe: universe,
		initial:  initial,
		procs:    universe.Sorted(),
		cfg:      cfg,
		nodes:    make(map[types.ProcID]*Node, universe.Len()),
		dropped:  make(map[types.ProcID][]types.Label),
	}
	switch cfg.DVS {
	case DVSAmended:
		im.dvs = dvs.New(universe, initial)
	case DVSAmendedDrained:
		im.dvs = dvs.NewDrained(universe, initial)
	default:
		im.dvs = dvs.NewLiteral(universe, initial)
	}
	for _, p := range im.procs {
		im.nodes[p] = NewNode(p, initial, initial.Contains(p), cfg.LiteralFigure5)
		if cfg.Universe {
			im.nodes[p].onUniverse(universe)
		}
	}
	return im
}

// Name implements ioa.Automaton.
func (im *Impl) Name() string { return "TO-IMPL" }

// DVS exposes the inner DVS automaton.
func (im *Impl) DVS() *dvs.DVS { return im.dvs }

// Node returns the DVS-TO-TO automaton of process p.
func (im *Impl) Node(p types.ProcID) *Node { return im.nodes[p] }

// Enabled implements ioa.Automaton.
func (im *Impl) Enabled() []ioa.Action {
	var acts []ioa.Action
	for _, a := range im.dvs.Enabled() {
		a.Kind = ioa.KindInternal // DVS actions are hidden in TO-IMPL
		acts = append(acts, a)
	}
	for _, p := range im.procs {
		n := im.nodes[p]
		if a, ok := n.labelHead(); ok {
			acts = append(acts, ioa.Action{Name: "label", Kind: ioa.KindInternal, Param: LabelParam{A: a, P: p}})
		}
		if m, ok := n.gpSndLabel(); ok {
			acts = append(acts, ioa.Action{Name: dvs.ActGpSnd, Kind: ioa.KindInternal, Param: dvs.SndParam{M: m, P: p}})
		}
		if m, ok := n.gpSndSummary(); ok {
			acts = append(acts, ioa.Action{Name: dvs.ActGpSnd, Kind: ioa.KindInternal, Param: dvs.SndParam{M: m, P: p}})
		}
		if n.confirmEnabled() {
			acts = append(acts, ioa.Action{Name: "confirm", Kind: ioa.KindInternal, Param: ConfirmParam{P: p}})
		}
		if a, origin, ok := n.brcvNext(); ok {
			acts = append(acts, ioa.Action{Name: to.ActBRcv, Kind: ioa.KindOutput, Param: to.BRcvParam{A: a, Origin: origin, To: p}})
		}
		if n.registerEnabled() {
			acts = append(acts, ioa.Action{Name: dvs.ActRegister, Kind: ioa.KindInternal, Param: dvs.RegisterParam{P: p}})
		}
	}
	ioa.SortActions(acts)
	return acts
}

// node returns the DVS-TO-TO automaton the action named name addresses, or
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
	case to.ActBCast:
		p, ok := act.Param.(to.BCastParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		n.onBCast(p.A)
		return nil

	case "label":
		p, ok := act.Param.(LabelParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		return n.performLabel(p.A)

	case "confirm":
		p, ok := act.Param.(ConfirmParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		return im.recordDrops(n, n.performConfirm)

	case to.ActBRcv:
		p, ok := act.Param.(to.BRcvParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.To)
		if err != nil {
			return err
		}
		return im.recordDrops(n, func() error { return n.performBRcv(p.A, p.Origin) })

	case dvs.ActGpSnd:
		p, ok := act.Param.(dvs.SndParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		switch m := p.M.(type) {
		case LabelMsg:
			err = n.takeGpSndLabel(m)
		case SummaryMsg:
			err = n.takeGpSndSummary(m)
		default:
			err = fmt.Errorf("dvs-gpsnd: unexpected message %s", p.M.MsgKey())
		}
		if err != nil {
			return err
		}
		return im.dvs.Perform(act)

	case dvs.ActRegister:
		p, ok := act.Param.(dvs.RegisterParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		if err := n.performRegister(); err != nil {
			return err
		}
		return im.dvs.Perform(act)

	case dvs.ActNewView:
		p, ok := act.Param.(dvs.NewViewParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.P)
		if err != nil {
			return err
		}
		if err := im.dvs.Perform(act); err != nil {
			return err
		}
		n.onDVSNewView(p.View)
		return nil

	case dvs.ActGpRcv, dvs.ActSafe:
		p, ok := act.Param.(dvs.RcvParam)
		if !ok {
			return badActParam(act)
		}
		n, err := im.node(act.Name, p.To)
		if err != nil {
			return err
		}
		if err := im.dvs.Perform(act); err != nil {
			return err
		}
		if act.Name == dvs.ActGpRcv {
			return n.onDVSGpRcv(p.M, p.From)
		}
		return im.recordDrops(n, func() error { return n.onDVSSafe(p.M, p.From) })

	case dvs.ActCreateView, dvs.ActOrder, dvs.ActRcv:
		return im.dvs.Perform(act)

	default:
		return fmt.Errorf("to-impl: unknown action %q", act.Name)
	}
}

// recordDrops runs something that may truncate — confirm, brcv and dvs-safe
// do — and appends what the node dropped to its history variable. The old order's storage still
// holds it: truncation only advances the slice.
func (im *Impl) recordDrops(n *Node, act func() error) error {
	held, base := n.order, n.base
	err := act()
	if n.base > base {
		im.dropped[n.p] = append(im.dropped[n.p], held[:n.base-base]...)
	}
	return err
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
		cfg:      im.cfg,
		dvs:      im.dvs.Clone().(*dvs.DVS),
		nodes:    make(map[types.ProcID]*Node, len(im.nodes)),
		dropped:  make(map[types.ProcID][]types.Label, len(im.dropped)),
		syms:     im.syms, // immutable; shared across clones
	}
	for p, n := range im.nodes {
		c.nodes[p] = n.Clone()
	}
	for p, ls := range im.dropped {
		c.dropped[p] = types.CloneSeq(ls)
	}
	return c
}
