package dvscore

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	vsspec "repro/internal/spec/vs"
	"repro/internal/types"
)

// Refinement is the function F of Figure 4, mechanized as an ioa.Refinement
// from DVS-IMPL to the DVS specification. Beyond Figure 4's components we
// also map the specification's attempted sets (t.attempted[g] = processes
// that attempted the view with id g), which Figure 4 leaves implicit because
// they are proof-only variables; this is required for full-state comparison.
type Refinement struct {
	Universe types.ProcSet
	Initial  types.View
	// Literal selects the DVS specification exactly as printed in Figure 2
	// as the target. The literal refinement is NOT valid — the dvs-safe step
	// correspondence fails (see the spec/dvs package documentation) — and is
	// provided so that tests can demonstrate the failing step mechanically.
	Literal bool
}

var _ ioa.Refinement = (*Refinement)(nil)

// SpecInitial implements ioa.Refinement.
func (r *Refinement) SpecInitial() ioa.Automaton {
	if r.Literal {
		return dvs.NewLiteral(r.Universe, r.Initial)
	}
	return dvs.New(r.Universe, r.Initial)
}

// Abstract implements ioa.Refinement: it computes F(s) per Figure 4.
func (r *Refinement) Abstract(a ioa.Automaton) (ioa.Automaton, error) {
	im, ok := a.(*Impl)
	if !ok {
		return nil, fmt.Errorf("abstract: want *dvscore.Impl, got %T", a)
	}
	st := dvs.State{
		State: vsspec.State{
			Universe: r.Universe,
			Initial:  r.Initial,
			Current:  make(map[types.ProcID]types.ViewID),
			Queues:   make(map[types.ViewID][]dvs.Entry),
			Pending:  make(map[vsspec.ProcView][]types.Msg),
			Next:     make(vsspec.Counter),
			NextSafe: make(vsspec.Counter),
		},
		Literal:    r.Literal,
		Attempted:  make(map[types.ViewID]types.ProcSet),
		Registered: make(map[types.ViewID]types.ProcSet),
		Rcvd:       make(vsspec.Counter),
	}

	// t.created = ∪_p attempted_p; t.attempted[g] = attempting processes.
	createdIDs := make(map[types.ViewID]types.View)
	for _, p := range im.procs {
		for _, v := range im.nodes[p].Attempted() {
			createdIDs[v.ID] = v
			st.Attempted[v.ID] = st.Attempted[v.ID].With(p)
		}
	}
	for _, v := range createdIDs {
		st.Created = append(st.Created, v)
	}

	vsCreated := im.vs.Created()
	for _, p := range im.procs {
		n := im.nodes[p]
		// t.current-viewid[p] = client-cur.id_p.
		if cc, ok := n.ClientCur(); ok {
			st.Current[p] = cc.ID
		}
		// t.registered[g] = {p | reg[g]_p}.
		for _, v := range vsCreated {
			if n.Reg(v.ID) {
				st.Registered[v.ID] = st.Registered[v.ID].With(p)
			}
		}
	}

	for _, v := range vsCreated {
		g := v.ID
		// t.queue[g] = purge(s.queue[g]).
		var tq []dvs.Entry
		vsQueue := im.vs.QueueShared(g)
		for _, e := range vsQueue {
			if types.IsClient(e.M) {
				tq = append(tq, e)
			}
		}
		if len(tq) > 0 {
			st.Queues[g] = tq
		}
		for _, p := range im.procs {
			n, k := im.nodes[p], vsspec.ProcView{P: p, G: g}
			// t.pending[p,g] = purge(s.pending[p,g]) + purge(s.msgs-to-vs[g]_p).
			pend := Purge(im.vs.PendingShared(p, g))
			pend = append(pend, Purge(n.msgsToVS[g])...)
			if len(pend) > 0 {
				st.Pending[k] = pend
			}
			// t.rcvd[p,g] = s.next[p,g] - purgesize(queue(1..next-1)): the
			// client messages p's service endpoint has received in g
			// (amended target only). A counter at 1 is left absent.
			next := im.vs.Next(p, g)
			tRcvd := next - purgeSizeEntries(vsQueue[:next-1])
			if !r.Literal && tRcvd != 1 {
				st.Rcvd[k] = tRcvd
			}
			// t.next[p,g] = s.next[p,g] - purgesize(queue(1..next-1)) - |msgs-from-vs[g]_p|.
			if tNext := tRcvd - len(n.msgsFromVS[g]); tNext != 1 {
				st.Next[k] = tNext
			}
			// t.next-safe analogous with safe-from-vs.
			ns := im.vs.NextSafe(p, g)
			if tNS := ns - purgeSizeEntries(vsQueue[:ns-1]) - len(n.safeFromVS[g]); tNS != 1 {
				st.NextSafe[k] = tNS
			}
		}
	}
	return dvs.FromState(st), nil
}

func purgeSizeEntries(q []vsspec.Entry) int {
	n := 0
	for _, e := range q {
		if !types.IsClient(e.M) {
			n++
		}
	}
	return n
}

// Plan implements ioa.Refinement, following the case analysis of Lemma 5.8:
//
//   - external DVS actions map to themselves, except dvs-newview(v)_p which
//     is preceded by dvs-createview(v) when v is not yet in F(s).created
//     ("we think of DVS-CREATEVIEW(v) as occurring at the time of the first
//     DVS-NEWVIEW(v) event");
//   - vs-order on a client message maps to dvs-order;
//   - every other hidden action maps to the empty fragment.
func (r *Refinement) Plan(pre ioa.Automaton, act ioa.Action) ([]ioa.Action, error) {
	im, ok := pre.(*Impl)
	if !ok {
		return nil, fmt.Errorf("plan: want *dvscore.Impl, got %T", pre)
	}
	switch act.Name {
	case dvs.ActNewView:
		p, ok := act.Param.(dvs.NewViewParam)
		if !ok {
			return nil, badActParam(act)
		}
		created := false
		for _, q := range im.procs {
			if im.nodes[q].HasAttempted(p.View.ID) {
				created = true
				break
			}
		}
		if created {
			return []ioa.Action{act}, nil
		}
		return []ioa.Action{
			{Name: dvs.ActCreateView, Kind: ioa.KindInternal, Param: dvs.CreateViewParam{View: p.View}},
			act,
		}, nil

	case dvs.ActGpSnd, dvs.ActRegister, dvs.ActGpRcv, dvs.ActSafe:
		return []ioa.Action{act}, nil

	case vsspec.ActOrder:
		p, ok := act.Param.(vsspec.OrderParam)
		if !ok {
			return nil, badActParam(act)
		}
		if !types.IsClient(p.M) {
			return nil, nil
		}
		return []ioa.Action{{Name: dvs.ActOrder, Kind: ioa.KindInternal, Param: p}}, nil

	case vsspec.ActGpRcv:
		if r.Literal {
			return nil, nil
		}
		p, ok := act.Param.(vsspec.RcvParam)
		if !ok {
			return nil, badActParam(act)
		}
		if !types.IsClient(p.M) {
			return nil, nil
		}
		// The receiving process's VS-current view in the pre-state is the
		// view the message is consumed in.
		g, hasView := im.vs.CurrentViewID(p.To)
		if !hasView {
			return nil, fmt.Errorf("plan vs-gprcv: %s has no current view", p.To)
		}
		return []ioa.Action{{
			Name:  dvs.ActRcv,
			Kind:  ioa.KindInternal,
			Param: dvs.SvcRcvParam{M: p.M, From: p.From, To: p.To, G: g},
		}}, nil

	case vsspec.ActCreateView, vsspec.ActNewView, vsspec.ActGpSnd,
		vsspec.ActSafe, "dvs-garbage-collect":
		return nil, nil

	default:
		return nil, fmt.Errorf("plan: unknown implementation action %q", act.Name)
	}
}
