package dvscore

import (
	"math/rand"
	"strconv"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	vsspec "repro/internal/spec/vs"
	"repro/internal/types"
)

// Env is an adversarial environment for DVS-IMPL executions. It supplies:
//
//   - dvs-gpsnd inputs with fresh client messages,
//   - dvs-register inputs (biased toward processes whose client-current view
//     is not yet registered, so registration actually happens on schedules),
//   - vs-createview proposals with random membership sets and increasing
//     ids — including disjoint and minority sets, which VS permits and the
//     VS-TO-DVS filter must reject as primaries.
//
// The environment is deterministic for a given seed, provided the automaton
// is driven deterministically (Enabled() results are sorted).
type Env struct {
	rng      *rand.Rand
	procs    []types.ProcID
	msgSeq   int
	created  int
	MaxViews int // cap on environment-proposed views (0 = unlimited)
}

var _ ioa.Environment = (*Env)(nil)

// NewEnv returns an environment over the given universe.
func NewEnv(seed int64, universe types.ProcSet) *Env {
	return &Env{
		rng:      rand.New(rand.NewSource(seed)),
		procs:    universe.Sorted(),
		MaxViews: 64,
	}
}

// Inputs implements ioa.Environment.
func (e *Env) Inputs(a ioa.Automaton) []ioa.Action {
	im, ok := a.(*Impl)
	if !ok {
		return nil
	}
	var acts []ioa.Action

	// Fresh client broadcast.
	p := types.RandomMember(e.rng, e.procs)
	e.msgSeq++
	m := types.ClientMsg("m" + strconv.Itoa(e.msgSeq))
	acts = append(acts, ioa.Action{Name: dvs.ActGpSnd, Kind: ioa.KindInput, Param: dvs.SndParam{M: m, P: p}})

	// Registration: prefer a process with an unregistered client view.
	regTarget := types.RandomMember(e.rng, e.procs)
	for _, q := range e.procs {
		n := im.Node(q)
		if cc, ok := n.ClientCur(); ok && !n.Reg(cc.ID) {
			regTarget = q
			break
		}
	}
	acts = append(acts, ioa.Action{Name: dvs.ActRegister, Kind: ioa.KindInput, Param: dvs.RegisterParam{P: regTarget}})

	// View proposal for the underlying VS.
	if e.MaxViews == 0 || e.created < e.MaxViews {
		members := types.RandomSubset(e.rng, e.procs)
		id := im.vs.MaxCreatedID().Next(members.First())
		v := types.View{ID: id, Members: members}
		if im.vs.CreateViewCandidateOK(v) {
			e.created++
			acts = append(acts, ioa.Action{Name: vsspec.ActCreateView, Kind: ioa.KindInternal, Param: vsspec.CreateViewParam{View: v}})
		}
	}
	return acts
}

// BoundedEnv is a finitely-branching, *stateless* environment for
// exhaustive exploration of DVS-IMPL (ioa.Explore): the available inputs
// are a function of the automaton state only, so state deduplication
// remains sound.
//
//   - dvs-gpsnd("m")_p is offered while the total number of client messages
//     in the system is below MaxMsgs (client messages never leave the
//     system state — queues are persistent — so the count bounds every
//     path);
//   - dvs-register_p is offered only when p's client view is unregistered
//     (registering twice would grow the "registered" message queues without
//     bound);
//   - vs-createview is offered for each candidate membership in Views, with
//     the next available identifier, while fewer than MaxViews views exist.
type BoundedEnv struct {
	MaxMsgs  int
	MaxViews int
	Views    []types.ProcSet
	// AllOrigins proposes each candidate view once per member, with that
	// member as the identifier's origin, instead of once with the least
	// member as origin. This makes the input enumeration equivariant under
	// process permutations — required for symmetry reduction (the
	// least-member choice is not: π of the least member need not be the
	// least member of the π-image). Views must additionally be closed under
	// the symmetry group (e.g. every membership of a given size, or the full
	// universe). The candidate identifier's sequence number is the same
	// either way, so the reachable states per (membership, origin) pair are
	// unchanged; the state space grows only by the extra origin choices.
	AllOrigins bool
}

var _ ioa.Environment = (*BoundedEnv)(nil)

// Inputs implements ioa.Environment.
func (e *BoundedEnv) Inputs(a ioa.Automaton) []ioa.Action {
	im, ok := a.(*Impl)
	if !ok {
		return nil
	}
	var acts []ioa.Action

	if countClientMsgs(im) < e.MaxMsgs {
		for _, p := range im.procs {
			acts = append(acts, ioa.Action{Name: dvs.ActGpSnd, Kind: ioa.KindInput,
				Param: dvs.SndParam{M: types.ClientMsg("m"), P: p}})
		}
	}
	for _, p := range im.procs {
		n := im.Node(p)
		if cc, ok := n.ClientCur(); ok && !n.Reg(cc.ID) {
			acts = append(acts, ioa.Action{Name: dvs.ActRegister, Kind: ioa.KindInput,
				Param: dvs.RegisterParam{P: p}})
		}
	}
	if im.vs.CreatedCount() < e.MaxViews {
		next := im.vs.MaxCreatedID()
		for _, members := range e.Views {
			for o := members.First(); o >= 0; o = members.Next(o) {
				v := types.View{ID: next.Next(o), Members: members}
				if im.vs.CreateViewCandidateOK(v) {
					acts = append(acts, ioa.Action{Name: vsspec.ActCreateView, Kind: ioa.KindInternal,
						Param: vsspec.CreateViewParam{View: v}})
				}
				if !e.AllOrigins {
					break // the least origin only
				}
			}
		}
	}
	return acts
}

// countClientMsgs counts the client messages present anywhere in the
// system: VS queues and pendings plus the nodes' outgoing buffers. Client
// messages never leave these stores (per-view queues persist), so the count
// is monotone along every execution path.
func countClientMsgs(im *Impl) int {
	countClient := func(q []types.Msg) int {
		n := 0
		for _, m := range q {
			if types.IsClient(m) {
				n++
			}
		}
		return n
	}
	total := 0
	for _, v := range im.vs.Created() {
		g := v.ID
		for _, e := range im.vs.QueueShared(g) {
			if types.IsClient(e.M) {
				total++
			}
		}
		for _, p := range im.procs {
			total += countClient(im.vs.PendingShared(p, g))
			total += countClient(im.nodes[p].msgsToVS[g])
		}
	}
	return total
}
