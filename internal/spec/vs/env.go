package vs

import (
	"strconv"

	"repro/internal/ioa"
	"repro/internal/types"
)

// Env supplies inputs for driving a specification automaton over the
// channel: client broadcasts, createview proposals with arbitrary
// membership and increasing ids that satisfy the automaton's Rules, and,
// when given one, an extra per-process input.
//
// Enumeration is a pure function of (seed, automaton state): the candidate
// set is derived from a per-state PRNG seeded by ioa.StateSeed, and the
// view cap counts views already created in the state rather than proposals
// made by this Env value. Equal states therefore always offer equal inputs,
// which keeps ioa.Explore's fingerprint dedup sound and makes every seeded
// execution reproducible in isolation.
type Env struct {
	seed     int64
	procs    []types.ProcID
	names    *Names
	extra    func(types.ProcID) ioa.Action
	MaxViews int // cap on created views, counting v0 (0 = unlimited)
}

var _ ioa.Environment = (*Env)(nil)

// NewEnv returns an environment for VS over the given universe.
func NewEnv(seed int64, universe types.ProcSet) *Env {
	return EnvFor(seed, universe, &figure1, nil)
}

// EnvFor returns an environment for an automaton over the channel whose
// actions n names. extra, if not nil, is an input drawn at a random process
// after each broadcast.
func EnvFor(seed int64, universe types.ProcSet, n *Names, extra func(types.ProcID) ioa.Action) *Env {
	return &Env{seed: seed, procs: universe.Sorted(), names: n, extra: extra, MaxViews: 64}
}

// Inputs implements ioa.Environment.
func (e *Env) Inputs(a ioa.Automaton) []ioa.Action {
	spec, ok := a.(interface {
		Rules
		CreatedCount() int
		MaxCreatedID() types.ViewID
	})
	if !ok {
		return nil
	}
	rng := ioa.SeededRng(ioa.StateSeed(e.seed, a))
	defer ioa.PutRng(rng)
	var acts []ioa.Action

	p := types.RandomMember(rng, e.procs)
	m := types.ClientMsg("m" + strconv.FormatUint(rng.Uint64(), 36))
	acts = append(acts, ioa.Action{Name: e.names.GpSnd, Kind: ioa.KindInput, Param: SndParam{M: m, P: p}})
	if e.extra != nil {
		acts = append(acts, e.extra(types.RandomMember(rng, e.procs)))
	}

	if e.MaxViews == 0 || spec.CreatedCount() < e.MaxViews {
		maxID := spec.MaxCreatedID()
		// Retry a few memberships from the per-state PRNG: a single
		// rejected draw must not silence view creation in a state the
		// execution may never leave (inputs that are no-ops keep the
		// state, and hence the draw, identical).
		for try := 0; try < candidateTries; try++ {
			members := types.RandomSubset(rng, e.procs)
			cand := types.View{ID: maxID.Next(members.First()), Members: members}
			if spec.CreateViewCandidateOK(cand) {
				acts = append(acts, ioa.Action{Name: e.names.CreateView, Kind: ioa.KindInternal, Param: CreateViewParam{View: cand}})
				break
			}
		}
	}
	return acts
}

// candidateTries bounds the per-state membership draws for a view
// candidate satisfying the creation precondition.
const candidateTries = 16
