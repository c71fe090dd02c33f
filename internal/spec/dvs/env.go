package dvs

import (
	"strconv"

	"repro/internal/ioa"
	"repro/internal/types"
)

// Env supplies inputs for driving the DVS specification automaton directly:
// client broadcasts, registrations, and dvs-createview proposals that
// satisfy the creation precondition.
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
	MaxViews int // cap on created views, counting v0 (0 = unlimited)
}

var _ ioa.Environment = (*Env)(nil)

// NewEnv returns an environment over the given universe.
func NewEnv(seed int64, universe types.ProcSet) *Env {
	return &Env{
		seed:     seed,
		procs:    universe.Sorted(),
		MaxViews: 64,
	}
}

// Inputs implements ioa.Environment.
func (e *Env) Inputs(a ioa.Automaton) []ioa.Action {
	d, ok := a.(*DVS)
	if !ok {
		return nil
	}
	rng := ioa.SeededRng(ioa.StateSeed(e.seed, a))
	defer ioa.PutRng(rng)
	var acts []ioa.Action

	p := types.RandomMember(rng, e.procs)
	m := types.ClientMsg("m" + strconv.FormatUint(rng.Uint64(), 36))
	acts = append(acts, ioa.Action{Name: ActGpSnd, Kind: ioa.KindInput, Param: SndParam{M: m, P: p}})

	q := types.RandomMember(rng, e.procs)
	acts = append(acts, ioa.Action{Name: ActRegister, Kind: ioa.KindInput, Param: RegisterParam{P: q}})

	if e.MaxViews == 0 || d.CreatedCount() < e.MaxViews {
		maxID := d.MaxCreatedID()
		// Retry a few memberships from the per-state PRNG: a single
		// rejected draw must not silence view creation in a state the
		// execution may never leave (inputs that are no-ops keep the
		// state, and hence the draw, identical).
		for try := 0; try < candidateTries; try++ {
			members := types.RandomSubset(rng, e.procs)
			v := types.View{ID: maxID.Next(members.First()), Members: members}
			if d.CreateViewCandidateOK(v) {
				acts = append(acts, ioa.Action{Name: ActCreateView, Kind: ioa.KindInternal, Param: CreateViewParam{View: v}})
				break
			}
		}
	}
	return acts
}

// candidateTries bounds the per-state membership draws for a view
// candidate satisfying the creation precondition.
const candidateTries = 16
