package dvs

import (
	"repro/internal/ioa"
	"repro/internal/spec/vs"
	"repro/internal/types"
)

// NewEnv returns the channel's random environment (vs.Env) for driving the
// DVS specification directly: client broadcasts, a dvs-register at a random
// process after each, and dvs-createview proposals that satisfy the
// creation precondition.
func NewEnv(seed int64, universe types.ProcSet) *vs.Env {
	return vs.EnvFor(seed, universe, &names, func(p types.ProcID) ioa.Action {
		return ioa.Action{Name: ActRegister, Kind: ioa.KindInput, Param: RegisterParam{P: p}}
	})
}
