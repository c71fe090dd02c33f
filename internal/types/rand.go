package types

import "math/rand"

// RandomSubset returns a uniformly random nonempty subset of procs.
// It panics only if procs is empty, which callers must not allow.
func RandomSubset(rng *rand.Rand, procs []ProcID) ProcSet {
	for {
		var s ProcSet
		for _, p := range procs {
			if rng.Intn(2) == 0 {
				s = s.With(p)
			}
		}
		if s.Len() > 0 {
			return s
		}
	}
}

// RandomMember returns a uniformly random element of procs.
func RandomMember(rng *rand.Rand, procs []ProcID) ProcID {
	return procs[rng.Intn(len(procs))]
}
