// Package quorum provides static quorum systems: the pre-defined primary
// definitions (Section 1 of the paper) that dynamic voting replaces. They
// back the static baseline (dvscore.StaticNode) and the availability
// experiments.
package quorum

import (
	"fmt"

	"repro/internal/types"
)

// System decides whether a set of processes constitutes a quorum. Any two
// quorums of a well-formed system intersect.
type System interface {
	// IsQuorum reports whether s contains a quorum.
	IsQuorum(s types.ProcSet) bool
	// Name describes the system.
	Name() string
}

// MajoritySystem is the simple majority quorum system over a fixed universe.
type MajoritySystem struct {
	universe types.ProcSet
}

var _ System = (*MajoritySystem)(nil)

// Majority builds the strict-majority system over the universe.
func Majority(universe types.ProcSet) *MajoritySystem {
	return &MajoritySystem{universe: universe.Clone()}
}

// IsQuorum implements System: |s ∩ U| > |U|/2.
func (m *MajoritySystem) IsQuorum(s types.ProcSet) bool {
	return s.MajorityOf(m.universe)
}

// Name implements System.
func (m *MajoritySystem) Name() string {
	return fmt.Sprintf("majority(%s)", m.universe)
}

// Universe returns the fixed universe.
func (m *MajoritySystem) Universe() types.ProcSet { return m.universe.Clone() }

// WeightedSystem is a weighted-majority quorum system: a set is a quorum if
// its members' weights sum to strictly more than half the total weight.
type WeightedSystem struct {
	weights map[types.ProcID]int
	total   int
}

var _ System = (*WeightedSystem)(nil)

// Weighted builds a weighted-majority system. Processes absent from the map
// have weight zero.
func Weighted(weights map[types.ProcID]int) *WeightedSystem {
	w := &WeightedSystem{weights: make(map[types.ProcID]int, len(weights))}
	for p, wt := range weights {
		if wt > 0 {
			w.weights[p] = wt
			w.total += wt
		}
	}
	return w
}

// IsQuorum implements System.
func (w *WeightedSystem) IsQuorum(s types.ProcSet) bool {
	sum := 0
	for p := range s {
		sum += w.weights[p]
	}
	return 2*sum > w.total
}

// Name implements System.
func (w *WeightedSystem) Name() string { return "weighted-majority" }

// ExplicitSystem is a quorum system given by an explicit list of minimal
// quorums (e.g. a grid or tree construction computed elsewhere).
type ExplicitSystem struct {
	quorums []types.ProcSet
	name    string
}

var _ System = (*ExplicitSystem)(nil)

// Explicit builds a system from its minimal quorums. It returns an error if
// some pair of quorums does not intersect (an ill-formed system would break
// the coherence arguments quorums exist to support).
func Explicit(name string, quorums []types.ProcSet) (*ExplicitSystem, error) {
	for i := range quorums {
		for j := i + 1; j < len(quorums); j++ {
			if !quorums[i].Intersects(quorums[j]) {
				return nil, fmt.Errorf("quorums %s and %s do not intersect", quorums[i], quorums[j])
			}
		}
	}
	cp := make([]types.ProcSet, len(quorums))
	for i, q := range quorums {
		cp[i] = q.Clone()
	}
	return &ExplicitSystem{quorums: cp, name: name}, nil
}

// IsQuorum implements System: s is a quorum if it contains some minimal
// quorum.
func (e *ExplicitSystem) IsQuorum(s types.ProcSet) bool {
	for _, q := range e.quorums {
		if q.Subset(s) {
			return true
		}
	}
	return false
}

// Name implements System.
func (e *ExplicitSystem) Name() string { return e.name }
