package tocore

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

// TestExhaustiveSmallTO is complete model checking of TO-IMPL up to the
// depth bound: every state reachable within it satisfies Invariants 6.1–6.3
// and confirmed-prefix consistency, over the literal DVS specification (the
// paper's Theorem 6.4 setting).
func TestExhaustiveSmallTO(t *testing.T) {
	universe := types.RangeProcSet(2)
	v0 := types.InitialView(types.NewProcSet(0, 1))
	env := &BoundedEnv{
		MaxMsgs:  1,
		MaxViews: 2,
		Views:    []types.ProcSet{types.NewProcSet(0), types.NewProcSet(0, 1)},
	}
	res, err := ioa.Explore(NewImpl(universe, v0, Config{DVS: DVSLiteral}), env, ioa.ExploreConfig{
		MaxStates:  200000,
		MaxDepth:   11,
		Invariants: Invariants(),
	})
	if err != nil {
		t.Fatalf("after %d states / %d edges: %v", res.States, res.Edges, err)
	}
	t.Logf("exhaustive TO: %d states, %d edges, depth %d, truncated=%v",
		res.States, res.Edges, res.MaxDepth, res.Truncated)
	if res.States < 100 {
		t.Errorf("suspiciously small state space: %d", res.States)
	}
}

// TestExhaustiveDrainedTO explores the end-to-end sound configuration
// (amended + drained DVS) to the same bound.
func TestExhaustiveDrainedTO(t *testing.T) {
	if testing.Short() {
		t.Skip("larger exploration")
	}
	universe := types.RangeProcSet(2)
	v0 := types.InitialView(types.NewProcSet(0, 1))
	env := &BoundedEnv{
		MaxMsgs:  1,
		MaxViews: 2,
		Views:    []types.ProcSet{types.NewProcSet(0), types.NewProcSet(0, 1)},
	}
	res, err := ioa.Explore(NewImpl(universe, v0, Config{DVS: DVSAmendedDrained}), env, ioa.ExploreConfig{
		MaxStates:  200000,
		MaxDepth:   11,
		Invariants: Invariants(),
	})
	if err != nil {
		t.Fatalf("after %d states / %d edges: %v", res.States, res.Edges, err)
	}
	t.Logf("exhaustive TO (drained): %d states, %d edges, depth %d, truncated=%v",
		res.States, res.Edges, res.MaxDepth, res.Truncated)
}
