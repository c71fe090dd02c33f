package tocore

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/to"
	"repro/internal/types"
)

// TestRegressionChosenRepSeed7 pins the schedule that exposed finding F5:
// with "chosenrep = any element of reps(Y)" resolved as least-id, a process
// outside P0 (highprimary defaulted to g0, empty order) was chosen as
// representative of the exchange for view {2,3}, and fullorder reordered
// labels that the old view v0 = {0,1,3} had already confirmed. With the
// longest-order rule the same schedule is safe.
func TestRegressionChosenRepSeed7(t *testing.T) {
	universe := types.RangeProcSet(4)
	v0 := types.InitialView(types.NewProcSet(0, 1, 3))
	impl := NewImpl(universe, v0, Config{DVS: DVSLiteral})
	mon := to.NewMonitor(universe)
	cfg := ioa.CheckerConfig{Steps: 300, Seed: 7, ImplInvariants: Invariants()}
	if _, err := ioa.CheckTraceInclusion(impl, mon, NewEnv(8, universe), cfg); err != nil {
		t.Fatalf("F5 regression: %v", err)
	}
}
