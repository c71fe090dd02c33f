package dvscore

import (
	"testing"

	"repro/internal/ioa"
)

// TestExecutionDeterminism: two fresh DVS-IMPL instances driven with the
// same executor and environment seeds must reach identical states — the
// property that makes every witness in this repository reproducible.
func TestExecutionDeterminism(t *testing.T) {
	universe, v0 := implSetup(5)
	run := func() string {
		ex := &ioa.Executor{Steps: 400, Seed: 17}
		res, err := ex.Run(NewImpl(universe, v0), NewEnv(71, universe), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ioa.Render(res.Final)
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("same seeds produced different executions")
	}
}

// TestCloneMidExecutionEquivalence: cloning mid-run and replaying the same
// action choices must keep the clone in lock-step with the original.
func TestCloneMidExecutionEquivalence(t *testing.T) {
	universe, v0 := implSetup(4)
	im := NewImpl(universe, v0)
	ex := &ioa.Executor{Steps: 200, Seed: 3}
	if _, err := ex.Run(im, NewEnv(9, universe), nil); err != nil {
		t.Fatal(err)
	}
	clone := im.Clone().(*Impl)
	// Drive both with the identical deterministic schedule: always the
	// first enabled action.
	for step := 0; step < 100; step++ {
		actsA := im.Enabled()
		actsB := clone.Enabled()
		if len(actsA) != len(actsB) {
			t.Fatalf("step %d: enabled sets differ in size", step)
		}
		if len(actsA) == 0 {
			break
		}
		if actsA[0].Key() != actsB[0].Key() {
			t.Fatalf("step %d: first enabled action differs: %s vs %s", step, actsA[0], actsB[0])
		}
		if err := im.Perform(actsA[0]); err != nil {
			t.Fatal(err)
		}
		if err := clone.Perform(actsB[0]); err != nil {
			t.Fatal(err)
		}
		if ioa.Render(im) != ioa.Render(clone) {
			t.Fatalf("step %d: states diverged", step)
		}
	}
}
