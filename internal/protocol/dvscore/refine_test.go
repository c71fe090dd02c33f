package dvscore

import (
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	"repro/internal/types"
)

// TestTheorem59Refinement mechanically checks Theorem 5.9 against the
// amended DVS specification: every step of DVS-IMPL simulates a DVS
// fragment with the same trace under the refinement of Figure 4, on seeded
// random executions, with Invariants 5.1–5.6 checked on every
// implementation state and 4.1–4.2 on every specification state.
func TestTheorem59Refinement(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		universe, v0 := implSetup(n)
		ref := &Refinement{Universe: universe, Initial: v0}
		cfg := ioa.CheckerConfig{
			Steps:          400,
			ImplInvariants: Invariants(),
			SpecInvariants: dvs.Invariants(),
		}
		_, err := ioa.CheckRefinementSeeds(5,
			func() ioa.Automaton { return NewImpl(universe, v0) },
			ref,
			func(int64) ioa.Environment { return NewEnv(int64(n)*99, universe) },
			cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestLiteralRefinementFailsAtSafe demonstrates the discrepancy the
// mechanization uncovered: against the DVS specification exactly as printed
// in Figure 2, the refinement of Figure 4 is NOT valid — the dvs-safe step
// correspondence fails, because the implementation reports safety at
// service-endpoint level while the printed specification demands
// client-level delivery at every member.
func TestLiteralRefinementFailsAtSafe(t *testing.T) {
	universe, v0 := implSetup(4)
	ref := &Refinement{Universe: universe, Initial: v0, Literal: true}
	for seed := int64(0); seed < 30; seed++ {
		_, err := ioa.CheckRefinement(NewImpl(universe, v0), ref,
			NewEnv(seed+1000, universe),
			ioa.CheckerConfig{Steps: 500, Seed: seed})
		if err == nil {
			continue
		}
		if strings.Contains(err.Error(), "dvs-safe") {
			t.Logf("literal refinement fails as predicted at seed %d: %v", seed, err)
			return
		}
		t.Fatalf("unexpected failure mode: %v", err)
	}
	t.Fatal("expected the literal refinement to fail at a dvs-safe step")
}

func TestAbstractInitialState(t *testing.T) {
	universe, v0 := implSetup(4)
	ref := &Refinement{Universe: universe, Initial: v0}
	abs, err := ref.Abstract(NewImpl(universe, v0))
	if err != nil {
		t.Fatal(err)
	}
	if ioa.FpOf(abs) != ioa.FpOf(dvs.New(universe, v0)) {
		t.Error("F(init) must equal the DVS initial state (Lemma 5.7)")
	}
}

func TestPlanShapes(t *testing.T) {
	universe, v0 := implSetup(4)
	im := NewImpl(universe, v0)
	ref := &Refinement{Universe: universe, Initial: v0}

	// dvs-gpsnd maps to itself.
	snd := ioa.Action{Name: dvs.ActGpSnd, Kind: ioa.KindInput, Param: dvs.SndParam{M: types.ClientMsg("x"), P: 0}}
	plan, err := ref.Plan(im, snd)
	if err != nil || len(plan) != 1 || plan[0].Key() != snd.Key() {
		t.Errorf("plan(gpsnd) = %v, %v", plan, err)
	}

	// garbage collection maps to the empty fragment.
	gc := ioa.Action{Name: "dvs-garbage-collect", Kind: ioa.KindInternal, Param: GCParam{View: v0, P: 0}}
	plan, err = ref.Plan(im, gc)
	if err != nil || len(plan) != 0 {
		t.Errorf("plan(gc) = %v, %v", plan, err)
	}

	// unknown action is an error.
	if _, err := ref.Plan(im, ioa.Action{Name: "bogus"}); err == nil {
		t.Error("unknown action must fail planning")
	}
}
