package dvs

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol/dvscore"
	"repro/internal/types"
)

func TestCheckVSInvariants(t *testing.T) {
	rep, err := CheckVSInvariants(CheckConfig{Steps: 300, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 4 || rep.Steps == 0 || rep.InvariantEvals == 0 {
		t.Errorf("implausible report: %+v", rep)
	}
}

func TestCheckDVSInvariants(t *testing.T) {
	if _, err := CheckDVSInvariants(CheckConfig{Steps: 300, Seeds: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDVSRefinement(t *testing.T) {
	if _, err := CheckDVSRefinement(CheckConfig{Steps: 300, Seeds: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckTOTraceInclusion(t *testing.T) {
	if _, err := CheckTOTraceInclusion(CheckConfig{Steps: 300, Seeds: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the individual checks")
	}
	rep, err := CheckAll(CheckConfig{Procs: 3, Steps: 250, Seeds: 2, Initial: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 8 { // 4 checks × 2 seeds
		t.Errorf("executions = %d, want 8", rep.Executions)
	}
}

func TestCheckConfigDefaults(t *testing.T) {
	cfg, universe, v0, err := CheckConfig{}.fill()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Procs != 4 || cfg.Steps != 500 || cfg.Seeds != 10 {
		t.Errorf("defaults = %+v", cfg)
	}
	if universe.Len() != 4 {
		t.Error("universe wrong")
	}
	if v0.Members.Len() != 3 {
		t.Errorf("default v0 = %s", v0)
	}
}

// TestCheckRefusesOutOfRangeUniverse: a universe or an initial member a
// process set cannot hold is an error from every library entry point, not a
// panic.
func TestCheckRefusesOutOfRangeUniverse(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (ioa.CheckReport, error)
	}{
		{"procs", func() (ioa.CheckReport, error) { return CheckVSInvariants(CheckConfig{Procs: 65}) }},
		{"initial", func() (ioa.CheckReport, error) { return CheckDVSInvariants(CheckConfig{Initial: []int{64}}) }},
		{"deep", func() (ioa.CheckReport, error) { return CheckExploreDeep(ExploreDeepConfig{Procs: 65}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.run(); err == nil {
				t.Error("accepted")
			}
		})
	}
}

// falsifiableRun drives DVS-IMPL against the literal Invariant 5.2(3) —
// known (Finding F4) to be violated on reachable states — mirroring exactly
// how CheckVSInvariants/CheckDVSInvariants construct their checks: fresh
// automaton AND fresh environment per seed.
func falsifiableRun(t *testing.T, parallel, seeds int, base int64) error {
	t.Helper()
	universe := types.RangeProcSet(4)
	v0 := types.InitialView(types.NewProcSet(0, 1, 3))
	inv := []ioa.Invariant{{Name: "5.2(3) literal", Check: func(a ioa.Automaton) error {
		return dvscore.CheckInvariant52Part3Literal(a.(*dvscore.Impl))
	}}}
	ex := &ioa.Executor{Steps: 500, Seed: base, Parallel: parallel}
	_, err := ex.RunSeeds(seeds,
		func() ioa.Automaton { return dvscore.NewImpl(universe, v0) },
		func(seed int64) ioa.Environment { return dvscore.NewEnv(seed+2000, universe) },
		inv)
	return err
}

// TestSeedFailureReproducesAlone is the regression test for the headline
// bug: a failure reported as "seed N" must reproduce by re-running with
// Seeds: 1, Seed: N. Before environments were constructed per seed, seed
// N's execution depended on the rng/msgSeq/proposed state left behind by
// seeds 0..N-1 and the report was unreproducible.
func TestSeedFailureReproducesAlone(t *testing.T) {
	full := falsifiableRun(t, 1, 50, 0)
	if full == nil {
		t.Fatal("literal Invariant 5.2(3) should be falsifiable within 50 seeds (Finding F4)")
	}
	var se *ioa.SeedError
	if !errors.As(full, &se) {
		t.Fatalf("failure should carry its seed, got %T: %v", full, full)
	}

	// Re-running the reported seed alone must fail identically.
	alone := falsifiableRun(t, 1, 1, se.Seed)
	if alone == nil {
		t.Fatalf("seed %d did not reproduce in isolation", se.Seed)
	}
	if alone.Error() != full.Error() {
		t.Errorf("isolated re-run differs:\n  full run: %v\n  isolated: %v", full, alone)
	}
	var fullStep, aloneStep *ioa.StepError
	if !errors.As(full, &fullStep) || !errors.As(alone, &aloneStep) {
		t.Fatal("failures should carry StepErrors")
	}
	if fullStep.Step != aloneStep.Step || fullStep.State != aloneStep.State {
		t.Errorf("witness step diverged: step %d vs %d", fullStep.Step, aloneStep.Step)
	}
}

// TestSeedFailureDeterministicAcrossWorkers asserts the parallel engine's
// determinism guarantee: serial, one-worker, and NumCPU-worker fan-outs all
// report the identical lowest failing seed and StepError.
func TestSeedFailureDeterministicAcrossWorkers(t *testing.T) {
	want := falsifiableRun(t, 1, 50, 0)
	if want == nil {
		t.Fatal("literal Invariant 5.2(3) should be falsifiable within 50 seeds (Finding F4)")
	}
	for _, parallel := range []int{0, 1, runtime.NumCPU()} {
		got := falsifiableRun(t, parallel, 50, 0)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("parallel=%d: got %v, want %v", parallel, got, want)
		}
	}
}

// TestChecksDeterministicAcrossWorkers runs every root check serially and
// with NumCPU workers; all must pass with identical per-execution work
// (steps and invariant evaluations are independent of worker count).
func TestChecksDeterministicAcrossWorkers(t *testing.T) {
	checks := []struct {
		name string
		run  func(CheckConfig) (ioa.CheckReport, error)
	}{
		{"vs", CheckVSInvariants},
		{"dvs", CheckDVSInvariants},
		{"refinement", CheckDVSRefinement},
		{"to", CheckTOTraceInclusion},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			cfg := CheckConfig{Steps: 200, Seeds: 4, Parallel: 1}
			serial, err := c.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Parallel = runtime.NumCPU()
			par, err := c.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Steps != par.Steps || serial.InvariantEvals != par.InvariantEvals || serial.Executions != par.Executions {
				t.Errorf("work diverged:\n  serial:   %v\n  parallel: %v", serial, par)
			}
		})
	}
}

// ExampleCheckReport documents the shape of the observability report.
func ExampleCheckReport() {
	rep, err := CheckVSInvariants(CheckConfig{Steps: 100, Seeds: 3, Parallel: 1})
	fmt.Println(err == nil, rep.Executions, rep.Steps > 0, rep.InvariantEvals > 0)
	// Output: true 3 true true
}
