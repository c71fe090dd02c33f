package dvscore

import (
	"runtime"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	"repro/internal/types"
)

// TestExhaustiveSmall is complete model checking up to the depth bound:
// every DVS-IMPL state reachable within 12 steps under the bounded
// environment satisfies Invariants 5.1–5.6 AND every explored transition
// satisfies the Figure 4 refinement step-correspondence to the amended DVS
// specification. Unlike the seeded random runs, a pass here covers ALL
// interleavings within the bound.
func TestExhaustiveSmall(t *testing.T) {
	universe := types.RangeProcSet(2)
	v0 := types.InitialView(types.NewProcSet(0, 1))
	env := &BoundedEnv{
		MaxMsgs:  1,
		MaxViews: 2,
		Views:    []types.ProcSet{types.NewProcSet(0), types.NewProcSet(0, 1)},
	}
	ref := &Refinement{Universe: universe, Initial: v0}
	res, err := ioa.Explore(NewImpl(universe, v0), env, ioa.ExploreConfig{
		MaxStates:      100000,
		MaxDepth:       12, // complete up to this depth; see ExploreResult
		Invariants:     Invariants(),
		Refinement:     ref,
		SpecInvariants: dvs.Invariants(),
	})
	if err != nil {
		t.Fatalf("after %d states / %d edges: %v", res.States, res.Edges, err)
	}
	t.Logf("exhaustive: %d states, %d edges, depth %d, truncated=%v",
		res.States, res.Edges, res.MaxDepth, res.Truncated)
	if res.States < 100 {
		t.Errorf("suspiciously small state space: %d", res.States)
	}
}

// TestExhaustiveThreeProcs explores a 3-process configuration with a
// minority and a majority candidate view (invariants only, to keep the
// space manageable).
func TestExhaustiveThreeProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("larger exploration")
	}
	universe := types.RangeProcSet(3)
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	env := &BoundedEnv{
		MaxMsgs:  0, // membership dynamics only
		MaxViews: 3,
		Views:    []types.ProcSet{types.NewProcSet(0, 1), types.NewProcSet(1, 2)},
	}
	res, err := ioa.Explore(NewImpl(universe, v0), env, ioa.ExploreConfig{
		MaxStates:  200000,
		MaxDepth:   12,
		Invariants: Invariants(),
	})
	if err != nil {
		t.Fatalf("after %d states: %v", res.States, err)
	}
	t.Logf("exhaustive: %d states, %d edges, depth %d, truncated=%v",
		res.States, res.Edges, res.MaxDepth, res.Truncated)
}

func TestBoundedEnvRespectsBounds(t *testing.T) {
	universe := types.RangeProcSet(2)
	v0 := types.InitialView(types.NewProcSet(0, 1))
	env := &BoundedEnv{MaxMsgs: 1, MaxViews: 2,
		Views: []types.ProcSet{types.NewProcSet(0, 1)}}
	im := NewImpl(universe, v0)

	// Initially: sends offered (0 messages in system), createview offered,
	// registers not offered (v0 already registered by P0 members).
	acts := env.Inputs(im)
	var sends, creates, regs int
	for _, a := range acts {
		switch a.Name {
		case "dvs-gpsnd":
			sends++
		case "vs-createview":
			creates++
		case "dvs-register":
			regs++
		}
	}
	if sends != 2 || creates != 1 || regs != 0 {
		t.Fatalf("initial inputs: sends=%d creates=%d regs=%d", sends, creates, regs)
	}

	// After one send the message count reaches the bound: no more sends.
	if err := im.Perform(acts[0]); err != nil {
		t.Fatal(err)
	}
	for _, a := range env.Inputs(im) {
		if a.Name == "dvs-gpsnd" {
			t.Fatal("send offered beyond MaxMsgs")
		}
	}
}

// TestExploreParallelMatchesSerial: the level-synchronous parallel BFS must
// visit exactly the state space the serial exploration visits — same
// states, edges, and depth — for bounded model checking of DVS-IMPL.
func TestExploreParallelMatchesSerial(t *testing.T) {
	universe := types.RangeProcSet(2)
	v0 := types.InitialView(types.NewProcSet(0, 1))
	env := &BoundedEnv{
		MaxMsgs:  1,
		MaxViews: 2,
		Views:    []types.ProcSet{types.NewProcSet(0), types.NewProcSet(0, 1)},
	}
	run := func(parallel int) ioa.ExploreResult {
		res, err := ioa.Explore(NewImpl(universe, v0), env, ioa.ExploreConfig{
			MaxStates:  100000,
			MaxDepth:   10,
			Parallel:   parallel,
			Invariants: Invariants(),
		})
		if err != nil {
			t.Fatalf("parallel=%d: after %d states: %v", parallel, res.States, err)
		}
		return res
	}
	serial := run(1)
	par := run(runtime.NumCPU())
	if serial.States != par.States || serial.Edges != par.Edges || serial.MaxDepth != par.MaxDepth {
		t.Errorf("parallel exploration diverged:\n  serial:   %+v\n  parallel: %+v", serial, par)
	}
	if serial.States < 100 {
		t.Errorf("suspiciously small state space: %d", serial.States)
	}
}
