package naive

import (
	"math/rand"
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol/dvscore"
	dvsspec "repro/internal/spec/dvs"
	vsspec "repro/internal/spec/vs"
	"repro/internal/types"
)

func TestNaiveSplitBrainClassicSchedule(t *testing.T) {
	universe := types.NewProcSet(1, 2, 3, 4, 5)
	v0 := types.InitialView(universe)
	im := NewImpl(universe, v0)

	perform := func(a ioa.Action) {
		t.Helper()
		if err := im.Perform(a); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	vsAct := func(name string, param any) ioa.Action {
		return ioa.Action{Name: name, Kind: ioa.KindInternal, Param: param}
	}
	accept := func(v types.View, p types.ProcID) {
		t.Helper()
		perform(ioa.Action{Name: "naive-accept", Kind: ioa.KindOutput, Param: AcceptParam{View: v, P: p}})
	}

	v1 := types.NewView(types.ViewID{Seq: 1}, 1, 2, 3)
	v2 := types.NewView(types.ViewID{Seq: 2}, 1, 2)
	v3 := types.NewView(types.ViewID{Seq: 3}, 3, 4, 5)

	// {1,2,3} becomes primary: 3 of 5 is a majority of v0.
	perform(vsAct(vsspec.ActCreateView, vsspec.CreateViewParam{View: v1}))
	for _, p := range []types.ProcID{1, 2, 3} {
		perform(vsAct(vsspec.ActNewView, vsspec.NewViewParam{View: v1, P: p}))
		accept(v1, p)
	}
	// {1,2} shrinks further: 2 of 3 is a majority of v1.
	perform(vsAct(vsspec.ActCreateView, vsspec.CreateViewParam{View: v2}))
	for _, p := range []types.ProcID{1, 2} {
		perform(vsAct(vsspec.ActNewView, vsspec.NewViewParam{View: v2, P: p}))
		accept(v2, p)
	}
	// {3,4,5} forms. Process 3 correctly refuses (1 of 3 vs its last = v1)…
	perform(vsAct(vsspec.ActCreateView, vsspec.CreateViewParam{View: v3}))
	perform(vsAct(vsspec.ActNewView, vsspec.NewViewParam{View: v3, P: 3}))
	if _, ok := im.Node(3).AcceptEnabled(); ok {
		t.Fatal("process 3 must refuse {3,4,5}: it knows about v1")
	}
	// …but 4 and 5, whose last primary is still v0, accept: split brain.
	for _, p := range []types.ProcID{4, 5} {
		perform(vsAct(vsspec.ActNewView, vsspec.NewViewParam{View: v3, P: p}))
		accept(v3, p)
	}
	err := im.CheckIntersectionChain()
	if err == nil {
		t.Fatal("naive dynamic voting should have produced disjoint primaries")
	}
	t.Logf("split brain demonstrated: %v", err)
}

// TestPaperAlgorithmRejectsClassicSchedule runs the same schedule against
// the paper's VS-TO-DVS filter: the info exchange makes processes 4 and 5
// learn about v1 from process 3, so nobody accepts {3,4,5} and the
// intersection chain survives.
func TestPaperAlgorithmRejectsClassicSchedule(t *testing.T) {
	universe := types.NewProcSet(1, 2, 3, 4, 5)
	v0 := types.InitialView(universe)
	im := dvscore.NewImpl(universe, v0)

	perform := func(a ioa.Action) {
		t.Helper()
		if err := im.Perform(a); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	vsAct := func(name string, param any) ioa.Action {
		return ioa.Action{Name: name, Kind: ioa.KindInternal, Param: param}
	}
	// drive runs the composition's enabled internal/output actions to
	// quiescence, so info messages flow and primaries are announced.
	drive := func() {
		for i := 0; i < 10000; i++ {
			acts := im.Enabled()
			if len(acts) == 0 {
				return
			}
			if err := im.Perform(acts[0]); err != nil {
				t.Fatalf("drive %s: %v", acts[0], err)
			}
		}
		t.Fatal("drive did not quiesce")
	}

	v1 := types.NewView(types.ViewID{Seq: 1}, 1, 2, 3)
	v2 := types.NewView(types.ViewID{Seq: 2}, 1, 2)
	v3 := types.NewView(types.ViewID{Seq: 3}, 3, 4, 5)

	perform(vsAct(vsspec.ActCreateView, vsspec.CreateViewParam{View: v1}))
	drive() // delivers v1 to {1,2,3}, exchanges info, announces the primary
	for _, p := range []types.ProcID{1, 2, 3} {
		if !im.Node(p).HasAttempted(v1.ID) {
			t.Fatalf("process %d did not attempt v1", p)
		}
	}
	// Until v1 is totally registered, the paper's filter still demands
	// majority intersection with v0 as well, so the shrink to {1,2} (2 of
	// 5) would be blocked — the first protection the naive rule lacks.
	// Register v1 (while everyone is still in it) so the configuration
	// genuinely moves on: registered messages flow, garbage collection
	// advances act to v1 at every member.
	for _, p := range []types.ProcID{1, 2, 3} {
		perform(ioa.Action{Name: "dvs-register", Kind: ioa.KindInput, Param: dvsspec.RegisterParam{P: p}})
	}
	drive()
	for _, p := range []types.ProcID{1, 2, 3} {
		if im.Node(p).Act() != v1 {
			t.Fatalf("process %d did not garbage-collect to act = v1 (act = %s)", p, im.Node(p).Act())
		}
	}
	perform(vsAct(vsspec.ActCreateView, vsspec.CreateViewParam{View: v2}))
	drive()
	if !im.Node(1).HasAttempted(v2.ID) {
		t.Fatal("process 1 did not attempt v2 = {1,2}")
	}
	perform(vsAct(vsspec.ActCreateView, vsspec.CreateViewParam{View: v3}))
	drive()
	for _, p := range []types.ProcID{3, 4, 5} {
		if im.Node(p).HasAttempted(v3.ID) {
			t.Fatalf("process %d accepted {3,4,5}: info exchange failed to block the split", p)
		}
	}
	if err := dvscore.CheckInvariant56(im); err != nil {
		t.Fatalf("intersection property violated: %v", err)
	}
}

// TestNaiveSplitBrainFrequency measures how often random schedules produce
// split brain under the naive rule — the quantitative form of E10.
func TestNaiveSplitBrainFrequency(t *testing.T) {
	universe := types.RangeProcSet(5)
	v0 := types.InitialView(universe)
	violations := 0
	const runs = 30
	for seed := int64(0); seed < runs; seed++ {
		im := NewImpl(universe, v0)
		rng := rand.New(rand.NewSource(seed))
		env := envFunc(universe, rng)
		ex := &ioa.Executor{Steps: 300, Seed: seed}
		if _, err := ex.Run(im, env, nil); err != nil {
			t.Fatal(err)
		}
		if im.CheckIntersectionChain() != nil {
			violations++
		}
	}
	t.Logf("naive dynamic voting: %d/%d random runs ended with disjoint concurrent primaries", violations, runs)
	if violations == 0 {
		t.Error("expected some split-brain runs under the naive rule")
	}
}

// envFunc proposes random views for the naive system's VS substrate.
func envFunc(universe types.ProcSet, rng *rand.Rand) ioa.Environment {
	procs := universe.Sorted()
	proposed := 0
	return ioa.EnvironmentFunc(func(a ioa.Automaton) []ioa.Action {
		im, ok := a.(*Impl)
		if !ok || proposed >= 24 {
			return nil
		}
		members := types.RandomSubset(rng, procs)
		v := types.View{ID: im.vs.MaxCreatedID().Next(members.First()), Members: members}
		if !im.VS().CreateViewCandidateOK(v) {
			return nil
		}
		proposed++
		return []ioa.Action{{Name: vsspec.ActCreateView, Kind: ioa.KindInternal,
			Param: vsspec.CreateViewParam{View: v}}}
	})
}

// TestNaiveDeterminismAndClone exercises the automaton plumbing: seeded
// executions are reproducible and clones are independent.
func TestNaiveDeterminismAndClone(t *testing.T) {
	universe := types.RangeProcSet(4)
	v0 := types.InitialView(universe)
	run := func() string {
		im := NewImpl(universe, v0)
		ex := &ioa.Executor{Steps: 200, Seed: 9}
		if _, err := ex.Run(im, envFunc(universe, rand.New(rand.NewSource(9))), nil); err != nil {
			t.Fatal(err)
		}
		return ioa.Render(im)
	}
	if run() != run() {
		t.Fatal("naive executions not reproducible")
	}
	im := NewImpl(universe, v0)
	c := im.Clone().(*Impl)
	if ioa.Render(c) != ioa.Render(im) {
		t.Fatal("clone fingerprint differs")
	}
	if err := im.Perform(ioa.Action{Name: "bogus"}); err == nil {
		t.Error("unknown action accepted")
	}
	if err := im.Perform(ioa.Action{Name: "naive-accept", Param: "wrong"}); err == nil {
		t.Error("bad param accepted")
	}
	if im.Name() != "NAIVE-DV" {
		t.Error("name wrong")
	}
}
