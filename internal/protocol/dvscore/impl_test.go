package dvscore

import (
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	vsspec "repro/internal/spec/vs"
	"repro/internal/types"
)

func implSetup(n int) (types.ProcSet, types.View) {
	universe := types.RangeProcSet(n)
	p0 := types.NewProcSet(0, 1, types.ProcID(n-1))
	return universe, types.InitialView(p0)
}

func TestImplInvariants(t *testing.T) {
	universe, v0 := implSetup(4)
	ex := &ioa.Executor{Steps: 400, Seed: 7}
	_, err := ex.RunSeeds(6, func() ioa.Automaton { return NewImpl(universe, v0) },
		func(int64) ioa.Environment { return NewEnv(42, universe) }, Invariants())
	if err != nil {
		t.Fatalf("Invariants 5.1–5.6 violated: %v", err)
	}
}

func TestImplInvariantsLargerUniverse(t *testing.T) {
	universe, v0 := implSetup(6)
	ex := &ioa.Executor{Steps: 500, Seed: 70}
	_, err := ex.RunSeeds(3, func() ioa.Automaton { return NewImpl(universe, v0) },
		func(int64) ioa.Environment { return NewEnv(43, universe) }, Invariants())
	if err != nil {
		t.Fatal(err)
	}
}

// TestInvariant523LiteralIsViolated demonstrates, mechanically, that part 3
// of Invariant 5.2 exactly as printed in the paper (use_p bounded by
// client-cur.id) does not hold on reachable states: a process learns, via
// info messages received in its VS-current view, of views attempted by
// others with ids above its own client-current view. The amended bound
// (use_p ≤ cur.id) does hold — see TestImplInvariants.
func TestInvariant523LiteralIsViolated(t *testing.T) {
	universe, v0 := implSetup(4)
	inv := ioa.Invariant{Name: "5.2.3-literal", Check: func(a ioa.Automaton) error {
		return CheckInvariant52Part3Literal(a.(*Impl))
	}}
	ex := &ioa.Executor{Steps: 500}
	for seed := int64(0); seed < 50; seed++ {
		ex.Seed = seed
		_, err := ex.Run(NewImpl(universe, v0), NewEnv(seed+2000, universe), []ioa.Invariant{inv})
		if err != nil {
			t.Logf("printed Invariant 5.2(3) falsified at seed %d: %v", seed, err)
			return
		}
	}
	t.Fatal("expected a violation of the printed 5.2(3); none found — did the algorithm change?")
}

func TestDerivedVariables(t *testing.T) {
	universe, v0 := implSetup(4)
	sys := NewImpl(universe, v0).system()
	att := sys.att()
	if len(att) != 1 || att[0] != v0 {
		t.Errorf("Att = %v", att)
	}
	totReg := sys.totReg()
	if len(totReg) != 1 || totReg[0] != v0 {
		t.Errorf("TotReg = %v", totReg)
	}
}

func TestImplExternalSignature(t *testing.T) {
	universe, v0 := implSetup(4)
	im := NewImpl(universe, v0)
	for _, a := range im.Enabled() {
		if a.External() && !strings.HasPrefix(a.Name, "dvs-") {
			t.Errorf("external action %s is not a DVS action", a)
		}
		if strings.HasPrefix(a.Name, "vs-") && a.External() {
			t.Errorf("VS action %s must be hidden", a)
		}
	}
}

func TestImplCloneDeterminism(t *testing.T) {
	universe, v0 := implSetup(4)
	im := NewImpl(universe, v0)
	env := NewEnv(5, universe)
	ex := &ioa.Executor{Steps: 120, Seed: 9}
	if _, err := ex.Run(im, env, nil); err != nil {
		t.Fatal(err)
	}
	c := im.Clone()
	if ioa.Render(c) != ioa.Render(im) {
		t.Error("clone fingerprint differs")
	}
	// Advancing the clone must not affect the original.
	pre := ioa.Render(im)
	if acts := c.Enabled(); len(acts) > 0 {
		if err := c.Perform(acts[0]); err != nil {
			t.Fatal(err)
		}
	}
	if ioa.Render(im) != pre {
		t.Error("clone mutation leaked")
	}
}

func TestImplSpuriousPrimaryRejected(t *testing.T) {
	// Directly exercise the paper's motivating subtlety: after {0,1,2}
	// exists as the only registered view, a VS view {3} (disjoint) must
	// never be attempted as a primary.
	universe, v0 := implSetup(4) // v0 = {0,1,3}
	im := NewImpl(universe, v0)
	bad := types.NewView(types.ViewID{Seq: 1, Origin: 2}, 2)
	if err := im.Perform(ioa.Action{Name: vsspec.ActCreateView, Kind: ioa.KindInternal, Param: vsspec.CreateViewParam{View: bad}}); err != nil {
		t.Fatal(err)
	}
	if err := im.Perform(ioa.Action{Name: vsspec.ActNewView, Kind: ioa.KindInternal, Param: vsspec.NewViewParam{View: bad, P: 2}}); err != nil {
		t.Fatal(err)
	}
	if v, ok := im.Node(2).dvsNewViewEnabled(); ok {
		t.Errorf("disjoint singleton %s accepted as primary", v)
	}
}

func TestGCReducesAmbiguity(t *testing.T) {
	universe, v0 := implSetup(4)
	ex := &ioa.Executor{Steps: 800, Seed: 13}
	im := NewImpl(universe, v0)
	if _, err := ex.Run(im, NewEnv(77, universe), nil); err != nil {
		t.Fatal(err)
	}
	// After a long run with registration inputs, some node must have
	// garbage collected (act advanced beyond v0) — probabilistic but stable
	// for this seed.
	advanced := false
	for _, p := range im.procs {
		if !im.Node(p).Act().ID.IsZero() {
			advanced = true
		}
	}
	if !advanced {
		t.Log("note: no GC happened for this seed; check seed choice")
	}
}

// TestPerformUnknownProcess hands Perform every action that names a process
// with an id outside the universe: each is refused with an error — no nil
// node is dereferenced — and the state is left as it was.
func TestPerformUnknownProcess(t *testing.T) {
	universe, v0 := implSetup(2)
	const out = types.ProcID(7)
	m := types.ClientMsg("m")
	v1 := v(1, 0, out)
	for _, act := range []ioa.Action{
		{Name: vsspec.ActNewView, Param: vsspec.NewViewParam{View: v1, P: out}},
		{Name: vsspec.ActGpSnd, Param: vsspec.SndParam{M: m, P: out}},
		{Name: vsspec.ActOrder, Param: vsspec.OrderParam{M: m, P: out, G: v0.ID}},
		{Name: vsspec.ActGpRcv, Param: vsspec.RcvParam{M: m, From: 0, To: out}},
		{Name: vsspec.ActSafe, Param: vsspec.RcvParam{M: m, From: 0, To: out}},
		{Name: dvs.ActGpSnd, Param: dvs.SndParam{M: m, P: out}},
		{Name: dvs.ActRegister, Param: dvs.RegisterParam{P: out}},
		{Name: dvs.ActNewView, Param: dvs.NewViewParam{View: v1, P: out}},
		{Name: dvs.ActGpRcv, Param: dvs.RcvParam{M: m, From: 0, To: out}},
		{Name: dvs.ActSafe, Param: dvs.RcvParam{M: m, From: 0, To: out}},
		{Name: "dvs-garbage-collect", Param: GCParam{View: v1, P: out}},
	} {
		t.Run(act.Name, func(t *testing.T) {
			im := NewImpl(universe, v0)
			before := ioa.FpOf(im)
			if err := im.Perform(act); err == nil {
				t.Error("action of an unknown process accepted")
			}
			if ioa.FpOf(im) != before {
				t.Error("refused action changed the state")
			}
		})
	}
}
