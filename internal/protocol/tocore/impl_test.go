package tocore

import (
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/dvs"
	"repro/internal/spec/to"
	"repro/internal/types"
)

func toSetup(n int) (types.ProcSet, types.View) {
	universe := types.RangeProcSet(n)
	v0 := types.InitialView(types.NewProcSet(0, 1, types.ProcID(n-1)))
	return universe, v0
}

func runTO(universe types.ProcSet, v0 types.View, cfg Config, seeds, steps int) error {
	for seed := int64(0); seed < int64(seeds); seed++ {
		impl := NewImpl(universe, v0, cfg)
		mon := to.NewMonitor(universe)
		c := ioa.CheckerConfig{Steps: steps, Seed: seed, ImplInvariants: Invariants()}
		if _, err := ioa.CheckTraceInclusion(impl, mon, NewEnv(seed+500, universe), c); err != nil {
			return err
		}
	}
	return nil
}

// TestTheorem64OverLiteralDVS mechanically checks Theorem 6.4 in the
// paper's own setting: TO-IMPL (Figure 5 with the label repair) over the
// DVS specification exactly as printed in Figure 2. Every external trace is
// accepted by the TO monitor and Invariants 6.1–6.3 hold at every state,
// with nodes that hold everything and with nodes that truncate.
func TestTheorem64OverLiteralDVS(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		universe, v0 := toSetup(n)
		for _, truncating := range []bool{false, true} {
			if err := runTO(universe, v0, Config{DVS: DVSLiteral, Universe: truncating}, 6, 500); err != nil {
				t.Fatalf("n=%d truncating=%v: %v", n, truncating, err)
			}
		}
	}
}

// TestTO64OverDrainedDVS checks the end-to-end sound configuration: the
// amended DVS specification (what Figure 3 actually refines) plus the
// view-synchronous drain rule. This is the contract the runtime stack
// provides.
func TestTO64OverDrainedDVS(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		universe, v0 := toSetup(n)
		for _, truncating := range []bool{false, true} {
			if err := runTO(universe, v0, Config{DVS: DVSAmendedDrained, Universe: truncating}, 6, 500); err != nil {
				t.Fatalf("n=%d truncating=%v: %v", n, truncating, err)
			}
		}
	}
}

// TestTOUnsoundOverAmendedUndrainedDVS demonstrates the compositionality gap
// the mechanization uncovered: over the amended (endpoint-safe) DVS without
// the drain rule, Figure 5 can diverge — a member that moves to a new view
// without draining its delivery buffer omits messages other members already
// confirmed from its summary, and the new primary confirms a conflicting
// order.
func TestTOUnsoundOverAmendedUndrainedDVS(t *testing.T) {
	universe, v0 := toSetup(4)
	var firstErr error
	for seed := int64(0); seed < 20; seed++ {
		impl := NewImpl(universe, v0, Config{DVS: DVSAmended})
		mon := to.NewMonitor(universe)
		c := ioa.CheckerConfig{Steps: 600, Seed: seed, ImplInvariants: Invariants()}
		if _, err := ioa.CheckTraceInclusion(impl, mon, NewEnv(seed+900, universe), c); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("expected a total-order violation over amended undrained DVS")
	}
	t.Logf("divergence demonstrated: %v", firstErr)
}

// TestLiteralFigure5DuplicatesLabels demonstrates the other printed-figure
// wrinkle: with LABEL enabled during recovery (exactly as printed), a label
// created between the view notification and establishment is ordered twice —
// once via the state exchange and once when the buffered copy is sent — and
// the duplicate delivery is rejected by the TO monitor.
func TestLiteralFigure5DuplicatesLabels(t *testing.T) {
	universe, v0 := toSetup(4)
	var firstErr error
	for seed := int64(0); seed < 30; seed++ {
		impl := NewImpl(universe, v0, Config{DVS: DVSLiteral, LiteralFigure5: true})
		mon := to.NewMonitor(universe)
		c := ioa.CheckerConfig{Steps: 600, Seed: seed}
		if _, err := ioa.CheckTraceInclusion(impl, mon, NewEnv(seed+500, universe), c); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("expected the literal Figure 5 to produce a duplicate delivery")
	}
	t.Logf("duplicate ordering demonstrated: %v", firstErr)
}

func TestTOImplExternalSignature(t *testing.T) {
	universe, v0 := toSetup(3)
	im := NewImpl(universe, v0, Config{})
	for _, a := range im.Enabled() {
		if a.External() && a.Name != to.ActBRcv {
			t.Errorf("unexpected external action %s", a)
		}
		if strings.HasPrefix(a.Name, "dvs-") && a.External() {
			t.Errorf("DVS action %s must be hidden", a)
		}
	}
}

func TestAllStateTracksSummaries(t *testing.T) {
	universe, v0 := toSetup(3)
	im := NewImpl(universe, v0, Config{DVS: DVSLiteral})
	if n := len(im.AllState()); n != 0 {
		t.Fatalf("initial allstate = %d", n)
	}
	// Run a while; after view changes, summaries must appear.
	ex := &ioa.Executor{Steps: 600, Seed: 4}
	if _, err := ex.Run(im, NewEnv(123, universe), nil); err != nil {
		t.Fatal(err)
	}
	if len(im.AllState()) == 0 {
		t.Log("note: no summaries in flight for this seed")
	}
	if err := im.system().CheckInvariant61(); err != nil {
		t.Errorf("6.1: %v", err)
	}
	if err := im.system().CheckInvariant62(); err != nil {
		t.Errorf("6.2: %v", err)
	}
	if err := im.system().CheckInvariant63(); err != nil {
		t.Errorf("6.3: %v", err)
	}
}

func TestTOImplCloneDeterminism(t *testing.T) {
	universe, v0 := toSetup(3)
	im := NewImpl(universe, v0, Config{})
	ex := &ioa.Executor{Steps: 150, Seed: 8}
	if _, err := ex.Run(im, NewEnv(9, universe), nil); err != nil {
		t.Fatal(err)
	}
	if ioa.FingerprintString(im.Clone()) != ioa.FingerprintString(im) {
		t.Error("clone fingerprint differs")
	}
}

// TestPerformUnknownProcess hands Perform every action that names a process
// with an id outside the universe: each is refused with an error — no nil
// node is dereferenced — and the state is left as it was.
func TestPerformUnknownProcess(t *testing.T) {
	universe, v0 := toSetup(2)
	const out = types.ProcID(7)
	lm := LabelMsg{L: types.Label{ID: v0.ID, Seqno: 1, Origin: out}, A: "a"}
	v1 := v(1, 0, out)
	for _, act := range []ioa.Action{
		{Name: to.ActBCast, Param: to.BCastParam{A: "a", P: out}},
		{Name: "label", Param: LabelParam{A: "a", P: out}},
		{Name: "confirm", Param: ConfirmParam{P: out}},
		{Name: to.ActBRcv, Param: to.BRcvParam{A: "a", Origin: 0, To: out}},
		{Name: dvs.ActGpSnd, Param: dvs.SndParam{M: lm, P: out}},
		{Name: dvs.ActRegister, Param: dvs.RegisterParam{P: out}},
		{Name: dvs.ActNewView, Param: dvs.NewViewParam{View: v1, P: out}},
		{Name: dvs.ActOrder, Param: dvs.OrderParam{M: lm, P: out, G: v0.ID}},
		{Name: dvs.ActRcv, Param: dvs.SvcRcvParam{M: lm, From: 0, To: out, G: v0.ID}},
		{Name: dvs.ActGpRcv, Param: dvs.RcvParam{M: lm, From: 0, To: out}},
		{Name: dvs.ActSafe, Param: dvs.RcvParam{M: lm, From: 0, To: out}},
	} {
		t.Run(act.Name, func(t *testing.T) {
			for _, variant := range []DVSVariant{DVSLiteral, DVSAmended, DVSAmendedDrained} {
				im := NewImpl(universe, v0, Config{DVS: variant})
				before := ioa.FpOf(im)
				if err := im.Perform(act); err == nil {
					t.Errorf("DVS variant %d: action of an unknown process accepted", variant)
				}
				if ioa.FpOf(im) != before {
					t.Errorf("DVS variant %d: refused action changed the state", variant)
				}
			}
		})
	}
}
