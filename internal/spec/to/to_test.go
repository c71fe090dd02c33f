package to

import (
	"math/rand"
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

func act(name string, kind ioa.Kind, param any) ioa.Action {
	return ioa.Action{Name: name, Kind: kind, Param: param}
}

func mustPerform(t *testing.T, a ioa.Automaton, actions ...ioa.Action) {
	t.Helper()
	for _, x := range actions {
		if err := a.Perform(x); err != nil {
			t.Fatalf("perform %s: %v", x, err)
		}
	}
}

func TestBCastOrderRcvFlow(t *testing.T) {
	a := New(types.RangeProcSet(3))
	mustPerform(t, a,
		act(ActBCast, ioa.KindInput, BCastParam{A: "x", P: 0}),
		act(ActBCast, ioa.KindInput, BCastParam{A: "y", P: 0}),
	)
	// Order must respect per-origin FIFO: y before x fails.
	if err := a.Perform(act(ActOrder, ioa.KindInternal, OrderParam{A: "y", P: 0})); err == nil {
		t.Fatal("ordering out of pending order accepted")
	}
	mustPerform(t, a,
		act(ActOrder, ioa.KindInternal, OrderParam{A: "x", P: 0}),
		act(ActOrder, ioa.KindInternal, OrderParam{A: "y", P: 0}),
		act(ActBRcv, ioa.KindOutput, BRcvParam{A: "x", Origin: 0, To: 2}),
		act(ActBRcv, ioa.KindOutput, BRcvParam{A: "y", Origin: 0, To: 2}),
	)
	if a.Next(2) != 3 {
		t.Errorf("next[2] = %d", a.Next(2))
	}
	// Gap: process 1 must receive x first.
	if err := a.Perform(act(ActBRcv, ioa.KindOutput, BRcvParam{A: "y", Origin: 0, To: 1})); err == nil {
		t.Error("gap in delivery accepted")
	}
}

func TestEnabledEnumeration(t *testing.T) {
	a := New(types.RangeProcSet(2))
	mustPerform(t, a,
		act(ActBCast, ioa.KindInput, BCastParam{A: "x", P: 1}),
		act(ActOrder, ioa.KindInternal, OrderParam{A: "x", P: 1}),
	)
	acts := a.Enabled()
	// brcv enabled for both processes; no order actions left.
	brcv := 0
	for _, x := range acts {
		if x.Name == ActBRcv {
			brcv++
		}
		if x.Name == ActOrder {
			t.Error("order should not be enabled")
		}
	}
	if brcv != 2 {
		t.Errorf("enabled brcv = %d, want 2", brcv)
	}
}

func TestCloneAndFingerprint(t *testing.T) {
	a := New(types.RangeProcSet(2))
	mustPerform(t, a, act(ActBCast, ioa.KindInput, BCastParam{A: "x", P: 0}))
	b := a.Clone().(*TO)
	mustPerform(t, b, act(ActOrder, ioa.KindInternal, OrderParam{A: "x", P: 0}))
	if len(a.Queue()) != 0 {
		t.Error("clone leaked")
	}
	if ioa.FpOf(a) == ioa.FpOf(b) {
		t.Error("diverged fingerprints equal")
	}
}

func TestMonitorAcceptsSpecTraces(t *testing.T) {
	// Soundness/completeness: traces generated by the TO spec itself must
	// be accepted by the monitor.
	universe := types.RangeProcSet(3)
	for seed := int64(0); seed < 20; seed++ {
		spec := New(universe)
		mon := NewMonitor(universe)
		env := ioa.EnvironmentFunc(func(ioa.Automaton) []ioa.Action {
			return []ioa.Action{{
				Name: ActBCast, Kind: ioa.KindInput,
				Param: BCastParam{A: "m" + string(rune('a'+seed)), P: types.ProcID(seed % 3)},
			}}
		})
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 300; step++ {
			locals := spec.Enabled()
			inputs := env.Inputs(spec)
			all := append(locals, inputs...)
			if len(all) == 0 {
				break
			}
			x := all[rng.Intn(len(all))]
			if err := spec.Perform(x); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if x.External() {
				if err := mon.Observe(x); err != nil {
					t.Fatalf("seed %d: monitor rejected spec trace: %v", seed, err)
				}
			}
		}
	}
}

func TestMonitorRejectsDivergentOrders(t *testing.T) {
	universe := types.RangeProcSet(2)
	mon := NewMonitor(universe)
	obs := func(a ioa.Action) error { return mon.Observe(a) }
	must := func(a ioa.Action) {
		t.Helper()
		if err := obs(a); err != nil {
			t.Fatal(err)
		}
	}
	must(act(ActBCast, ioa.KindInput, BCastParam{A: "x", P: 0}))
	must(act(ActBCast, ioa.KindInput, BCastParam{A: "y", P: 1}))
	// Process 0 receives x then y; process 1 receives y first: divergence.
	must(act(ActBRcv, ioa.KindOutput, BRcvParam{A: "x", Origin: 0, To: 0}))
	must(act(ActBRcv, ioa.KindOutput, BRcvParam{A: "y", Origin: 1, To: 0}))
	if err := obs(act(ActBRcv, ioa.KindOutput, BRcvParam{A: "y", Origin: 1, To: 1})); err == nil {
		t.Fatal("divergent order accepted")
	}
}

func TestMonitorRejectsUnbroadcast(t *testing.T) {
	mon := NewMonitor(types.RangeProcSet(2))
	err := mon.Observe(act(ActBRcv, ioa.KindOutput, BRcvParam{A: "ghost", Origin: 0, To: 1}))
	if err == nil {
		t.Fatal("delivery of never-broadcast message accepted")
	}
}

func TestMonitorRejectsFIFOViolation(t *testing.T) {
	mon := NewMonitor(types.RangeProcSet(2))
	must := func(a ioa.Action) {
		t.Helper()
		if err := mon.Observe(a); err != nil {
			t.Fatal(err)
		}
	}
	must(act(ActBCast, ioa.KindInput, BCastParam{A: "first", P: 0}))
	must(act(ActBCast, ioa.KindInput, BCastParam{A: "second", P: 0}))
	if err := mon.Observe(act(ActBRcv, ioa.KindOutput, BRcvParam{A: "second", Origin: 0, To: 1})); err == nil {
		t.Fatal("per-origin FIFO violation accepted")
	}
}

func TestMonitorDuplicatePayloads(t *testing.T) {
	// The same payload broadcast twice by the same origin must be
	// deliverable twice, in order.
	mon := NewMonitor(types.RangeProcSet(1))
	must := func(a ioa.Action) {
		t.Helper()
		if err := mon.Observe(a); err != nil {
			t.Fatal(err)
		}
	}
	must(act(ActBCast, ioa.KindInput, BCastParam{A: "dup", P: 0}))
	must(act(ActBCast, ioa.KindInput, BCastParam{A: "dup", P: 0}))
	must(act(ActBRcv, ioa.KindOutput, BRcvParam{A: "dup", Origin: 0, To: 0}))
	must(act(ActBRcv, ioa.KindOutput, BRcvParam{A: "dup", Origin: 0, To: 0}))
	if err := mon.Observe(act(ActBRcv, ioa.KindOutput, BRcvParam{A: "dup", Origin: 0, To: 0})); err == nil {
		t.Fatal("third delivery of twice-broadcast message accepted")
	}
}
