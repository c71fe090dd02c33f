package tocore

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

// TestExecutionDeterminism mirrors the core package's determinism check for
// TO-IMPL across all three DVS variants.
func TestExecutionDeterminism(t *testing.T) {
	universe, v0 := toSetup(4)
	for _, cfg := range []Config{
		{DVS: DVSLiteral},
		{DVS: DVSAmended},
		{DVS: DVSAmendedDrained},
	} {
		run := func() string {
			ex := &ioa.Executor{Steps: 400, Seed: 23}
			res, err := ex.Run(NewImpl(universe, v0, cfg), NewEnv(37, universe), nil)
			if err != nil {
				t.Fatal(err)
			}
			return ioa.Render(res.Final)
		}
		if run() != run() {
			t.Fatalf("variant %+v: nondeterministic execution", cfg)
		}
	}
}

// TestCloneMidExecutionEquivalence drives an original and its mid-run clone
// in lock-step.
func TestCloneMidExecutionEquivalence(t *testing.T) {
	universe, v0 := toSetup(3)
	im := NewImpl(universe, v0, Config{})
	ex := &ioa.Executor{Steps: 200, Seed: 5}
	if _, err := ex.Run(im, NewEnv(11, universe), nil); err != nil {
		t.Fatal(err)
	}
	clone := im.Clone().(*Impl)
	for step := 0; step < 100; step++ {
		acts := im.Enabled()
		if len(acts) == 0 {
			break
		}
		if err := im.Perform(acts[0]); err != nil {
			t.Fatal(err)
		}
		if err := clone.Perform(acts[0]); err != nil {
			t.Fatalf("step %d: clone rejected %s: %v", step, acts[0], err)
		}
		if ioa.Render(im) != ioa.Render(clone) {
			t.Fatalf("step %d: states diverged", step)
		}
	}
}

// TestCloneStepLeavesOriginalUntouched steps a clone of a node through every
// way its history can change — a label appended to a run, a summary whose
// content lands past a gap, a safe indication, a new view emptying the safe
// set — and requires the original's fingerprint unchanged after each, then
// the same fingerprint from the same steps applied to the original: the
// checker's frontier entries must share no storage, and clone-then-step must
// equal step.
func TestCloneStepLeavesOriginalUntouched(t *testing.T) {
	_, v0 := toSetup(3)
	fp := func(n *Node) string { return ioa.Render(n) }
	lbl := func(seqno int, a string) LabelMsg {
		return LabelMsg{L: types.Label{ID: v0.ID, Seqno: seqno, Origin: 1}, A: a}
	}
	v1 := types.NewView(v0.ID.Next(0), 0, 1)
	gapped := SummaryMsg{X: types.Summary{Next: 1, Con: types.Content{lbl(7, "far").L: "far", lbl(1, "x").L: "x"}}}
	steps := []Event{
		EvRecv{M: lbl(3, "c"), From: 1},
		EvSafe{M: lbl(2, "b"), From: 1},
		EvNewView{View: v1},
		EvRecv{M: gapped, From: 1},
		EvSafe{M: lbl(9, "never seen"), From: 1},
	}
	orig := NewNode(0, v0, true, false)
	var out Outbox
	for _, ev := range []Event{
		EvBroadcast{A: "own"},
		EvRecv{M: lbl(1, "a"), From: 1}, EvSafe{M: lbl(1, "a"), From: 1},
		EvRecv{M: lbl(2, "b"), From: 1},
	} {
		if err := Step(orig, ev, true, &out); err != nil {
			t.Fatal(err)
		}
	}
	clone := orig.Clone()
	before := fp(orig)
	if fp(clone) != before {
		t.Fatal("clone fingerprints differently")
	}
	var after []string
	for i, ev := range steps {
		if err := Step(clone, ev, true, &out); err != nil {
			t.Fatal(err)
		}
		if got := fp(orig); got != before {
			t.Fatalf("step %d (%#v) on the clone changed the original:\n%s\nwas\n%s", i, ev, got, before)
		}
		after = append(after, fp(clone))
		if i > 0 && after[i] == after[i-1] {
			t.Fatalf("step %d (%#v) did not change the clone", i, ev)
		}
	}
	for i, ev := range steps {
		if err := Step(orig, ev, true, &out); err != nil {
			t.Fatal(err)
		}
		if got := fp(orig); got != after[i] {
			t.Fatalf("step %d (%#v): step on the original\n%s\nclone-then-step\n%s", i, ev, got, after[i])
		}
	}
}
