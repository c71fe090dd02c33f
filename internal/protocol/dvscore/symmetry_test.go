package dvscore

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol/tocore"
	"repro/internal/spec/dvs"
	"repro/internal/types"
)

// symmetricEnv returns a bounded environment whose input enumeration is
// closed under every permutation of the n-process universe: all two-process
// memberships, every member offered as origin.
func symmetricEnv(n, maxMsgs, maxViews int) *BoundedEnv {
	var views []types.ProcSet
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			views = append(views, types.NewProcSet(types.ProcID(i), types.ProcID(j)))
		}
	}
	return &BoundedEnv{MaxMsgs: maxMsgs, MaxViews: maxViews, Views: views, AllOrigins: true}
}

func TestEnableSymmetryGroupOrder(t *testing.T) {
	// Initial view = full universe: every permutation fixes the initial
	// state, so the group is the full symmetric group.
	universe := types.RangeProcSet(3)
	im := NewImpl(universe, types.InitialView(universe))
	if g := im.EnableSymmetry(); g != 6 {
		t.Errorf("full-universe initial view: group order %d, want 3! = 6", g)
	}

	// Initial view {0, 1} in a 3-process universe: only the permutations
	// fixing {0,1} setwise (and hence fixing 2) survive — the identity and
	// the 0↔1 swap.
	im = NewImpl(universe, types.InitialView(types.NewProcSet(0, 1)))
	if g := im.EnableSymmetry(); g != 2 {
		t.Errorf("asymmetric initial view: group order %d, want 2", g)
	}
}

// TestPermuteRoundTrip drives DVS-IMPL, TO-IMPL and the DVS specification
// into a non-trivial state and checks that permuting by π and then by π⁻¹
// reproduces its fingerprint exactly, and that some π moves it.
func TestPermuteRoundTrip(t *testing.T) {
	universe := types.RangeProcSet(3)
	v0 := types.InitialView(universe)
	for _, tc := range []struct {
		a   ioa.Automaton
		env ioa.Environment
	}{
		{NewImpl(universe, v0), symmetricEnv(3, 1, 2)},
		{tocore.NewImpl(universe, v0, tocore.Config{DVS: tocore.DVSLiteral}), &tocore.BoundedEnv{MaxMsgs: 1, MaxViews: 2, Views: symmetricEnv(3, 1, 2).Views}},
		{dvs.New(universe, v0), dvs.NewEnv(1, universe)},
	} {
		a := tc.a
		for steps := 0; steps < 40; steps++ {
			acts := append(a.Enabled(), tc.env.Inputs(a)...)
			if len(acts) == 0 {
				break
			}
			if err := a.Perform(acts[steps%len(acts)]); err != nil {
				t.Fatalf("%s step %d: %v", a.Name(), steps, err)
			}
		}
		want, moved := ioa.FpOf(a), false
		for _, pi := range types.PermsOf(universe) {
			inv := make(types.Perm, len(pi))
			for p, q := range pi {
				inv[q] = p
			}
			img := ioa.Permute(a, pi)
			if got := ioa.FpOf(ioa.Permute(img, inv)); got != want {
				t.Fatalf("%s: π⁻¹(π(s)) ≠ s for π = %v", a.Name(), pi)
			}
			moved = moved || ioa.FpOf(img) != want
		}
		if !moved {
			t.Errorf("%s: every permutation fixes the state; the round trip shows nothing", a.Name())
		}
	}
}

// TestSymmetryReductionExact is the soundness check for the DVS-IMPL
// symmetry reduction: a plain exploration and a symmetry-reduced
// exploration of the same bounded space must agree exactly — the reduced
// run visits one state per orbit, where the orbits are computed from the
// plain run by canonicalizing every state it visits. Any equivariance
// violation (in transitions, the environment, or Canonicalize itself) makes
// the counts diverge.
func TestSymmetryReductionExact(t *testing.T) {
	universe := types.RangeProcSet(3)
	v0 := types.InitialView(universe)
	env := symmetricEnv(3, 1, 2)
	const depth = 7

	imPlain := NewImpl(universe, v0)
	if g := imPlain.EnableSymmetry(); g != 6 {
		t.Fatalf("group order %d, want 6", g)
	}
	var mu sync.Mutex
	orbits := make(map[ioa.Fp]struct{})
	capture := ioa.Invariant{Name: "capture-orbit", Check: func(a ioa.Automaton) error {
		_, fp := a.(*Impl).Canonicalize()
		mu.Lock()
		orbits[fp] = struct{}{}
		mu.Unlock()
		return nil
	}}
	resPlain, err := ioa.Explore(imPlain, env, ioa.ExploreConfig{
		MaxDepth:   depth,
		Invariants: append(Invariants(), capture),
	})
	if err != nil {
		t.Fatalf("plain exploration: %v", err)
	}

	imSym := NewImpl(universe, v0)
	imSym.EnableSymmetry()
	resSym, err := ioa.Explore(imSym, env, ioa.ExploreConfig{
		MaxDepth:      depth,
		AuditSymmetry: true,
		Invariants:    Invariants(),
	})
	if err != nil {
		t.Fatalf("symmetry exploration: %v", err)
	}

	if resSym.States != len(orbits) {
		t.Errorf("symmetry run visited %d states; plain run saw %d orbits", resSym.States, len(orbits))
	}
	if resSym.States >= resPlain.States {
		t.Errorf("no reduction: %d plain states vs %d orbits", resPlain.States, resSym.States)
	}
	t.Logf("reduction: %d states -> %d orbits (%.2fx)",
		resPlain.States, resSym.States, float64(resPlain.States)/float64(resSym.States))
}

// TestSymmetryWithRefinement checks that the refinement obligation composes
// with symmetry reduction: the Figure 4 abstraction is equivariant, so
// checking each real edge and then canonicalizing still verifies every
// orbit against the DVS specification.
func TestSymmetryWithRefinement(t *testing.T) {
	universe := types.RangeProcSet(3)
	v0 := types.InitialView(universe)
	env := symmetricEnv(3, 1, 2)
	im := NewImpl(universe, v0)
	im.EnableSymmetry()
	res, err := ioa.Explore(im, env, ioa.ExploreConfig{
		MaxDepth:       6,
		Symmetry:       true,
		Invariants:     Invariants(),
		Refinement:     &Refinement{Universe: universe, Initial: v0},
		SpecInvariants: dvs.Invariants(),
	})
	if err != nil {
		t.Fatalf("after %d states: %v", res.States, err)
	}
	if res.States < 50 {
		t.Errorf("suspiciously small reduced space: %d states", res.States)
	}
	t.Logf("symmetry+refinement: %d states, %d edges", res.States, res.Edges)
}

// TestPermuteResortsAmb: two ambiguous views of one sequence number are
// ordered by origin, so the transposition of their origins reverses them in
// the structural image; FixImage must sort Amb again, in an Info and in an
// InfoMsg alike. No explored state holds such a pair, so only this test
// reaches the re-sort.
func TestPermuteResortsAmb(t *testing.T) {
	act := types.NewView(types.ViewID{}, 0, 1, 2)
	amb := []types.View{types.NewView(types.ViewID{Seq: 1, Origin: 0}, 0, 1), types.NewView(types.ViewID{Seq: 1, Origin: 1}, 1, 2)}
	pi := types.Perm{0: 1, 1: 0}
	want := []types.View{types.NewView(types.ViewID{Seq: 1, Origin: 0}, 0, 2), types.NewView(types.ViewID{Seq: 1, Origin: 1}, 0, 1)}
	info := ioa.Permute(Info{Act: act, Amb: amb}, pi)
	msg := ioa.Permute(NewInfoMsg(act, amb), pi)
	for name, got := range map[string][]types.View{"Info": info.Amb, "InfoMsg": msg.Amb} {
		if !slices.Equal(got, want) {
			t.Errorf("%s: image Amb %v, want %v", name, got, want)
		}
	}
	if info.Act != act || msg.Act != act {
		t.Errorf("the image of act %s: %s, %s", act, info.Act, msg.Act)
	}
}
