package dvs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ioa"
	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	tospec "repro/internal/spec/to"
	"repro/internal/types"
)

// Finding describes one of the documented discrepancies between the printed
// paper and what the algorithms actually guarantee (EXPERIMENTS.md §C),
// reproduced mechanically.
type Finding struct {
	ID      string
	Title   string
	Witness string // the failing step of the literal system
}

// ErrNoWitness is returned when a demonstration cannot reproduce the
// documented discrepancy within its search budget.
var ErrNoWitness = errors.New("no witness found within the search budget")

// DemonstrateF1 reproduces Finding F1: the refinement of Figure 4 from
// DVS-IMPL to the *literal* Figure 2 DVS specification fails at a dvs-safe
// step.
func DemonstrateF1(cfg CheckConfig) (Finding, error) {
	cfg, universe, v0 := cfg.fill()
	ref := &dvscore.Refinement{Universe: universe, Initial: v0, Literal: true}
	for i := 0; i < cfg.Seeds*5; i++ {
		seed := cfg.Seed + int64(i)
		_, err := ioa.CheckRefinement(dvscore.NewImpl(universe, v0), ref,
			dvscore.NewEnv(seed+1000, universe),
			ioa.CheckerConfig{Steps: cfg.Steps, Seed: seed})
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "dvs-safe") {
			return Finding{}, fmt.Errorf("unexpected failure mode: %w", err)
		}
		return Finding{
			ID:      "F1",
			Title:   "literal Figure 2 dvs-safe is not implementable by Figure 3",
			Witness: err.Error(),
		}, nil
	}
	return Finding{}, ErrNoWitness
}

// DemonstrateF2 reproduces Finding F2: over the amended (endpoint-safe) DVS
// without the drain rule, Figure 5 can confirm diverging total orders.
func DemonstrateF2(cfg CheckConfig) (Finding, error) {
	cfg, universe, v0 := cfg.fill()
	for i := 0; i < cfg.Seeds*5; i++ {
		seed := cfg.Seed + int64(i)
		impl := tocore.NewImpl(universe, v0, tocore.Config{DVS: tocore.DVSAmended})
		mon := tospec.NewMonitor(universe)
		_, err := ioa.CheckTraceInclusion(impl, mon, tocore.NewEnv(seed+900, universe),
			ioa.CheckerConfig{Steps: cfg.Steps, Seed: seed, ImplInvariants: tocore.Invariants()})
		if err != nil {
			return Finding{
				ID:      "F2",
				Title:   "Theorems 5.9 and 6.4 do not compose without the drain rule",
				Witness: err.Error(),
			}, nil
		}
	}
	return Finding{}, ErrNoWitness
}

// DemonstrateF3 reproduces Finding F3: Figure 5's printed LABEL
// precondition lets a recovery-time label be ordered twice.
func DemonstrateF3(cfg CheckConfig) (Finding, error) {
	cfg, universe, v0 := cfg.fill()
	for i := 0; i < cfg.Seeds*5; i++ {
		seed := cfg.Seed + int64(i)
		impl := tocore.NewImpl(universe, v0, tocore.Config{DVS: tocore.DVSLiteral, LiteralFigure5: true})
		mon := tospec.NewMonitor(universe)
		_, err := ioa.CheckTraceInclusion(impl, mon, tocore.NewEnv(seed+500, universe),
			ioa.CheckerConfig{Steps: cfg.Steps, Seed: seed})
		if err != nil {
			return Finding{
				ID:      "F3",
				Title:   "Figure 5's LABEL during recovery causes duplicate ordering",
				Witness: err.Error(),
			}, nil
		}
	}
	return Finding{}, ErrNoWitness
}

// DemonstrateF4 reproduces Finding F4: Invariant 5.2(3) as printed is
// violated on reachable DVS-IMPL states.
func DemonstrateF4(cfg CheckConfig) (Finding, error) {
	cfg, universe, v0 := cfg.fill()
	inv := ioa.Invariant{Name: "5.2(3) literal", Check: func(a ioa.Automaton) error {
		im, ok := a.(*dvscore.Impl)
		if !ok {
			return fmt.Errorf("wrong automaton %T", a)
		}
		return dvscore.CheckInvariant52Part3Literal(im)
	}}
	for i := 0; i < cfg.Seeds*5; i++ {
		seed := cfg.Seed + int64(i)
		ex := &ioa.Executor{Steps: cfg.Steps, Seed: seed}
		_, err := ex.Run(dvscore.NewImpl(universe, v0), dvscore.NewEnv(seed+2000, universe), []ioa.Invariant{inv})
		if err != nil {
			return Finding{
				ID:      "F4",
				Title:   "Invariant 5.2(3) as printed is falsifiable",
				Witness: err.Error(),
			}, nil
		}
	}
	return Finding{}, ErrNoWitness
}

// DemonstrateF5 reproduces Finding F5: "chosenrep(Y) = some element in
// reps(Y)" is not safe as printed. highprimary is initialized to g0 at
// every process — including processes outside the initial view — so a
// least-id resolution can pick a representative with an empty tentative
// order, and fullorder then reorders labels an earlier primary confirmed.
// The demonstration is constructive: it builds the gotstate of the
// witnessing schedule and shows the least-id choice breaks the confirmed
// prefix while the shipped longest-order rule preserves it.
func DemonstrateF5(cfg CheckConfig) (Finding, error) {
	l1 := types.Label{ID: types.ViewIDZero, Seqno: 1, Origin: 0}
	l2 := types.Label{ID: types.ViewIDZero, Seqno: 2, Origin: 0}
	l3 := types.Label{ID: types.ViewIDZero, Seqno: 1, Origin: 3}
	member := types.Summary{ // a genuine v0 member: confirmed [l1 l2]
		Con:  types.Content{l1: "a", l2: "b", l3: "c"},
		Ord:  []types.Label{l1, l2, l3},
		Next: 3,
		High: types.ViewIDZero,
	}
	outsider := types.Summary{ // never established anything; defaults
		Con:  types.Content{},
		Next: 1,
		High: types.ViewIDZero,
	}
	gs := types.GotState{2: outsider, 3: member}

	// The printed rule allows picking the outsider (both tie at high = g0).
	// Its shortorder is λ, so fullorder is dom(knowncontent) in label
	// order — which puts l3 (seqno 1) before l2 (seqno 2), reordering the
	// member's confirmed prefix [l1 l2].
	leastIDFull := types.Content(member.Con).Labels() // label order = the λ-rep fullorder
	if types.IsPrefix(member.Ord[:member.Next-1], leastIDFull) {
		return Finding{}, fmt.Errorf("constructive F5 witness unexpectedly consistent")
	}
	// The shipped rule picks the member and preserves the prefix.
	if rep, ok := gs.ChosenRep(); !ok || rep != 3 {
		return Finding{}, fmt.Errorf("longest-order rule picked %v", rep)
	}
	if !types.IsPrefix(member.Ord[:member.Next-1], gs.FullOrder().Ord) {
		return Finding{}, fmt.Errorf("longest-order rule broke the confirmed prefix")
	}
	return Finding{
		ID:    "F5",
		Title: "chosenrep = \"some element in reps(Y)\" is unsafe; the rep must hold the maximal order",
		Witness: fmt.Sprintf("least-id rep gives %v, which reorders the confirmed prefix %v (see tocore.TestRegressionChosenRepSeed7 for the full schedule)",
			leastIDFull, member.Ord[:member.Next-1]),
	}, nil
}

// DemonstrateFindings runs all five demonstrations.
func DemonstrateFindings(cfg CheckConfig) ([]Finding, error) {
	demos := []func(CheckConfig) (Finding, error){
		DemonstrateF1, DemonstrateF2, DemonstrateF3, DemonstrateF4, DemonstrateF5,
	}
	out := make([]Finding, 0, len(demos))
	for _, d := range demos {
		f, err := d(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
	return out, nil
}
