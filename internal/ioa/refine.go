package ioa

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Refinement is a single-valued simulation relation from an implementation
// automaton to a specification automaton, in the paper's sense ("we use the
// term refinement to denote a single-valued simulation relation").
//
// Abstract is the function F of Figure 4. Plan supplies, for one
// implementation step (s, act, s'), the execution fragment α of the
// specification required by Lemma 5.8: a (possibly empty) sequence of
// specification actions whose trace equals trace(act).
type Refinement interface {
	// Abstract maps an implementation state to the corresponding
	// specification state F(s).
	Abstract(impl Automaton) (Automaton, error)
	// Plan returns the specification actions simulating the given
	// implementation step, as a function of the step's pre-state and
	// action only. pre must not be mutated. Deriving the plan from the
	// pre-state alone (the post-state is determined by pre and act anyway,
	// the automata being deterministic per action) lets the random-walk
	// checker plan before performing, eliminating a full implementation
	// Clone per step.
	Plan(pre Automaton, act Action) ([]Action, error)
	// SpecInitial returns a fresh specification automaton in its initial
	// state, used to check the Lemma 5.7 obligation F(init) = init.
	SpecInitial() Automaton
}

// CheckerConfig configures a refinement check.
type CheckerConfig struct {
	// Steps per execution.
	Steps int
	// Seed for the pseudo-random schedule.
	Seed int64
	// InputWeight as in Executor.
	InputWeight int
	// Parallel is the worker count for the seed fan-out entry points
	// (0 = GOMAXPROCS, 1 = serial); single-execution checks ignore it.
	Parallel int
	// ImplInvariants are checked on every reachable implementation state.
	ImplInvariants []Invariant
	// SpecInvariants are checked on every intermediate specification state.
	SpecInvariants []Invariant
}

// CheckRefinement drives the implementation automaton through a
// pseudo-random execution and verifies, for every step, the two obligations
// of a refinement:
//
//  1. F(initial implementation state) is the initial specification state
//     (Lemma 5.7), and
//  2. for each step (s, act, s'), the planned specification fragment is
//     enabled from F(s), has the same external trace as the step, and ends
//     exactly in F(s') (Lemma 5.8).
//
// The implementation automaton is mutated; pass a fresh instance per call.
func CheckRefinement(impl Automaton, ref Refinement, env Environment, cfg CheckerConfig) (CheckReport, error) {
	start := time.Now()
	rep := CheckReport{Executions: 1, States: 1}
	defer func() { rep.Wall = time.Since(start) }()
	if env == nil {
		env = NoEnvironment
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	weight := cfg.InputWeight
	if weight <= 0 {
		weight = 1
	}
	nImplInvs := int64(countInvs(cfg.ImplInvariants))

	// Lemma 5.7: F maps the initial state to an initial spec state.
	absCur, err := ref.Abstract(impl)
	if err != nil {
		return rep, fmt.Errorf("abstract initial state: %w", err)
	}
	specInit := ref.SpecInitial()
	if FpOf(absCur) != FpOf(specInit) {
		return rep, fmt.Errorf("F(init) is not the spec initial state:\n  F(init) = %s\n  init    = %s",
			Render(absCur), Render(specInit))
	}
	rep.InvariantEvals += nImplInvs
	if err := checkInvariants(impl, cfg.ImplInvariants); err != nil {
		return rep, &StepError{Step: 0, Action: Action{Name: "<init>"}, State: Render(impl), Err: err}
	}

	for step := 1; step <= cfg.Steps; step++ {
		act, ok := pickAction(impl, env, rng, weight)
		if !ok {
			return rep, nil
		}
		// Plan from the live pre-state, then perform in place: the walk
		// needs no pre-state after this, so the full per-step
		// implementation Clone this loop used to take (the dominant
		// allocation of the refinement check) is gone.
		plan, err := ref.Plan(impl, act)
		if err != nil {
			return rep, &StepError{Step: step, Action: act, State: Render(impl), Err: fmt.Errorf("plan: %w", err)}
		}
		if err := impl.Perform(act); err != nil {
			return rep, &StepError{Step: step, Action: act, State: Render(impl), Err: fmt.Errorf("perform: %w", err)}
		}
		rep.Steps++
		rep.States++
		rep.InvariantEvals += nImplInvs
		if err := checkInvariants(impl, cfg.ImplInvariants); err != nil {
			return rep, &StepError{Step: step, Action: act, State: Render(impl), Err: err}
		}
		// The walk is sequential, so F(post) of this step is F(pre) of the
		// next: one Abstract call per step instead of two.
		absPost, err := ref.Abstract(impl)
		if err != nil {
			return rep, &StepError{Step: step, Action: act, State: Render(impl), Err: fmt.Errorf("abstract post-state: %w", err)}
		}
		if err := checkPlanExecution(plan, act, absCur, absPost, cfg.SpecInvariants, &rep); err != nil {
			return rep, &StepError{Step: step, Action: act, State: Render(impl), Err: err}
		}
		absCur = absPost
	}
	return rep, nil
}

// CheckRefinementSeeds repeats CheckRefinement across seeds base..base+n-1
// with a fresh implementation automaton (from mk) and a fresh environment
// (from mkEnv, which receives the seed and may be nil) per seed, fanned out
// to cfg.Parallel workers. The returned error is a *SeedError for the
// lowest failing seed regardless of worker completion order.
func CheckRefinementSeeds(n int, mk func() Automaton, ref Refinement, mkEnv func(seed int64) Environment, cfg CheckerConfig) (CheckReport, error) {
	base := cfg.Seed
	return seedFanOut(cfg.Parallel, n, func(i int) (CheckReport, error) {
		run := cfg
		run.Seed = base + int64(i)
		var env Environment
		if mkEnv != nil {
			env = mkEnv(run.Seed)
		}
		rep, err := CheckRefinement(mk(), ref, env, run)
		if err != nil {
			return rep, &SeedError{Seed: run.Seed, Err: err}
		}
		return rep, nil
	})
}

// checkPlannedStep is the core of the Lemma 5.8 check with F(pre) and
// F(post) already computed. absPre is never mutated — the planned fragment
// runs on a clone — so callers may cache it across all outgoing edges of a
// state (Explore) or across consecutive steps of a walk (CheckRefinement).
func checkPlannedStep(pre Automaton, act Action, absPre, absPost Automaton, ref Refinement, specInvs []Invariant, rep *CheckReport) error {
	plan, err := ref.Plan(pre, act)
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	return checkPlanExecution(plan, act, absPre, absPost, specInvs, rep)
}

// checkPlanExecution verifies a precomputed plan: trace equality with the
// step, enabledness of every planned action from F(pre), spec invariants on
// the intermediate states, and F(post) as the end state.
func checkPlanExecution(plan []Action, act Action, absPre, absPost Automaton, specInvs []Invariant, rep *CheckReport) error {
	// The plan's external trace must equal the step's external trace: one
	// matching external action if the step is external, none otherwise.
	// Compared pairwise to avoid building trace slices per edge.
	externals := 0
	match := true
	for _, pa := range plan {
		if !pa.External() {
			continue
		}
		externals++
		if externals > 1 || !act.External() || pa.Key() != act.Key() {
			match = false
		}
	}
	if act.External() && externals != 1 {
		match = false
	}
	if !match {
		var gotTrace, wantTrace []string
		for _, pa := range plan {
			if pa.External() {
				gotTrace = append(gotTrace, pa.Key())
			}
		}
		if act.External() {
			wantTrace = []string{act.Key()}
		}
		return fmt.Errorf("plan trace %v does not match step trace %v", gotTrace, wantTrace)
	}

	// Execute the fragment from F(pre); every action must be enabled. An
	// empty plan leaves the spec state untouched, so the clone is skipped.
	state := absPre
	if len(plan) > 0 {
		nSpecInvs := int64(countInvs(specInvs))
		state = absPre.Clone()
		for i, pa := range plan {
			if err := state.Perform(pa); err != nil {
				return fmt.Errorf("spec action %d/%d (%s) not enabled: %w", i+1, len(plan), pa, err)
			}
			if rep != nil {
				rep.InvariantEvals += nSpecInvs
			}
			if err := checkInvariants(state, specInvs); err != nil {
				return fmt.Errorf("after spec action %s: %w", pa, err)
			}
		}
	}
	if FpOf(state) != FpOf(absPost) {
		return errors.New("simulated spec state differs from F(post):\n  simulated = " + Render(state) + "\n  F(post)   = " + Render(absPost))
	}
	return nil
}

// Monitor accepts the external actions of an implementation one at a time,
// failing if the observed trace is not a trace of the monitored
// specification. It supports forward-simulation style trace-inclusion checks
// where the specification's nondeterminism can be resolved greedily.
type Monitor interface {
	// Observe consumes one external action; it returns an error if no
	// specification execution can extend the previously observed trace with
	// this action.
	Observe(act Action) error
}

// CheckTraceInclusion drives the implementation through a pseudo-random
// execution, feeding every external action to the monitor.
func CheckTraceInclusion(impl Automaton, mon Monitor, env Environment, cfg CheckerConfig) (CheckReport, error) {
	start := time.Now()
	rep := CheckReport{Executions: 1, States: 1}
	defer func() { rep.Wall = time.Since(start) }()
	if env == nil {
		env = NoEnvironment
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	weight := cfg.InputWeight
	if weight <= 0 {
		weight = 1
	}
	nInvs := int64(countInvs(cfg.ImplInvariants))
	rep.InvariantEvals += nInvs
	if err := checkInvariants(impl, cfg.ImplInvariants); err != nil {
		return rep, &StepError{Step: 0, Action: Action{Name: "<init>"}, State: Render(impl), Err: err}
	}
	for step := 1; step <= cfg.Steps; step++ {
		act, ok := pickAction(impl, env, rng, weight)
		if !ok {
			return rep, nil
		}
		if err := impl.Perform(act); err != nil {
			return rep, &StepError{Step: step, Action: act, State: Render(impl), Err: fmt.Errorf("perform: %w", err)}
		}
		rep.Steps++
		rep.States++
		rep.InvariantEvals += nInvs
		if err := checkInvariants(impl, cfg.ImplInvariants); err != nil {
			return rep, &StepError{Step: step, Action: act, State: Render(impl), Err: err}
		}
		if act.External() {
			if err := mon.Observe(act); err != nil {
				return rep, &StepError{Step: step, Action: act, State: Render(impl), Err: fmt.Errorf("trace rejected: %w", err)}
			}
		}
	}
	return rep, nil
}

// CheckTraceInclusionSeeds repeats CheckTraceInclusion across seeds
// base..base+n-1, with a fresh implementation, monitor, and environment per
// seed (mk receives the seed so environments can derive their own seeds
// from it), fanned out to cfg.Parallel workers. The returned error is a
// *SeedError for the lowest failing seed regardless of worker completion
// order.
func CheckTraceInclusionSeeds(n int, mk func(seed int64) (Automaton, Monitor, Environment), cfg CheckerConfig) (CheckReport, error) {
	base := cfg.Seed
	return seedFanOut(cfg.Parallel, n, func(i int) (CheckReport, error) {
		run := cfg
		run.Seed = base + int64(i)
		impl, mon, env := mk(run.Seed)
		rep, err := CheckTraceInclusion(impl, mon, env, run)
		if err != nil {
			return rep, &SeedError{Seed: run.Seed, Err: err}
		}
		return rep, nil
	})
}
