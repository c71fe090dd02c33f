package ioa

import (
	"fmt"
	"math/rand"
)

// Executor drives an automaton through a pseudo-random execution, checking
// every invariant at the initial state and after every step.
type Executor struct {
	// Steps is the maximum number of steps to take; the run may stop early
	// if no action is enabled and the environment supplies no input.
	Steps int
	// Seed selects the pseudo-random schedule.
	Seed int64
	// InputWeight is the relative weight of environment inputs versus
	// locally controlled actions when both are available. It is a count of
	// "slots": with weight w and k inputs and m locals, an input is chosen
	// with probability w·k/(w·k+m). Zero means weight 1.
	InputWeight int
	// Parallel is the number of workers RunSeeds fans seeds out to:
	// 0 means GOMAXPROCS, 1 forces the serial in-order loop. The reported
	// failure is the lowest failing seed under any setting.
	Parallel int
}

// RunResult summarizes one execution.
type RunResult struct {
	// StepsTaken is the number of transitions performed.
	StepsTaken int
	// InvariantEvals is the number of invariant predicate evaluations.
	InvariantEvals int64
	// Trace is the sequence of external actions performed, in order.
	Trace []Action
	// Final is the automaton in its last state.
	Final Automaton
}

// report converts the per-execution tallies into a CheckReport (one
// execution; states checked = initial state + one per step).
func (r *RunResult) report() CheckReport {
	return CheckReport{
		Executions:     1,
		Steps:          int64(r.StepsTaken),
		States:         int64(r.StepsTaken) + 1,
		InvariantEvals: r.InvariantEvals,
	}
}

// Run executes the automaton. The automaton is mutated in place; pass a
// fresh instance (or a clone) per run. Each invariant is checked on the
// initial state and after every step; the first violation aborts the run
// with a *StepError describing the step.
func (e *Executor) Run(a Automaton, env Environment, invs []Invariant) (*RunResult, error) {
	if env == nil {
		env = NoEnvironment
	}
	rng := rand.New(rand.NewSource(e.Seed))
	res := &RunResult{Final: a}
	nInvs := int64(countInvs(invs))

	res.InvariantEvals += nInvs
	if err := checkInvariants(a, invs); err != nil {
		return res, &StepError{Step: 0, Action: Action{Name: "<init>"}, State: Render(a), Err: err}
	}

	weight := e.InputWeight
	if weight <= 0 {
		weight = 1
	}
	for step := 1; step <= e.Steps; step++ {
		act, ok := pickAction(a, env, rng, weight)
		if !ok {
			break
		}
		if err := a.Perform(act); err != nil {
			return res, &StepError{Step: step, Action: act, State: Render(a), Err: fmt.Errorf("perform: %w", err)}
		}
		res.StepsTaken = step
		if act.External() {
			res.Trace = append(res.Trace, act)
		}
		res.InvariantEvals += nInvs
		if err := checkInvariants(a, invs); err != nil {
			return res, &StepError{Step: step, Action: act, State: Render(a), Err: err}
		}
	}
	return res, nil
}

// RunSeeds runs fresh automata (from mk) with fresh environments (from
// mkEnv, which may be nil for no environment) across seeds base..base+n-1,
// fanning the seeds out to Parallel workers. It is the workhorse for "check
// invariants over many random executions" tests.
//
// Every seed's execution is fully independent — its own automaton, its own
// environment, its own schedule — so a failure reported for seed S
// reproduces by running seed S alone. The returned error is a *SeedError
// for the LOWEST failing seed regardless of worker completion order.
func (e *Executor) RunSeeds(n int, mk func() Automaton, mkEnv func(seed int64) Environment, invs []Invariant) (CheckReport, error) {
	base := e.Seed
	return seedFanOut(e.Parallel, n, func(i int) (CheckReport, error) {
		run := *e
		run.Seed = base + int64(i)
		var env Environment
		if mkEnv != nil {
			env = mkEnv(run.Seed)
		}
		res, err := run.Run(mk(), env, invs)
		if err != nil {
			return res.report(), &SeedError{Seed: run.Seed, Err: err}
		}
		return res.report(), nil
	})
}

func pickAction(a Automaton, env Environment, rng *rand.Rand, inputWeight int) (Action, bool) {
	locals := a.Enabled()
	inputs := env.Inputs(a)
	total := len(locals) + inputWeight*len(inputs)
	if total == 0 {
		return Action{}, false
	}
	k := rng.Intn(total)
	if k < len(locals) {
		return locals[k], true
	}
	return inputs[(k-len(locals))/inputWeight], true
}

func checkInvariants(a Automaton, invs []Invariant) error {
	for _, inv := range invs {
		if inv.Check == nil {
			continue
		}
		if err := inv.Check(a); err != nil {
			return fmt.Errorf("invariant %s violated: %w", inv.Name, err)
		}
	}
	return nil
}
