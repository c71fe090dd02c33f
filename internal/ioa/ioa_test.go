package ioa

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// counter is a toy automaton: an internal "tick" increments n; an output
// "emit" is enabled when n is even and resets n to 0.
type counter struct {
	n     int
	limit int
}

func (c *counter) Name() string { return "counter" }

func (c *counter) Enabled() []Action {
	var acts []Action
	if c.n < c.limit {
		acts = append(acts, Action{Name: "tick", Kind: KindInternal})
	}
	if c.n > 0 && c.n%2 == 0 {
		acts = append(acts, Action{Name: "emit", Kind: KindOutput, Param: c.n})
	}
	return acts
}

func (c *counter) Perform(a Action) error {
	switch a.Name {
	case "tick":
		if c.n >= c.limit {
			return errors.New("tick: limit reached")
		}
		c.n++
		return nil
	case "emit":
		v, ok := a.Param.(int)
		if !ok || v != c.n || c.n%2 != 0 || c.n == 0 {
			return errors.New("emit: not enabled")
		}
		c.n = 0
		return nil
	case "set":
		c.n = a.Param.(int)
		return nil
	default:
		return fmt.Errorf("unknown action %q", a.Name)
	}
}

func (c *counter) Clone() Automaton { cp := *c; return &cp }

func TestKindString(t *testing.T) {
	if KindInput.String() != "input" || KindOutput.String() != "output" || KindInternal.String() != "internal" {
		t.Error("Kind.String wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should render its number")
	}
}

func TestActionKeyAndExternal(t *testing.T) {
	a := Action{Name: "emit", Kind: KindOutput, Param: 4}
	if a.Key() != "emit(4)" {
		t.Errorf("Key = %q", a.Key())
	}
	if !a.External() {
		t.Error("output is external")
	}
	if (Action{Kind: KindInternal}).External() {
		t.Error("internal is not external")
	}
	if (Action{Name: "x"}).Key() != "x()" {
		t.Error("nil param renders empty")
	}
}

func TestSortActionsDeterministic(t *testing.T) {
	acts := []Action{
		{Name: "b", Param: 2},
		{Name: "a", Param: 9},
		{Name: "b", Param: 1},
	}
	SortActions(acts)
	if acts[0].Name != "a" || acts[1].Key() != "b(1)" || acts[2].Key() != "b(2)" {
		t.Errorf("SortActions = %v", acts)
	}
}

func TestExecutorRunsAndStops(t *testing.T) {
	c := &counter{limit: 3}
	ex := &Executor{Steps: 100, Seed: 1}
	res, err := ex.Run(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsTaken == 0 {
		t.Error("no steps taken")
	}
	for _, a := range res.Trace {
		if a.Name != "emit" {
			t.Errorf("internal action %s in trace", a)
		}
	}
}

func TestExecutorDeterministicPerSeed(t *testing.T) {
	run := func() string {
		c := &counter{limit: 5}
		ex := &Executor{Steps: 50, Seed: 7}
		res, err := ex.Run(c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(res.Trace))
		for i, a := range res.Trace {
			keys[i] = a.Key()
		}
		return strings.Join(keys, ";") + "|" + Render(res.Final)
	}
	if run() != run() {
		t.Error("same seed must give the same execution")
	}
}

func TestExecutorInvariantViolation(t *testing.T) {
	inv := Invariant{Name: "n<2", Check: func(a Automaton) error {
		if a.(*counter).n >= 2 {
			return errors.New("n too large")
		}
		return nil
	}}
	c := &counter{limit: 10}
	ex := &Executor{Steps: 100, Seed: 1}
	_, err := ex.Run(c, nil, []Invariant{inv})
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("want StepError, got %v", err)
	}
	if !strings.Contains(err.Error(), "n<2") {
		t.Errorf("error should name the invariant: %v", err)
	}
}

func TestExecutorInitialInvariant(t *testing.T) {
	inv := Invariant{Name: "never", Check: func(Automaton) error { return errors.New("boom") }}
	_, err := (&Executor{Steps: 1}).Run(&counter{limit: 1}, nil, []Invariant{inv})
	var se *StepError
	if !errors.As(err, &se) || se.Step != 0 {
		t.Fatalf("initial-state violation should be step 0, got %v", err)
	}
}

func TestExecutorEnvironmentInputs(t *testing.T) {
	env := EnvironmentFunc(func(a Automaton) []Action {
		return []Action{{Name: "set", Kind: KindInput, Param: 2}}
	})
	c := &counter{limit: 0} // no local actions ever
	ex := &Executor{Steps: 10, Seed: 3}
	res, err := ex.Run(c, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsTaken != 10 {
		t.Errorf("inputs should keep the run alive: %d steps", res.StepsTaken)
	}
}

func TestRunSeeds(t *testing.T) {
	ex := &Executor{Steps: 20}
	rep, err := ex.RunSeeds(5, func() Automaton { return &counter{limit: 4} }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 5 || rep.Steps == 0 {
		t.Errorf("report should cover all executions: %+v", rep)
	}
	bad := Invariant{Name: "n!=3", Check: func(a Automaton) error {
		if a.(*counter).n == 3 {
			return errors.New("hit 3")
		}
		return nil
	}}
	_, err = ex.RunSeeds(5, func() Automaton { return &counter{limit: 4} }, nil, []Invariant{bad})
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("RunSeeds should report the failing seed, got %v", err)
	}
	var se *SeedError
	if !errors.As(err, &se) {
		t.Errorf("RunSeeds failures should be SeedErrors, got %T", err)
	}
}

// doubler abstracts counter: its state is n as well, but transitions come
// only from the correspondence (tick maps to tick, emit to emit).
// limit is the abstracted counter's, since the state includes it.
type identityRefinement struct {
	bad   bool
	limit int
}

func (r identityRefinement) Abstract(impl Automaton) (Automaton, error) {
	c := impl.(*counter)
	cp := *c
	if r.bad {
		cp.n++ // deliberately wrong abstraction
	}
	return &cp, nil
}

func (r identityRefinement) SpecInitial() Automaton { return &counter{limit: r.limit} }

func (r identityRefinement) Plan(pre Automaton, act Action) ([]Action, error) {
	return []Action{act}, nil
}

func TestCheckRefinementIdentity(t *testing.T) {
	_, err := CheckRefinement(&counter{limit: 6}, identityRefinement{limit: 6}, nil, CheckerConfig{Steps: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckRefinementDetectsBadAbstraction(t *testing.T) {
	_, err := CheckRefinement(&counter{limit: 6}, identityRefinement{bad: true, limit: 6}, nil, CheckerConfig{Steps: 50, Seed: 2})
	if err == nil {
		t.Fatal("bad abstraction must be detected")
	}
}

// planDropper returns an empty plan for the external emit action: the trace
// correspondence must catch it.
type planDropper struct{ identityRefinement }

func (planDropper) Plan(pre Automaton, act Action) ([]Action, error) {
	if act.Name == "emit" {
		return nil, nil
	}
	return []Action{act}, nil
}

func TestCheckRefinementDetectsTraceMismatch(t *testing.T) {
	_, err := CheckRefinement(&counter{limit: 6}, planDropper{identityRefinement{limit: 6}}, nil, CheckerConfig{Steps: 50, Seed: 2})
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("dropped external action must be a trace mismatch, got %v", err)
	}
}

func TestCheckRefinementSeeds(t *testing.T) {
	_, err := CheckRefinementSeeds(3,
		func() Automaton { return &counter{limit: 4} },
		identityRefinement{limit: 4}, nil, CheckerConfig{Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// evenMonitor accepts only even emit values.
type evenMonitor struct{}

func (evenMonitor) Observe(act Action) error {
	v, ok := act.Param.(int)
	if !ok || v%2 != 0 {
		return fmt.Errorf("odd emission %v", act.Param)
	}
	return nil
}

func TestCheckTraceInclusion(t *testing.T) {
	_, err := CheckTraceInclusion(&counter{limit: 6}, evenMonitor{}, nil, CheckerConfig{Steps: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFingerprinterCanonical: a map's fingerprint does not depend on the
// order its entries were inserted in, and Render sorts them too.
func TestFingerprinterCanonical(t *testing.T) {
	a, b := toyLines(), toyLines()
	for i := 1; i <= 50; i++ {
		a.add(fmt.Sprint(i), fmt.Sprint(i*i))
		b.add(fmt.Sprint(51-i), fmt.Sprint((51-i)*(51-i)))
	}
	if FpOf(a) != FpOf(b) {
		t.Error("hash fingerprint must not depend on insertion order")
	}
	if Render(a) != Render(b) {
		t.Error("text fingerprint must not depend on insertion order")
	}
}

func TestStepErrorUnwrap(t *testing.T) {
	cause := errors.New("cause")
	se := &StepError{Step: 3, Action: Action{Name: "a"}, Err: cause}
	if !errors.Is(se, cause) {
		t.Error("StepError must unwrap")
	}
	if !strings.Contains(se.Error(), "step 3") {
		t.Errorf("Error = %q", se.Error())
	}
}
