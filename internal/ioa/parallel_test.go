package ioa

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// bomb is a toy automaton with an input "boom" that trips a flag; the
// tripwire invariant below fails exactly when the flag is set. Fanning it
// out with an environment that offers boom only at chosen seeds gives a
// failure injected at *known* seeds, so tests can assert which seed every
// execution mode reports.
type bomb struct {
	n       int
	tripped bool
}

func (b *bomb) Name() string { return "bomb" }
func (b *bomb) Enabled() []Action {
	if b.n < 50 {
		return []Action{{Name: "tick", Kind: KindInternal}}
	}
	return nil
}
func (b *bomb) Perform(a Action) error {
	switch a.Name {
	case "tick":
		b.n++
	case "boom":
		b.tripped = true
	default:
		return errors.New("unknown")
	}
	return nil
}
func (b *bomb) Clone() Automaton { cp := *b; return &cp }

var tripwire = []Invariant{{Name: "never tripped", Check: func(a Automaton) error {
	if a.(*bomb).tripped {
		return errors.New("tripped")
	}
	return nil
}}}

// boomEnv offers the boom input only for the given seeds.
func boomEnv(failingSeeds ...int64) func(seed int64) Environment {
	return func(seed int64) Environment {
		for _, s := range failingSeeds {
			if seed == s {
				return EnvironmentFunc(func(Automaton) []Action {
					return []Action{{Name: "boom", Kind: KindInput}}
				})
			}
		}
		return nil
	}
}

// TestRunSeedsReportsLowestFailingSeed injects failures at seeds 23, 7 and
// 11 out of 40 and asserts that serial, single-worker, and NumCPU-worker
// fan-outs all report seed 7 with the identical StepError. Run under
// `go test -race` this also exercises the worker pool for data races.
func TestRunSeedsReportsLowestFailingSeed(t *testing.T) {
	mkEnv := boomEnv(23, 7, 11)
	var want string
	for _, parallel := range []int{1, 0, runtime.NumCPU(), 3} {
		ex := &Executor{Steps: 30, Parallel: parallel}
		_, err := ex.RunSeeds(40, func() Automaton { return &bomb{} }, mkEnv, tripwire)
		if err == nil {
			t.Fatalf("parallel=%d: injected failure not found", parallel)
		}
		var se *SeedError
		if !errors.As(err, &se) {
			t.Fatalf("parallel=%d: expected SeedError, got %T", parallel, err)
		}
		if se.Seed != 7 {
			t.Errorf("parallel=%d: reported seed %d, want lowest failing seed 7", parallel, se.Seed)
		}
		var step *StepError
		if !errors.As(err, &step) {
			t.Fatalf("parallel=%d: expected StepError, got %v", parallel, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("parallel=%d: error diverged:\n  got  %q\n  want %q", parallel, err.Error(), want)
		}
	}
}

// TestRunSeedsBaseSeedOffset: the reported seed is the absolute seed (base
// + index), so it can be fed straight back as Executor.Seed.
func TestRunSeedsBaseSeedOffset(t *testing.T) {
	ex := &Executor{Steps: 30, Seed: 100, Parallel: 4}
	_, err := ex.RunSeeds(40, func() Automaton { return &bomb{} }, boomEnv(117), tripwire)
	var se *SeedError
	if !errors.As(err, &se) || se.Seed != 117 {
		t.Fatalf("got %v, want failure at seed 117", err)
	}
	// Reproduce in isolation.
	ex2 := &Executor{Steps: 30, Seed: se.Seed}
	_, err2 := ex2.RunSeeds(1, func() Automaton { return &bomb{} }, boomEnv(117), tripwire)
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("seed %d did not reproduce identically: %v vs %v", se.Seed, err2, err)
	}
}

// TestCheckRefinementSeedsLowestFailure injects a refinement-breaking input
// (identityBreaker mishandles boom) at seeds 13 and 5; every fan-out width
// must report seed 5.
func TestCheckRefinementSeedsLowestFailure(t *testing.T) {
	for _, parallel := range []int{1, runtime.NumCPU()} {
		cfg := CheckerConfig{Steps: 30, Parallel: parallel}
		_, err := CheckRefinementSeeds(20,
			func() Automaton { return &bomb{} },
			bombRefinement{}, boomEnv(13, 5), cfg)
		var se *SeedError
		if !errors.As(err, &se) || se.Seed != 5 {
			t.Errorf("parallel=%d: got %v, want failure at seed 5", parallel, err)
		}
	}
}

// bombRefinement is the identity refinement on bomb except that it cannot
// plan the boom input, so any seed whose environment injects boom fails.
type bombRefinement struct{}

func (bombRefinement) Abstract(a Automaton) (Automaton, error) { return a.Clone(), nil }
func (bombRefinement) SpecInitial() Automaton                  { return &bomb{} }
func (bombRefinement) Plan(pre Automaton, act Action) ([]Action, error) {
	if act.Name == "boom" {
		return nil, errors.New("unplannable input")
	}
	return []Action{act}, nil
}

// TestCheckTraceInclusionSeedsLowestFailure: the monitor rejects boom, and
// every fan-out width reports the lowest injected seed.
type noBoomMonitor struct{}

func (noBoomMonitor) Observe(act Action) error {
	if act.Name == "boom" {
		return errors.New("boom is not a spec trace")
	}
	return nil
}

func TestCheckTraceInclusionSeedsLowestFailure(t *testing.T) {
	mkEnv := boomEnv(19, 3)
	for _, parallel := range []int{1, runtime.NumCPU()} {
		cfg := CheckerConfig{Steps: 30, Parallel: parallel}
		_, err := CheckTraceInclusionSeeds(25,
			func(seed int64) (Automaton, Monitor, Environment) {
				return &bomb{}, noBoomMonitor{}, mkEnv(seed)
			}, cfg)
		var se *SeedError
		if !errors.As(err, &se) || se.Seed != 3 {
			t.Errorf("parallel=%d: got %v, want failure at seed 3", parallel, err)
		}
	}
}

// TestExploreParallelDeterministic: the level-synchronous BFS must visit
// the identical state/edge/depth counts at every worker width.
func TestExploreParallelDeterministic(t *testing.T) {
	want, err := Explore(&ring{m: 500}, nil, ExploreConfig{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.States != 500 || want.Edges != 1000 {
		t.Fatalf("serial baseline wrong: %+v", want)
	}
	for _, parallel := range []int{0, 2, runtime.NumCPU()} {
		got, err := Explore(&ring{m: 500}, nil, ExploreConfig{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if got.States != want.States || got.Edges != want.Edges || got.MaxDepth != want.MaxDepth {
			t.Errorf("parallel=%d: counts diverged: got %+v, want %+v", parallel, got, want)
		}
	}
}

// TestExploreParallelFindsViolation: invariant violations surface at every
// worker width, with the same deterministic error.
func TestExploreParallelFindsViolation(t *testing.T) {
	inv := Invariant{Name: "n<200", Check: func(a Automaton) error {
		if a.(*ring).n >= 200 && a.(*ring).n < 300 {
			return errors.New("forbidden band")
		}
		return nil
	}}
	var want string
	for _, parallel := range []int{1, runtime.NumCPU()} {
		_, err := Explore(&ring{m: 1000}, nil, ExploreConfig{Parallel: parallel, Invariants: []Invariant{inv}})
		if err == nil {
			t.Fatalf("parallel=%d: violation not found", parallel)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("parallel=%d: error diverged:\n  got  %q\n  want %q", parallel, err.Error(), want)
		}
	}
}

// TestExploreParallelStateBound: truncation by MaxStates is deterministic
// because discoveries are admitted in fingerprint order after each level.
func TestExploreParallelStateBound(t *testing.T) {
	for _, parallel := range []int{1, runtime.NumCPU()} {
		res, err := Explore(&ring{m: 1000}, nil, ExploreConfig{Parallel: parallel, MaxStates: 55})
		if err != nil {
			t.Fatal(err)
		}
		if res.States != 55 || !res.Truncated {
			t.Errorf("parallel=%d: res = %+v", parallel, res)
		}
	}
}

// testFp derives a well-spread Fp from an integer (splitmix64 on two
// streams), so the open-addressing stripes see realistic keys.
func testFp(i int) Fp {
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	return Fp{Hi: mix(uint64(i) + 1), Lo: mix(uint64(i) + 0x9e3779b97f4a7c15)}
}

func TestFpSet(t *testing.T) {
	s := newFpSet()
	var wg sync.WaitGroup
	dups := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				if !s.Add(testFp(i)) {
					dups[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 20000 {
		t.Errorf("len = %d, want 20000", s.Len())
	}
	total := 0
	for _, d := range dups {
		total += d
	}
	if total != 7*20000 {
		t.Errorf("duplicate adds = %d, want %d", total, 7*20000)
	}
}

// TestFpSetZeroFingerprint: the zero Fp doubles as the empty-slot marker, so
// it is stored out of band; adding it must still dedup correctly.
func TestFpSetZeroFingerprint(t *testing.T) {
	s := newFpSet()
	if !s.Add(Fp{}) {
		t.Error("first add of zero fingerprint must succeed")
	}
	if s.Add(Fp{}) {
		t.Error("second add of zero fingerprint must report duplicate")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
}

func TestWorkers(t *testing.T) {
	if Workers(1) != 1 || Workers(5) != 5 {
		t.Error("explicit worker counts must be respected")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("defaults must be at least one worker")
	}
}

func TestStateSeedPureAndDiscriminating(t *testing.T) {
	a := &ring{n: 3, m: 10}
	if StateSeed(1, a) != StateSeed(1, a) {
		t.Error("StateSeed must be deterministic")
	}
	if StateSeed(1, a) == StateSeed(2, a) {
		t.Error("StateSeed must depend on the base seed")
	}
	b := &ring{n: 4, m: 10}
	if StateSeed(1, a) == StateSeed(1, b) {
		t.Error("StateSeed must depend on the state")
	}
}
