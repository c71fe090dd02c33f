package dvs

import (
	"fmt"
	"time"

	"repro/internal/ioa"
	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	dvsspec "repro/internal/spec/dvs"
	tospec "repro/internal/spec/to"
	vsspec "repro/internal/spec/vs"
	"repro/internal/types"
)

// CheckConfig configures the specification-layer checks.
type CheckConfig struct {
	// Procs is the universe size (default 4, at most types.MaxProcs).
	Procs int
	// Initial lists the members of v0 (default: processes 0, 1 and the
	// highest id, exercising both members and late joiners).
	Initial []int
	// Steps per execution (default 500).
	Steps int
	// Seeds is the number of seeded executions (default 10).
	Seeds int
	// Seed is the base seed.
	Seed int64
	// Parallel is the number of workers seeds are fanned out to
	// (0 = GOMAXPROCS, 1 = serial). Each seed runs a fresh automaton and a
	// fresh environment, so the reported lowest failing seed is identical
	// under every setting.
	Parallel int
}

func (c CheckConfig) fill() (CheckConfig, types.ProcSet, types.View, error) {
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.Steps <= 0 {
		c.Steps = 500
	}
	if c.Seeds <= 0 {
		c.Seeds = 10
	}
	members := c.Initial
	if len(members) == 0 {
		members = []int{0, min(1, c.Procs-1), c.Procs - 1}
	}
	universe, v0, err := initialView(c.Procs, members)
	return c, universe, v0, err
}

// CheckVSInvariants drives the VS specification automaton (Figure 1)
// through seeded random executions, checking Invariant 3.1 at every state.
func CheckVSInvariants(cfg CheckConfig) (ioa.CheckReport, error) {
	cfg, universe, v0, err := cfg.fill()
	if err != nil {
		return ioa.CheckReport{}, err
	}
	ex := &ioa.Executor{Steps: cfg.Steps, Seed: cfg.Seed, Parallel: cfg.Parallel}
	return ex.RunSeeds(cfg.Seeds,
		func() ioa.Automaton { return vsspec.New(universe, v0) },
		func(seed int64) ioa.Environment { return vsspec.NewEnv(seed+1, universe) },
		vsspec.Invariants())
}

// CheckDVSInvariants drives the DVS specification automaton (Figure 2)
// through seeded random executions, checking Invariants 4.1 and 4.2 at
// every state.
func CheckDVSInvariants(cfg CheckConfig) (ioa.CheckReport, error) {
	cfg, universe, v0, err := cfg.fill()
	if err != nil {
		return ioa.CheckReport{}, err
	}
	ex := &ioa.Executor{Steps: cfg.Steps, Seed: cfg.Seed, Parallel: cfg.Parallel}
	return ex.RunSeeds(cfg.Seeds,
		func() ioa.Automaton { return dvsspec.New(universe, v0) },
		func(seed int64) ioa.Environment { return dvsspec.NewEnv(seed+1, universe) },
		dvsspec.Invariants())
}

// CheckDVSRefinement mechanically checks Theorem 5.9: every step of the
// DVS-IMPL system (Figure 3 over Figure 1) simulates, under the refinement
// of Figure 4, a fragment of the (amended) DVS specification with the same
// trace — while Invariants 5.1–5.6 hold at every reachable implementation
// state and Invariants 4.1–4.2 at every specification state.
func CheckDVSRefinement(cfg CheckConfig) (ioa.CheckReport, error) {
	cfg, universe, v0, err := cfg.fill()
	if err != nil {
		return ioa.CheckReport{}, err
	}
	ref := &dvscore.Refinement{Universe: universe, Initial: v0}
	return ioa.CheckRefinementSeeds(cfg.Seeds,
		func() ioa.Automaton { return dvscore.NewImpl(universe, v0) },
		ref,
		func(seed int64) ioa.Environment { return dvscore.NewEnv(seed+1, universe) },
		ioa.CheckerConfig{
			Steps:          cfg.Steps,
			Seed:           cfg.Seed,
			Parallel:       cfg.Parallel,
			ImplInvariants: dvscore.Invariants(),
			SpecInvariants: dvsspec.Invariants(),
		})
}

// CheckTOTraceInclusion mechanically checks Theorem 6.4: every trace of
// TO-IMPL (Figure 5 over the literal Figure 2 DVS specification) is a trace
// of the TO service, while Invariants 6.1–6.3 hold at every reachable
// state.
func CheckTOTraceInclusion(cfg CheckConfig) (ioa.CheckReport, error) {
	cfg, universe, v0, err := cfg.fill()
	if err != nil {
		return ioa.CheckReport{}, err
	}
	return ioa.CheckTraceInclusionSeeds(cfg.Seeds,
		func(seed int64) (ioa.Automaton, ioa.Monitor, ioa.Environment) {
			impl := tocore.NewImpl(universe, v0, tocore.Config{DVS: tocore.DVSLiteral, Universe: true})
			return impl, tospec.NewMonitor(universe), tocore.NewEnv(seed+1, universe)
		},
		ioa.CheckerConfig{
			Steps:          cfg.Steps,
			Seed:           cfg.Seed,
			Parallel:       cfg.Parallel,
			ImplInvariants: tocore.Invariants(),
		})
}

// CheckExplore exhaustively model-checks a small DVS-IMPL configuration
// (2 processes, one client message, one candidate view change) up to a
// depth bound: Invariants 5.1–5.6 are asserted at every distinct reachable
// state and the Theorem 5.9 step correspondence on every explored edge.
// Only Parallel is honored from cfg — the configuration itself is fixed so
// the reported state/edge counts are a stable cross-check between worker
// counts (the level-synchronous BFS guarantees they are identical).
func CheckExplore(cfg CheckConfig) (ioa.CheckReport, error) {
	universe := types.RangeProcSet(2)
	v0 := types.InitialView(types.NewProcSet(0, 1))
	env := &dvscore.BoundedEnv{
		MaxMsgs:  1,
		MaxViews: 2,
		Views:    []types.ProcSet{types.NewProcSet(0), types.NewProcSet(0, 1)},
	}
	res, err := ioa.Explore(dvscore.NewImpl(universe, v0), env, ioa.ExploreConfig{
		MaxStates:      1 << 20,
		MaxDepth:       12,
		Parallel:       cfg.Parallel,
		Invariants:     dvscore.Invariants(),
		Refinement:     &dvscore.Refinement{Universe: universe, Initial: v0},
		SpecInvariants: dvsspec.Invariants(),
	})
	return res.Report(), err
}

// ExploreDeepConfig bounds the deep exhaustive exploration (experiment
// E12): a 3-process DVS-IMPL configuration explored an order of magnitude
// past the fixed CheckExplore bounds, with optional symmetry reduction.
type ExploreDeepConfig struct {
	// Procs is the universe size (default 3). The initial view covers the
	// whole universe and the candidate memberships are every two-process
	// pair plus the full universe, so the input enumeration is closed under
	// every permutation of the universe — the precondition for symmetry
	// reduction.
	Procs int
	// MaxMsgs bounds the client messages in the system (default 1).
	MaxMsgs int
	// MaxViews bounds the created views including v0 (default 2).
	MaxViews int
	// MaxDepth bounds the BFS depth (default 11).
	MaxDepth int
	// MaxStates caps distinct states (default 1 << 20).
	MaxStates int
	// Parallel is the number of BFS workers (0 = GOMAXPROCS, 1 = serial).
	Parallel int
	// Symmetry explores one representative per process-permutation orbit
	// instead of every state (sound for DVS-IMPL; see DESIGN.md §6.7).
	Symmetry bool
	// AuditSymmetry additionally verifies, for every discovered state, that
	// the whole orbit canonicalizes to one representative. Implies Symmetry.
	AuditSymmetry bool
	// Refinement also checks the Figure 4 step correspondence on every
	// explored edge.
	Refinement bool
}

func (c ExploreDeepConfig) fill() ExploreDeepConfig {
	if c.Procs <= 0 {
		c.Procs = 3
	}
	if c.MaxMsgs == 0 {
		c.MaxMsgs = 1
	}
	if c.MaxViews <= 0 {
		c.MaxViews = 2
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 11
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 1 << 20
	}
	return c
}

// CheckExploreDeep exhaustively model-checks the E12 configuration:
// Invariants 5.1–5.6 at every distinct reachable state, optionally the
// Theorem 5.9 step correspondence on every edge, optionally one state per
// symmetry orbit. The counts are deterministic at every worker count; at
// the defaults the exploration reaches 38566 states over 108312 edges
// (6527 states over 18553 edges with Symmetry — a 5.9x reduction).
func CheckExploreDeep(cfg ExploreDeepConfig) (ioa.CheckReport, error) {
	cfg = cfg.fill()
	universe, v0, err := initialView(cfg.Procs, nil)
	if err != nil {
		return ioa.CheckReport{}, err
	}
	var views []types.ProcSet
	for i := 0; i < cfg.Procs; i++ {
		for j := i + 1; j < cfg.Procs; j++ {
			views = append(views, types.NewProcSet(types.ProcID(i), types.ProcID(j)))
		}
	}
	if cfg.Procs > 2 {
		views = append(views, universe)
	}
	env := &dvscore.BoundedEnv{
		MaxMsgs:    cfg.MaxMsgs,
		MaxViews:   cfg.MaxViews,
		Views:      views,
		AllOrigins: true,
	}
	im := dvscore.NewImpl(universe, v0)
	if cfg.Symmetry || cfg.AuditSymmetry {
		im.EnableSymmetry()
	}
	ecfg := ioa.ExploreConfig{
		MaxStates:     cfg.MaxStates,
		MaxDepth:      cfg.MaxDepth,
		Parallel:      cfg.Parallel,
		Invariants:    dvscore.Invariants(),
		Symmetry:      cfg.Symmetry,
		AuditSymmetry: cfg.AuditSymmetry,
	}
	if cfg.Refinement {
		ecfg.Refinement = &dvscore.Refinement{Universe: universe, Initial: v0}
		ecfg.SpecInvariants = dvsspec.Invariants()
	}
	res, err := ioa.Explore(im, env, ecfg)
	return res.Report(), err
}

// CheckAll runs every specification-layer check and returns the merged
// report.
func CheckAll(cfg CheckConfig) (ioa.CheckReport, error) {
	start := time.Now()
	checks := []struct {
		name string
		run  func(CheckConfig) (ioa.CheckReport, error)
	}{
		{"VS invariants", CheckVSInvariants},
		{"DVS invariants", CheckDVSInvariants},
		{"DVS refinement (Theorem 5.9)", CheckDVSRefinement},
		{"TO trace inclusion (Theorem 6.4)", CheckTOTraceInclusion},
	}
	var total ioa.CheckReport
	for _, c := range checks {
		rep, err := c.run(cfg)
		total.Merge(rep)
		if err != nil {
			total.Wall = time.Since(start)
			return total, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	total.Wall = time.Since(start)
	return total, nil
}
