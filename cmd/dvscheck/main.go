// Command dvscheck runs the specification-layer checks from the shell: the
// executable VS/DVS/TO automata are driven through seeded pseudo-random
// executions while every invariant from the paper is asserted at every
// reachable state, and the two refinement theorems (5.9 and 6.4) are
// verified step by step.
//
// Seeds are fanned out across a worker pool (-parallel, default one worker
// per GOMAXPROCS); every seed runs a fresh automaton and a fresh
// environment, so a failure is always reported for the lowest failing seed
// and reproduces with -seeds 1 -seed N at any worker count.
//
// The "explore" check is exhaustive rather than seeded: it model-checks a
// small fixed DVS-IMPL configuration by breadth-first search, so its state
// and edge counts are identical at every -parallel setting.
//
// The "explore-deep" check is the E12 configuration: the same exhaustive
// BFS an order of magnitude past the fixed "explore" bounds, with optional
// symmetry reduction (-symmetry explores one state per process-permutation
// orbit; -audit-symmetry cross-checks the orbit representatives).
//
// Usage:
//
//	dvscheck [-check all|vs|dvs|refinement|to|explore|explore-deep]
//	         [-procs N] [-steps N] [-seeds N] [-seed S] [-parallel N]
//	         [-depth N] [-symmetry] [-audit-symmetry] [-refinement] [-v]
//	         [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	dvs "repro"
	"repro/internal/ioa"
	"repro/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dvscheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		check      = flag.String("check", "all", "which check to run: all, vs, dvs, refinement, to, explore")
		procs      = flag.Int("procs", 4, "universe size")
		steps      = flag.Int("steps", 500, "steps per execution")
		seeds      = flag.Int("seeds", 10, "number of seeded executions")
		seed       = flag.Int64("seed", 0, "base seed")
		parallel   = flag.Int("parallel", 0, "seed fan-out workers (0 = GOMAXPROCS, 1 = serial)")
		depth      = flag.Int("depth", 0, "explore-deep: BFS depth bound (0 = default 11)")
		symmetry   = flag.Bool("symmetry", false, "explore-deep: explore one state per process-permutation orbit")
		auditSym   = flag.Bool("audit-symmetry", false, "explore-deep: verify orbit representatives (implies -symmetry)")
		refinement = flag.Bool("refinement", false, "explore-deep: also check the Figure 4 correspondence on every edge")
		verbose    = flag.Bool("v", false, "print per-check work reports (executions, steps, states, invariant evals, steps/s, allocation)")
		findings   = flag.Bool("findings", false, "reproduce the documented paper discrepancies F1-F4")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *procs > types.MaxProcs {
		return fmt.Errorf("-procs %d: at most %d, as a process set holds the ids 0–%d", *procs, types.MaxProcs, types.MaxProcs-1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dvscheck: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dvscheck: memprofile:", err)
			}
		}()
	}

	cfg := dvs.CheckConfig{Procs: *procs, Steps: *steps, Seeds: *seeds, Seed: *seed, Parallel: *parallel}
	if *findings {
		found, err := dvs.DemonstrateFindings(cfg)
		for _, f := range found {
			fmt.Printf("%s  %s\n    witness: %s\n", f.ID, f.Title, f.Witness)
		}
		return err
	}
	type entry struct {
		name string
		fn   func(dvs.CheckConfig) (ioa.CheckReport, error)
	}
	all := []entry{
		{"vs", dvs.CheckVSInvariants},
		{"dvs", dvs.CheckDVSInvariants},
		{"refinement", dvs.CheckDVSRefinement},
		{"to", dvs.CheckTOTraceInclusion},
	}
	switch *check {
	case "explore":
		// Exhaustive exploration is opt-in: it ignores -procs/-steps/-seeds
		// and is not part of "all".
		all = []entry{{"explore", dvs.CheckExplore}}
	case "explore-deep":
		all = []entry{{"explore-deep", func(cfg dvs.CheckConfig) (ioa.CheckReport, error) {
			return dvs.CheckExploreDeep(dvs.ExploreDeepConfig{
				MaxDepth:      *depth,
				Parallel:      cfg.Parallel,
				Symmetry:      *symmetry,
				AuditSymmetry: *auditSym,
				Refinement:    *refinement,
			})
		}}}
	}
	ran := 0
	var total ioa.CheckReport
	start := time.Now()
	for _, e := range all {
		if *check != "all" && *check != e.name {
			continue
		}
		ran++
		rep, err := e.fn(cfg)
		total.Merge(rep)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if e.name == "explore" || e.name == "explore-deep" {
			fmt.Printf("%-11s OK  (exhaustive BFS, %d workers, %v)\n",
				e.name, ioa.Workers(*parallel), rep.Wall.Round(time.Millisecond))
		} else {
			fmt.Printf("%-11s OK  (%d procs × %d seeds × %d steps, %d workers, %v)\n",
				e.name, *procs, *seeds, *steps, ioa.Workers(*parallel), rep.Wall.Round(time.Millisecond))
		}
		if *verbose {
			fmt.Printf("            %s\n", rep)
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown check %q", *check)
	}
	if *verbose && ran > 1 {
		total.Wall = time.Since(start)
		fmt.Printf("total       %s\n", total)
	}
	return nil
}
