package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
)

// runAA runs the whole benchmark several times on the same code and
// reports, per workload and end-to-end metric, each round's median, the
// largest gap between two rounds as a share of the smallest, and the
// metric's bound. A gap above the bound means two runs of identical code
// would have been called a regression.
func runAA(ws []*workload, o options, rounds int) error {
	if rounds < 2 {
		return errors.New("-aa needs at least 2 rounds to compare")
	}
	o.traced = false
	all := make([][]*result, rounds)
	for k := range all {
		results, err := runWorkloads(ws, o)
		if err != nil {
			return err
		}
		all[k] = results
		fmt.Fprintf(os.Stderr, "bench: A/A round %d of %d done\n", k+1, rounds)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# A/A: %d runs of the same code\n\n", rounds)
	fmt.Fprintf(&b, "Each cell is one run's median over %d repetitions (seed %d). `gap` is the largest\n", o.reps, o.seed)
	b.WriteString("difference between two runs as a share of the smaller one; it must stay under `bound`.\n\n")
	b.WriteString("| workload | metric | unit |")
	for k := range all {
		fmt.Fprintf(&b, " run %d |", k+1)
	}
	b.WriteString(" gap | bound | |\n|---|---|---|")
	b.WriteString(strings.Repeat("---|", rounds))
	b.WriteString("---|---|---|\n")
	over := 0
	for i, w := range ws {
		for _, m := range e2eMetrics {
			lo, hi := 0.0, 0.0
			fmt.Fprintf(&b, "| %s | %s | %s |", w.name, m.name, m.unit)
			for k := range all {
				v := all[k][i].e2e[m.name]
				fmt.Fprintf(&b, " %.4g |", v)
				if k == 0 || v < lo {
					lo = v
				}
				if k == 0 || v > hi {
					hi = v
				}
			}
			gap := 0.0
			if lo > 0 {
				gap = (hi - lo) / lo
			}
			mark := ""
			if gap > m.bound {
				mark = "over"
				over++
			}
			fmt.Fprintf(&b, " %.3f | %.2f | %s |\n", gap, m.bound, mark)
		}
	}
	failed := 0
	for k := range all {
		for _, r := range all[k] {
			failed += r.failed
		}
		if warning := generatorWarning(all[k]); warning != "" {
			fmt.Fprintf(&b, "\nRun %d: WARNING: %s\n", k+1, warning)
		}
	}
	fmt.Fprintf(&b, "\n%d of %d rows over their bound; %d failed operations in all runs.\n", over, len(ws)*len(e2eMetrics), failed)
	if o.out == "" {
		_, err := os.Stdout.WriteString(b.String())
		return err
	}
	return os.WriteFile(o.out, []byte(b.String()), 0o644)
}
