// Command dvslint runs the project's domain-specific static-analysis suite
// (internal/lint) over the given package patterns and reports every
// violation of the automaton and shell discipline: fingerprint
// completeness, model determinism, canonical fingerprint iteration order,
// run-to-completion around Step and structural message comparison. See
// DESIGN.md §6.4.
//
// Usage:
//
//	go run ./cmd/dvslint [-list] [-json] [-only names] [-skip names] [-dir path] [packages...]
//
// With no patterns it analyzes ./.... -only and -skip take comma-separated
// analyzer names (see -list) and select a subset of the suite; -dir loads
// the patterns from another module directory (used by the CI smoke that
// points the linter at the seeded-bad-edit fixtures). Exit status: 0 clean,
// 1 diagnostics reported, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON")
	onlyFlag := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	skipFlag := flag.String("skip", "", "comma-separated analyzer names to exclude")
	dirFlag := flag.String("dir", ".", "directory to resolve package patterns in")
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := selectAnalyzers(analyzers, *onlyFlag, *skipFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvslint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := filepath.Abs(*dirFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvslint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvslint:", err)
		os.Exit(2)
	}
	diags := lint.RunAnalyzers(pkgs, analyzers)
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "dvslint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dvslint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectAnalyzers applies the -only and -skip selections. An unknown name in
// either list is a usage error naming the valid roster: a typo must not
// silently run the full suite (or none of it).
func selectAnalyzers(all []*lint.Analyzer, only, skip string) ([]*lint.Analyzer, error) {
	byName := make(map[string]*lint.Analyzer, len(all))
	roster := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		roster = append(roster, a.Name)
	}
	parse := func(list, flagName string) (map[string]bool, error) {
		if list == "" {
			return nil, nil
		}
		set := make(map[string]bool)
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("-%s: unknown analyzer %q (valid: %s)", flagName, name, strings.Join(roster, ", "))
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := parse(only, "only")
	if err != nil {
		return nil, err
	}
	skipSet, err := parse(skip, "skip")
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}
