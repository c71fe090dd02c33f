// Command dvslint runs the project's domain-specific static-analysis suite
// (internal/lint) over the given package patterns and reports every
// violation of the automaton discipline: model determinism and structural
// message comparison. See DESIGN.md §6.4.
//
// Usage:
//
//	go run ./cmd/dvslint [-list] [-dir path] [packages...]
//
// With no patterns it analyzes ./.... -dir loads the patterns from another
// module directory (the bench/ module is linted this way). Exit status: 0
// clean, 1 diagnostics reported, 2 load/usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	dirFlag := flag.String("dir", ".", "directory to resolve package patterns in")
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
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
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dvslint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
