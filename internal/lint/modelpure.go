package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// ModelpureConfig scopes the determinism check.
type ModelpureConfig struct {
	// PurePkgs lists import-path prefixes whose transition/enumeration code
	// must be fully deterministic: no wall clocks, no environment reads, no
	// global RNG. Seed-replay of counterexamples depends on it.
	PurePkgs []string
	// AllowTimeFiles lists path suffixes (e.g. "internal/ioa/report.go") of
	// files inside pure packages that may read the wall clock: the check
	// reports' timing fields, which never feed transitions or fingerprints.
	AllowTimeFiles []string
}

// bannedTime / bannedOS are the nondeterminism sources forbidden in pure
// packages. Conversions and constants (time.Second) remain fine.
var bannedTime = map[string]bool{"Now": true, "Since": true, "Until": true}
var bannedOS = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true}

// allowedGlobalRand are the only package-level math/rand identifiers usable
// in any package, pure or not: constructors for seeded per-instance
// generators and the types themselves. Everything else (rand.Intn,
// rand.Shuffle, rand.Read, ...) draws from the process-global source and
// breaks seed reproduction; all randomness in the module (jitter, loss,
// latency) flows from seeded per-instance RNGs.
var allowedGlobalRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"Rand":      true,
	"Source":    true,
	"Source64":  true,
	"Zipf":      true,
}

// Modelpure returns the modelpure analyzer for the given scope. There is no
// escape directive.
func Modelpure(cfg ModelpureConfig) *Analyzer {
	a := &Analyzer{
		Name: "modelpure",
		Doc:  "model code must be deterministic: no time.Now/os.Getenv, and no global math/rand anywhere (no escape)",
	}
	a.Run = func(pass *Pass) {
		pure := false
		for _, p := range cfg.PurePkgs {
			if pass.Path == p || strings.HasPrefix(pass.Path, p+"/") {
				pure = true
				break
			}
		}
		for _, f := range pass.Files {
			filename := pass.Fset.Position(f.Pos()).Filename
			timeAllowed := !pure
			for _, suffix := range cfg.AllowTimeFiles {
				if strings.HasSuffix(slashPath(filename), suffix) {
					timeAllowed = true
					break
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				switch pkgName.Imported().Path() {
				case "time":
					if pure && !timeAllowed && bannedTime[name] {
						pass.Reportf(sel.Pos(),
							"time.%s in model code: transitions must be deterministic for seed replay (move timing to the report layer)", name)
					}
				case "os":
					if pure && bannedOS[name] {
						pass.Reportf(sel.Pos(),
							"os.%s in model code: environment reads make runs irreproducible (plumb configuration explicitly)", name)
					}
				case "math/rand", "math/rand/v2":
					if !allowedGlobalRand[name] {
						pass.Reportf(sel.Pos(),
							"global math/rand.%s: draws from the process-global source and breaks seed reproduction — use a seeded *rand.Rand instance", name)
					}
				}
				return true
			})
		}
	}
	return a
}

// slashPath normalizes a filename to slash form for suffix matching.
func slashPath(name string) string {
	return path.Clean(strings.ReplaceAll(name, "\\", "/"))
}
