// The benchmark is a module of its own so it builds from its own build file.
// The path sits under repro/ so it may import the repository's internal
// packages; the replace directive resolves them against the enclosing
// checkout (the same arrangement as internal/lint/badedit).
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
