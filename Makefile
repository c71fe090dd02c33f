# Verification gate for every PR. `make check` is the tier-1 bar plus the
# race detector, which gates the concurrent checking engine (worker-pool
# seed fan-out, parallel BFS) and the live stack's run-to-completion
# (DESIGN.md §6.9) against data races, plus dvslint, which
# machine-enforces the automaton discipline (see DESIGN.md §6.4).

GO ?= go

.PHONY: check build vet lint loc nogob test race bench benchmark

check: build vet lint loc nogob race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: fingerprint completeness, model
# determinism, fingerprint ordering and message comparison in the cores
# (DESIGN.md §6.4).
lint:
	$(GO) run ./cmd/dvslint ./...

# Non-test line counts per package, held to the ceilings in check.sh.
loc:
	sh scripts/check.sh loc

# One byte encoding in the tree (internal/wire): encoding/gob stays out.
nogob:
	sh scripts/check.sh nogob

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Serial-vs-parallel theorem-check benchmarks (E1–E3); emits the
# machine-readable BENCH_checks.json snapshot (see scripts/bench.sh).
bench:
	sh scripts/bench.sh

# The repo benchmark (BENCHMARK.json): five closed-loop workloads, seven
# end-to-end metrics; `sh bench/run.sh -workload W -trace 1` adds the
# per-layer numbers. See bench/README.md.
benchmark:
	sh bench/run.sh
