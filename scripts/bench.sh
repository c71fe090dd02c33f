#!/bin/sh
# Benchmark snapshots.
#
# 1. Theorem-check engine (E1-E3: invariant checks, the Theorem 5.9
#    refinement, the Theorem 6.4 trace inclusion), each in a serial and a
#    parallel variant, plus the E12 deep exploration (run in its own
#    `go test` invocation — one E12 iteration walks ~38k states, so it gets
#    dedicated CPU and its own repetition knob). Emits BENCH_checks.json
#    with one record per benchmark: ns/op, B/op, allocs/op, checking
#    throughput (steps/s), the per-iteration state count (identical across
#    the serial and parallel variants of the same check), and — on each
#    parallel variant — "parallel_speedup", the ratio of its best steps/s
#    to the serial variant's best steps/s.
#
# 2. Runtime-stack performance (E8: TO throughput and recovery), run in its
#    own `go test` invocation so the numbers are not depressed by CPU
#    contention with the rest of the suite — the recorded bench_output.txt
#    used to run E8 concurrently with all package tests, which made the
#    absolute throughput figures meaningless. Emits BENCH_e8.json.
#
# 3. Sharded scaling (E14: aggregate delivery rate vs group count at a
#    fixed 10% cross-group multicast fraction), isolated for the same
#    reason. Emits BENCH_e14.json; check.sh gates the 4-group/1-group
#    ratio on machines with enough CPUs to show scaling.
#
# 4. Recording and checking overhead (E13: the E8 n=5 pump without
#    observers, with Config.Stream spilling every macro-step to a chunked
#    trace, and with Config.Online replaying every macro-step in process),
#    isolated likewise. Emits BENCH_e13.json; check.sh gates
#    recorded/unrecorded, checked/unrecorded and the checked run's views.
#
# 5. Per-layer ledger (the protocol cores in isolation: one 10-label batch
#    through the DVS core's gprcv + safe, one label's whole life through the
#    TO core on a node 100k labels into its run; then the TO core taken from
#    empty through 200k labels, and the clone of one that a missing process
#    makes hold 100k; and the transport's codec alone: one TCP frame body
#    encoded and decoded, for a heartbeat, a steady-state Ordered of ten
#    labels and the summary of a node 20k stable labels into its run; the
#    trace recorder: one TO record observed into a stream on disk; and the
#    checker's fingerprint of one DVS-IMPL state). Emits BENCH_layers.json;
#    check.sh gates the step, frame, record and fingerprint rows' allocs/op
#    and the summary's size, which no machine changes, and the TO step's
#    B/op, which the fixed iteration count makes exact.
#
# Every benchmark is repeated (`-count`, default 3 for E1-E3) and the
# snapshot keeps only the best repetition per benchmark (lowest ns/op):
# scheduler noise on shared CI runners only ever slows a run down, so the
# fastest repetition is the closest estimate of the code's actual cost.
#
# Knobs: BENCHTIME (-benchtime for E1-E3, default 2x), BENCH_COUNT (-count
# for E1-E3, default 3), E12_BENCHTIME / E12_COUNT (defaults 1x / 1),
# E8_BENCHTIME (default 3x), E14_BENCHTIME (default 3x).
set -eu
cd "$(dirname "$0")/.."

# to_json converts `go test -bench` output on stdin into a JSON snapshot:
# {"benchmarks": [{"name": ..., "iters": ..., "<unit>": <value>, ...}, ...]}
# Repeated records for the same benchmark (-count > 1) are deduplicated,
# keeping the repetition with the lowest ns/op. Parallel variants gain a
# "parallel_speedup" field: best steps_per_s over the serial variant's.
to_json() {
	awk '
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    if (!(name in best) || $3 + 0 < best[name] + 0) {
        if (!(name in best)) order[n++] = name
        best[name] = $3         # value of the first unit ($4), i.e. ns/op
        line[name] = $0
    }
}
END {
    # First pass: collect the surviving steps/s values so the serial
    # baseline is available when its parallel sibling is emitted.
    for (k = 0; k < n; k++) {
        name = order[k]
        m = split(line[name], f, /[ \t]+/)
        for (i = 3; i + 1 <= m; i += 2)
            if (f[i + 1] == "steps/s") sps[name] = f[i]
    }
    printf "{\n  \"benchmarks\": [\n"
    for (k = 0; k < n; k++) {
        name = order[k]
        m = split(line[name], f, /[ \t]+/)
        printf "%s    {\"name\": \"%s\", \"iters\": %s", k ? ",\n" : "", name, f[2]
        for (i = 3; i + 1 <= m; i += 2) {
            unit = f[i + 1]
            gsub(/\//, "_per_", unit)
            gsub(/-/, "_", unit)
            printf ", \"%s\": %s", unit, f[i]
        }
        base = name
        if (sub(/\/parallel=[0-9]+$/, "", base) && name !~ /\/parallel=1$/) {
            serial = base "/parallel=1"
            if ((serial in sps) && (name in sps) && sps[serial] + 0 > 0)
                printf ", \"parallel_speedup\": %.2f", sps[name] / sps[serial]
        }
        printf "}"
    }
    printf "\n  ]\n}\n"
}
'
}

# E1-E3 (the trailing [A-Z] keeps E12 out of this run — it gets its own
# invocation below so its long iterations do not share the process).
out=BENCH_checks.json
raw=$(go test -run '^$' -bench 'BenchmarkE[123][A-Z]' -benchtime "${BENCHTIME:-2x}" -count "${BENCH_COUNT:-3}" -benchmem .)
printf '%s\n' "$raw"

# E12 deep exploration, isolated: one iteration explores the full 38k-state
# space (6.5k with symmetry), so throughput is meaningful even at 1x.
raw12=$(go test -run '^$' -bench 'BenchmarkE12' -benchtime "${E12_BENCHTIME:-1x}" -count "${E12_COUNT:-1}" -benchmem .)
printf '%s\n' "$raw12"

{ printf '%s\n' "$raw"; printf '%s\n' "$raw12"; } | to_json > "$out"
echo "wrote $out"

# E8 isolated: two dedicated invocations (throughput, then recovery) with
# nothing else sharing the process, so each sample reflects the stack alone.
# Recovery is one heal per run and a few milliseconds of it, so it is
# repeated and the best kept like every other row; check.sh compares the
# history=20k row with the empty one from this same invocation.
out8=BENCH_e8.json
raw8_tp=$(go test -run '^$' -bench 'BenchmarkE8TOThroughput' -benchtime "${E8_BENCHTIME:-3x}" .)
printf '%s\n' "$raw8_tp"
raw8_rec=$(go test -run '^$' -bench 'BenchmarkE8Recovery' -benchtime 1x -count 3 .)
printf '%s\n' "$raw8_rec"
{ printf '%s\n' "$raw8_tp"; printf '%s\n' "$raw8_rec"; } | to_json > "$out8"
echo "wrote $out8"

# E14 isolated: sharded aggregate throughput at 1, 2 and 4 groups with a
# fixed 10% cross-group multicast fraction. The per-run safety checks
# (per-group total order, multicast agreement, cross-group partial order)
# fail the benchmark itself, so a snapshot implies the invariants held.
out14=BENCH_e14.json
raw14=$(go test -run '^$' -bench 'BenchmarkE14ShardedThroughput' -benchtime "${E14_BENCHTIME:-3x}" .)
printf '%s\n' "$raw14"
printf '%s\n' "$raw14" | to_json > "$out14"
echo "wrote $out14"

# E13 isolated: the same pump without observers, with the stream recorder
# and with the in-process checker. The recorded variant fails the benchmark
# unless every stream closes without error and the first run's trace replays
# sealed and clean; the checked one unless every observed step was re-executed
# and nothing was found.
out13=BENCH_e13.json
raw13=$(go test -run '^$' -bench 'BenchmarkE13RecordOverhead' -benchtime 3x .)
printf '%s\n' "$raw13"
printf '%s\n' "$raw13" | to_json > "$out13"
echo "wrote $out13"

# Layer ledger: the cores alone, a fixed iteration count so allocs/op and
# B/op are exact and the TO node's history is the same size in every run.
# The growth and clone rows are whole-history operations (one op is 200k
# labels, or one clone of 100k), so they run a few times, not 100000.
outl=BENCH_layers.json
rawl=$(go test -run '^$' -bench 'BenchmarkCore(DVS|TO)Step|BenchmarkStreamRecord' -benchtime 100000x -count 3 -benchmem .)
printf '%s\n' "$rawl"
rawh=$(go test -run '^$' -bench 'BenchmarkCoreTO(Grow|Clone)' -benchtime 5x -count 3 -benchmem .)
printf '%s\n' "$rawh"
# The transport row, at the cores' iteration count.
raww=$(go test -run '^$' -bench 'BenchmarkWireFrame' -benchtime 100000x -count 3 -benchmem .)
printf '%s\n' "$raww"
# The fingerprint row: one walk is tens of µs, so a tenth of the count.
rawf=$(go test -run '^$' -bench 'BenchmarkImplFingerprint' -benchtime 10000x -count 3 -benchmem .)
printf '%s\n' "$rawf"
{ printf '%s\n' "$rawl"; printf '%s\n' "$rawh"; printf '%s\n' "$raww"; printf '%s\n' "$rawf"; } | to_json > "$outl"
echo "wrote $outl"
