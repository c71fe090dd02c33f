#!/bin/sh
# Verification gate: build, vet, dvslint, and the full test suite under the
# race detector, then the serial-vs-parallel exploration smoke. Run before
# every commit touching the concurrent checking engine.
#
# Usage:
#   sh scripts/check.sh         # full gate
#   sh scripts/check.sh smoke   # only the serial-vs-parallel exploration
#                               # smoke (CI runs the other gates as separate
#                               # steps so each failure is its own log)
#   sh scripts/check.sh benchmod # only the gates on the bench/ module,
#                               # which `./...` skips because it is its own
#                               # module: its tests and dvslint over it
#   sh scripts/check.sh fuzz    # only the fuzz smokes: 10 s each of the trace
#                               # codec's decoders (FuzzDecodeChunk;
#                               # FuzzDecodeSegment: header, footer), of the
#                               # TCP transport's one frame decoder
#                               # (FuzzDecodeFrame) and of the TO core's
#                               # history against its two-map model
#                               # (FuzzHistory)
#   sh scripts/check.sh loc     # only the ceilings scripts/loc.sh feeds:
#                               # non-test lines of internal/conform,
#                               # internal/lint, the root package and the
#                               # tree, and the exemptions (ioa:"shared"
#                               # tags, and any leftover //lint: comment)
#   sh scripts/check.sh nogob   # only the import ban: encoding/gob may not
#                               # come back anywhere in the tree
#   sh scripts/check.sh bench   # only the benchmark-snapshot gate: run
#                               # `make bench` and fail unless it leaves
#                               # parseable, non-empty BENCH_checks.json,
#                               # BENCH_e8.json, BENCH_e14.json and
#                               # BENCH_e13.json snapshots, with the E8 n=5
#                               # throughput above the recorded floor, the
#                               # E8 recovery after 20k messages within 3x
#                               # of the recovery of an empty group, the
#                               # E13 recorded rate at least half the
#                               # unrecorded one and the checked rate at
#                               # least 0.4 of it with as many views
#                               # installed, the E12 exploration at its
#                               # pinned state counts, and (on machines with
#                               # >= 4 CPUs) the E1-E3 parallel speedup and
#                               # the E14 4-group/1-group sharded throughput
#                               # ratio above their scaling floors
set -eu

mode="${1:-all}"

# snapshot_guard fails loudly when the snapshot `make bench` is supposed to
# leave behind is missing, empty, not valid JSON, or contains no benchmark
# records. A silently-empty snapshot would make every later perf comparison
# in EXPERIMENTS.md vacuous, so this is a hard failure, not a warning.
snapshot_guard() {
	out="$1"
	if [ ! -s "$out" ]; then
		echo "check.sh: make bench left $out missing or empty — the benchmark run produced no snapshot" >&2
		exit 1
	fi
	if command -v python3 >/dev/null 2>&1; then
		if ! python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); sys.exit(0 if d.get("benchmarks") else 1)' "$out"; then
			echo "check.sh: $out is not parseable JSON with a non-empty \"benchmarks\" array — bench output format changed or the run emitted garbage" >&2
			exit 1
		fi
	elif ! grep -q '"name":' "$out"; then
		echo "check.sh: $out contains no benchmark records (no \"name\": fields) — bench output format changed or the run emitted garbage" >&2
		exit 1
	fi
	echo "check.sh: bench snapshot OK ($(grep -c '"name":' "$out") records in $out)"
}

# e8_floor_guard reads the isolated E8 throughput snapshot and fails if the
# n=5 delivered throughput fell below the floor. The floor is deliberately
# far under the recorded dev-box number (≈47k msg/s after the batching work)
# because CI runners are slow and shared; it is a smoke against the
# catastrophic regressions this bench exists to catch — lock-stepped
# confirms, batching silently disabled, the sequencer collapse returning —
# all of which cut n=5 throughput by an order of magnitude, not a percentage.
# E8_FLOOR (msg/s) overrides it for slower or faster machines.
e8_floor_guard() {
	out=BENCH_e8.json
	floor="${E8_FLOOR:-12000}"
	got=$(grep -o '"name": "E8TOThroughput/n=5"[^}]*' "$out" | grep -o '"msg_per_s": [0-9.]*' | awk '{print $2}')
	if [ -z "$got" ]; then
		echo "check.sh: no E8TOThroughput/n=5 msg_per_s record in $out" >&2
		exit 1
	fi
	if ! awk -v g="$got" -v f="$floor" 'BEGIN { exit !(g + 0 >= f + 0) }'; then
		echo "check.sh: E8 n=5 throughput ${got} msg/s is below the floor ${floor} msg/s — sequencer regression" >&2
		exit 1
	fi
	echo "check.sh: E8 throughput smoke OK (n=5: ${got} msg/s >= floor ${floor})"
}

# e8_recovery_guard holds the heal of a group that has been through 20k
# messages within 3x of the heal of an empty one (both ms_to_message, best
# of three from the same bench.sh invocation). A state exchange carries what
# the full view has not confirmed; when it carried the history the ratio was
# 44 (534 ms against 12). A ratio, so no machine moves it.
e8_recovery_guard() {
	out=BENCH_e8.json
	rec() { grep -o "\"name\": \"E8Recovery/$1\"[^}]*" "$out" | grep -o '"ms_to_message": [0-9.]*' | awk '{print $2}'; }
	empty=$(rec 'n=5')
	laden=$(rec 'n=5/history=20k')
	if [ -z "$empty" ] || [ -z "$laden" ]; then
		echo "check.sh: missing E8Recovery ms_to_message records in $out (n=5='${empty:-}', n=5/history=20k='${laden:-}')" >&2
		exit 1
	fi
	if ! awk -v e="$empty" -v l="$laden" 'BEGIN { exit !(l + 0 <= 3 * e) }'; then
		echo "check.sh: recovery after 20k messages takes ${laden} ms to the first message against ${empty} ms on an empty group, over 3x — the state exchange is carrying history again" >&2
		exit 1
	fi
	echo "check.sh: E8 recovery OK (history=20k ${laden} ms <= 3 x ${empty} ms)"
}

# e12_guard pins the E12 deep-exploration snapshot: the state counts the
# plain and the symmetry-reduced runs measured must equal e12States and
# e12SymStates, read from their one definition in bench_test.go. These
# counts are machine-independent — any drift means the exploration became
# nondeterministic or the bounded environment changed, both of which would
# silently invalidate every E12 comparison in EXPERIMENTS.md.
e12_guard() {
	out=BENCH_checks.json
	e12const() { awk -v n="$1" '$1 == n && $2 == "=" { print $3; exit }' bench_test.go; }
	want=$(e12const e12States)
	wantsym=$(e12const e12SymStates)
	plain=$(grep -o '"name": "E12DeepExplore/parallel=1"[^}]*' "$out" | grep -o '"states": [0-9.e+]*' | awk '{print $2}')
	sym=$(grep -o '"name": "E12DeepExplore/symmetry"[^}]*' "$out" | grep -o '"states": [0-9.e+]*' | awk '{print $2}')
	if [ -z "$want" ] || [ -z "$wantsym" ]; then
		echo "check.sh: cannot read e12States/e12SymStates from bench_test.go (got '${want:-}', '${wantsym:-}')" >&2
		exit 1
	fi
	if [ -z "$plain" ] || [ -z "$sym" ]; then
		echo "check.sh: missing E12DeepExplore states records in $out (plain='${plain:-}', symmetry='${sym:-}')" >&2
		exit 1
	fi
	if ! awk -v p="$plain" -v s="$sym" -v wp="$want" -v ws="$wantsym" 'BEGIN { exit !(p + 0 == wp + 0 && s + 0 == ws + 0) }'; then
		echo "check.sh: E12 state counts drifted — plain ${plain} (want ${want}), symmetry ${sym} (want ${wantsym})" >&2
		exit 1
	fi
	echo "check.sh: E12 exploration OK (${plain} states plain, ${sym} with symmetry)"
}

# scaling_guard reads the parallel_speedup fields bench.sh attaches to the
# E1-E3 parallel variants and fails if any fell below the floor. The floor
# (SCALE_FLOOR, default 2.5 on a 4-core runner) is a smoke against the
# worker-pool collapse this gate exists to catch — a serialized pool shows
# ~1.0x, not a few percent off — so it is deliberately well under the ~3.5x
# a healthy 4-wide fan-out delivers. Skipped below 4 CPUs, where no
# speedup is possible and the parallel variant only covers the code path.
scaling_guard() {
	out=BENCH_checks.json
	ncpu=$( (nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null) || echo 1 )
	if [ "${ncpu:-1}" -lt 4 ]; then
		echo "check.sh: scaling gate skipped (${ncpu:-1} CPUs < 4 — no parallel speedup to measure)"
		return 0
	fi
	floor="${SCALE_FLOOR:-2.5}"
	for b in E1SpecInvariants E2RefinementDVS E3RefinementTO; do
		got=$(grep -o "\"name\": \"$b/parallel=[0-9]*\"[^}]*" "$out" | grep -o '"parallel_speedup": [0-9.]*' | awk '{print $2}')
		if [ -z "$got" ]; then
			echo "check.sh: no parallel_speedup record for $b in $out" >&2
			exit 1
		fi
		if ! awk -v g="$got" -v f="$floor" 'BEGIN { exit !(g + 0 >= f + 0) }'; then
			echo "check.sh: $b parallel speedup ${got}x is below the floor ${floor}x — the seed fan-out serialized" >&2
			exit 1
		fi
		echo "check.sh: scaling OK ($b: ${got}x >= ${floor}x)"
	done
}

# e14_guard reads the sharded scaling snapshot and fails if 4 groups do not
# deliver at least E14_FLOOR (default 2.5) times the 1-group aggregate rate
# at the fixed 10% cross-group fraction. Sharding's whole claim is that
# independent per-group total orders buy near-linear aggregate throughput,
# so a ratio near 1.0 means the groups serialized — the mux pump collapsed
# onto one loop, or the multicast coordinator's mutex got into the keyed
# fast path. Skipped below 4 CPUs, where the groups have no cores to scale
# onto and the benchmark only covers the code path (the snapshot itself is
# still produced and validated).
e14_guard() {
	out=BENCH_e14.json
	ncpu=$( (nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null) || echo 1 )
	if [ "${ncpu:-1}" -lt 4 ]; then
		echo "check.sh: E14 scaling gate skipped (${ncpu:-1} CPUs < 4 — no sharded speedup to measure)"
		return 0
	fi
	floor="${E14_FLOOR:-2.5}"
	one=$(grep -o '"name": "E14ShardedThroughput/groups=1"[^}]*' "$out" | grep -o '"msg_per_s": [0-9.]*' | awk '{print $2}')
	four=$(grep -o '"name": "E14ShardedThroughput/groups=4"[^}]*' "$out" | grep -o '"msg_per_s": [0-9.]*' | awk '{print $2}')
	if [ -z "$one" ] || [ -z "$four" ]; then
		echo "check.sh: missing E14ShardedThroughput msg_per_s records in $out (groups=1='${one:-}', groups=4='${four:-}')" >&2
		exit 1
	fi
	if ! awk -v o="$one" -v f="$four" -v fl="$floor" 'BEGIN { exit !(o + 0 > 0 && f / o >= fl + 0) }'; then
		echo "check.sh: E14 4-group/1-group throughput ratio $(awk -v o="$one" -v f="$four" 'BEGIN { printf "%.2f", f / o }')x is below the floor ${floor}x — sharded groups serialized" >&2
		exit 1
	fi
	echo "check.sh: E14 scaling OK (1 group ${one} msg/s, 4 groups ${four} msg/s)"
}

# e13_guard reads the recording-overhead snapshot and fails if the stream
# recorder costs more than half the pump's throughput, or the in-process
# checker more than 0.6 of it. The dev box shows recorded at ~0.9 of
# unrecorded; before the binary codec and the off-loop writer it was 0.25
# (gob, fsync and rename under the recorder's mutex), so a floor of 0.5
# separates the two regimes with room for slow disks on CI runners. Checked
# reads ~0.55: every step is encoded on the loop and decoded and re-executed
# beside it on the same two CPUs; with the check on the loop (a clone of both
# cores per sample, until PR 21) it was 0.20, which is what the 0.4 floor
# watches for. The ratios are machine-independent, so the floors are
# constants. The checked case's mean views installed must also be within one
# of the unrecorded case's (both read 5.000): a checker that perturbs what it
# checks shows first as the failure detector cycling views.
e13_guard() {
	out=BENCH_e13.json
	field() {
		grep -o "\"name\": \"E13RecordOverhead/$1\"[^}]*" "$out" | grep -o "\"$2\": [0-9.]*" | awk '{print $2}'
	}
	plain=$(field unrecorded msg_per_s)
	rec=$(field recorded msg_per_s)
	chk=$(field checked msg_per_s)
	pviews=$(field unrecorded views)
	cviews=$(field checked views)
	if [ -z "$plain" ] || [ -z "$rec" ] || [ -z "$chk" ] || [ -z "$pviews" ] || [ -z "$cviews" ]; then
		echo "check.sh: missing E13RecordOverhead records in $out (msg_per_s unrecorded='${plain:-}', recorded='${rec:-}', checked='${chk:-}'; views unrecorded='${pviews:-}', checked='${cviews:-}')" >&2
		exit 1
	fi
	# ratio NAME RATE FLOOR WHY: RATE must be at least FLOOR of the unrecorded rate.
	ratio() {
		if ! awk -v p="$plain" -v r="$2" -v fl="$3" 'BEGIN { exit !(p + 0 > 0 && r / p >= fl + 0) }'; then
			echo "check.sh: E13 $1/unrecorded throughput ratio $(awk -v p="$plain" -v r="$2" 'BEGIN { printf "%.2f", r / p }') is below the floor $3 — $4" >&2
			exit 1
		fi
	}
	ratio recorded "$rec" 0.5 "the stream recorder is back on the event loop's critical path"
	ratio checked "$chk" 0.4 "a check is back on the event loop"
	if ! awk -v p="$pviews" -v c="$cviews" 'BEGIN { d = c - p; exit !(d <= 1 && d >= -1) }'; then
		echo "check.sh: E13 checked runs installed ${cviews} views on average against ${pviews} unrecorded — the checker is perturbing the run it checks" >&2
		exit 1
	fi
	echo "check.sh: E13 overhead OK (unrecorded ${plain} msg/s, recorded ${rec}, checked ${chk}; views ${pviews} / ${cviews})"
}

# layers_guard holds each core to its allocation budget per unit of work:
# one batch through the DVS core's gprcv + safe, one label through the TO
# core's gprcv, safe, confirm and brcv. Events and effects are values, so
# the snapshot shows 2 and 1 allocs: the DVS core's msgsFromVS and
# safeFromVS appends (model state), and the label message boxed as the wire
# hands it in. The budgets leave room for a queue slot or a boxed effect
# more, not for a rendered key (one MsgKey of a 10-label batch is over a
# hundred). The TO step is also held to 104 B (snapshot 96: the 48 B label
# message, and a 64th of the 64 slots order and the run's payloads grow by;
# the node truncates what it has delivered, so nothing regrows with the
# run): a boxed FxDeliver puts it at 120; with boxed events, holding the
# history put it at 374 and a label put back into a map at 557. Both units
# are exact at bench.sh's fixed iteration count and machine-independent, so
# the budgets are constants. The CoreTOGrow and CoreTOClone rows must be
# there but are reported, not gated: ns is this box's.
#
# The transport rows are one TCP frame body encoded and decoded (gob cost 3
# and 50 allocations on the same values): a heartbeat allocates its decoder's
# reader and nothing else, an Ordered carrying ten 64-byte labels allocates
# per label its payload copy and its boxed LabelMsg, plus the batch slice,
# the boxed Batch and Ordered and the reader — 24; the budgets leave room for
# one or two more, not for a reflection-driven codec. The summary row is the
# state exchange of a node 20k stable messages into its run: a base, a
# digest and no label, 26 bytes and 5 allocations where the history made it
# 1.5 MB and 20,077; the budgets are a label's worth above that.
#
# The recorder row is one TO record observed into a stream on disk: encoded
# into the node's scratch, copied into blocks the writer's pool recycles, so
# only a cut (its job) and a block the pool has none for allocate and
# allocs/op rounds to its measured 0; anything allocated per record (a copy
# of it, a boxed value) makes it 1.
#
# The fingerprint row is ioa.FpOf on one DVS-IMPL state: the walker copies
# map entries and interface values into holders it keeps from walk to walk,
# so it allocates nothing once warm; a heap copy of a message or a map
# iterator that escapes makes it tens.
layers_guard() {
	out=BENCH_layers.json
	for row in CoreDVSStepBatch:allocs_per_op:4 CoreTOStepLabel:allocs_per_op:2 CoreTOStepLabel:B_per_op:104 \
		WireFrame/heartbeat:allocs_per_op:2 WireFrame/ordered10x64B:allocs_per_op:26 \
		WireFrame/summary20k:allocs_per_op:8 WireFrame/summary20k:frame_bytes:64 StreamRecord:allocs_per_op:0 ImplFingerprint:allocs_per_op:0; do
		name=${row%%:*}
		budget=${row##*:}
		unit=${row#*:}
		unit=${unit%:*}
		got=$(grep -o "\"name\": \"$name\"[^}]*" "$out" | grep -o "\"$unit\": [0-9.]*" | awk '{print $2}')
		if [ -z "$got" ]; then
			echo "check.sh: no $name $unit record in $out" >&2
			exit 1
		fi
		if ! awk -v g="$got" -v b="$budget" 'BEGIN { exit !(g + 0 <= b + 0) }'; then
			echo "check.sh: $name is at ${got} ${unit}, over its budget of ${budget} — something on that layer's per-message path started allocating (a rendered key? a map that grows with the history? reflection in the frame codec?)" >&2
			exit 1
		fi
		echo "check.sh: layer budget OK ($name: ${got} ${unit} <= ${budget})"
	done
	for name in 'CoreTOGrow/0→200k' 'CoreTOClone/history=100k'; do
		if ! grep -q "\"name\": \"$name\"" "$out"; then
			echo "check.sh: no $name record in $out" >&2
			exit 1
		fi
	done
}

# benchmod_guard runs what tier-1 cannot see: bench/ is its own module, so
# `go test ./...` and `dvslint ./...` from the root skip it.
benchmod_guard() {
	(cd bench && go test .)
	go run ./cmd/dvslint -dir bench ./...
	echo "check.sh: bench module OK (tests + dvslint)"
}

# fuzz_guard is a 10 s smoke of each fuzz target — the stream segment
# reader's (chunks; header and footer), the TCP transport's frame decoder
# (every byte a peer can send) and the TO core's history against the two
# maps it replaced: it cannot prove much, but a decoder edit that panics on
# malformed bytes, or a history edit that loses a label past a gap, tends to
# die in the first seconds. The minimize budget is cut from its 60 s
# default, which would otherwise swallow the whole smoke the first time an
# input extends coverage. (go test takes one -fuzz target per run.)
fuzz_guard() {
	for row in FuzzDecodeChunk:internal/conform FuzzDecodeSegment:internal/conform FuzzDecodeFrame:internal/net FuzzHistory:internal/protocol/tocore; do
		target=${row%%:*}
		go test -run '^$' -fuzz "^$target\$" -fuzztime 10s -fuzzminimizetime 1s "./${row##*:}"
		echo "check.sh: $target smoke OK"
	done
}

# loc_guard holds internal/conform, internal/lint, the root package and the
# tree to measured non-test line counts, and the exemptions and DESIGN.md's
# lines to measured numbers (scripts/loc.sh prints every row). Each ceiling
# is where the tree stands, so an addition deletes something or raises the
# ceiling in the same change and says in CHANGES.md what the lines buy.
# conform is where recorders and replayers accrete, the root package where
# runtimes do, internal/lint where analyzers do (a new one says what it
# replaces); each exemption is a place a check was told to accept, and
# DESIGN.md only shrinks. CHANGES.md has each ceiling's history.
loc_guard() {
	counts="$(sh scripts/loc.sh)"
	for row in internal/conform:2318 internal/lint:461 .:1699 total:20402 exemptions:4 DESIGN.md:1375; do
		name=${row%%:*}
		ceiling=${row##*:}
		got=$(printf '%s\n' "$counts" | awk -v n="$name" '$2 == n { print $1 }')
		if [ -z "$got" ]; then
			echo "check.sh: scripts/loc.sh printed no row for $name" >&2
			exit 1
		fi
		if [ "$got" -gt "$ceiling" ]; then
			echo "check.sh: $name is at $got, over its ceiling of $ceiling (scripts/loc.sh) — delete something, or raise the ceiling in this change and say why in CHANGES.md" >&2
			exit 1
		fi
		echo "check.sh: count OK ($name: $got <= $ceiling)"
	done
}

# nogob_guard keeps the deletion deleted: the tree has one byte encoding
# (internal/wire), and encoding/gob — reflection on the TCP path, a type
# descriptor that tears with the connection — may not be imported again,
# tests and the bench module included.
nogob_guard() {
	found="$(grep -rln --include='*.go' --exclude-dir=.bench_build --exclude-dir=.git '"encoding/gob"' . || true)"
	if [ -n "$found" ]; then
		echo "check.sh: encoding/gob is imported again — use internal/wire:" >&2
		echo "$found" >&2
		exit 1
	fi
	echo "check.sh: no encoding/gob import in the tree"
}

bench_guard() {
	rm -f BENCH_checks.json BENCH_e8.json BENCH_e14.json BENCH_e13.json BENCH_layers.json
	make bench
	snapshot_guard BENCH_checks.json
	snapshot_guard BENCH_e8.json
	snapshot_guard BENCH_e14.json
	snapshot_guard BENCH_e13.json
	snapshot_guard BENCH_layers.json
	e8_floor_guard
	e8_recovery_guard
	e13_guard
	layers_guard
	e12_guard
	scaling_guard
	e14_guard
}

if [ "$mode" = "bench" ]; then
	bench_guard
	exit 0
fi

if [ "$mode" = "benchmod" ]; then
	benchmod_guard
	exit 0
fi

if [ "$mode" = "fuzz" ]; then
	fuzz_guard
	exit 0
fi

if [ "$mode" = "loc" ]; then
	loc_guard
	exit 0
fi

if [ "$mode" = "nogob" ]; then
	nogob_guard
	exit 0
fi

if [ "$mode" = "all" ]; then
	go build ./...
	go vet ./...
	go run ./cmd/dvslint ./...
	loc_guard
	nogob_guard
	go test -race ./...
	benchmod_guard
	fuzz_guard
fi

# Exploration smoke: the parallel BFS must report exactly the serial step and
# state counts for the exhaustive exploration check (the allocation tail of
# the report is timing-dependent and deliberately not compared).
extract_counts() {
	sed -n 's/.* \([0-9][0-9]* steps, [0-9][0-9]* states\).*/\1/p'
}
serial="$(go run ./cmd/dvscheck -check explore -parallel 1 -v | extract_counts)"
par="$(go run ./cmd/dvscheck -check explore -parallel 4 -v | extract_counts)"
if [ -z "$serial" ]; then
	echo "check.sh: could not extract 'N steps, M states' from dvscheck -parallel 1 output" >&2
	exit 1
fi
if [ "$serial" != "$par" ]; then
	echo "check.sh: serial and parallel exploration diverged — the parallel BFS lost or duplicated states" >&2
	echo "check.sh:   serial:   ${serial}" >&2
	echo "check.sh:   parallel: ${par:-<no counts extracted>}" >&2
	exit 1
fi
echo "check.sh: explore smoke OK (${serial})"

if [ "$mode" = "all" ]; then
	# Transport hardening gate: rerun the TCP connection-lifecycle, fault
	# injection, and chaos-soak tests in isolation under the race detector
	# (they also run in the full suite above; isolation gives the goroutine
	# leak checks a clean baseline).
	go test -race -count=1 -run 'TestTCP|TestFault|TestChaos' ./internal/net .

	# Streamed-conformance gate: record a scenario through the CLI as a
	# chunked on-disk trace, then replay the sealed directory cold. The
	# record step already verifies the stream inline; the second command
	# exercises the read-back path a crash investigation would use. (The
	# test suite above additionally pins that the streamed replay reaches
	# the same verdict as the in-memory one on the chaos and nemesis soaks.)
	tracedir="$(mktemp -d)"
	go run ./cmd/dvsim -scenario cascade -rounds 4 -seed 3 -record "$tracedir/trace"
	go run ./cmd/dvsim -replay "$tracedir/trace"
	rm -rf "$tracedir"
	echo "check.sh: streamed conformance gate OK"

	# Sharded conformance gate: run the multi-group scenario with 10%
	# cross-group multicasts, record the sharded trace directory (one
	# group-tagged stream per group under group-NN/ plus the multicast
	# coordinators' under mcast/, and nothing else), and replay the sealed
	# directory cold — per-group protocol conformance and the multicast
	# safety suite (agreement, timestamp order, no duplicates, cross-group
	# partial order) in one pass.
	sharddir="$(mktemp -d)"
	go run ./cmd/dvsim -scenario sharded -groups 3 -crossfrac 0.1 -duration 300ms -seed 3 -record "$sharddir/trace"
	stray="$(ls "$sharddir/trace" | grep -v -e '^group-[0-9][0-9]$' -e '^mcast$' || true)"
	if [ -n "$stray" ]; then
		echo "check.sh: sharded trace directory holds something other than group-NN/ and mcast/: $stray" >&2
		exit 1
	fi
	go run ./cmd/dvsim -replay "$sharddir/trace"
	rm -rf "$sharddir"
	echo "check.sh: sharded conformance gate OK"

	# Sharded chaos soak in isolation (also runs in the full suite above):
	# partition/heal nemesis with >= 10% cross-group traffic, pinning the
	# cross-group partial-order invariant end to end.
	go test -race -count=1 -run 'TestShardedChaosSoak' .

	bench_guard
fi
