#!/bin/sh
# Non-test Go lines per package and for the tree, the way ISSUE 16 counts
# them: every *.go that is not a test, not under bench/ (its own module, off
# limits to most PRs) and not an analyzer fixture under testdata/. The gate
# in check.sh (loc_guard) reads the `internal/conform`, `internal/lint`, `.`
# (the root package) and `total` rows; the `internal/wire` row is the byte
# codec conform, net and mcast share. The `exemptions` row counts the
# `//lint:` escape directives in the same files outside internal/lint (which
# spells the prefix in its own source) and the `ioa:"shared"` field tags the
# exploration audit's clone check skips: each is an exception a check was
# told to accept. The `DESIGN.md` row is that document's line count. loc_guard
# holds both.
#
# Usage: sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
gofiles() {
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' "$@" -print0
}
gofiles |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2
		sub(/^\.\//, "", dir)
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		lines[dir] += $1
		total += $1
	}
	END {
		for (d in lines) printf "%7d %s\n", lines[d], d
		printf "%7d total\n", total
	}' | sort -k2
printf '%7d exemptions\n' "$(gofiles ! -path './internal/lint/*' | xargs -0 cat | grep -c -e '//lint:' -e '`[^`]*ioa:"shared"')"
printf '%7d DESIGN.md\n' "$(wc -l < DESIGN.md)"
