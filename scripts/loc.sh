#!/bin/sh
# Non-test Go lines per package and for the tree, the way ISSUE 16 counts
# them: every *.go that is not a test, not under bench/ (its own module, off
# limits to most PRs) and not an analyzer fixture under testdata/. The gate
# in check.sh (loc_guard) reads the `internal/conform`, `internal/lint`, `.`
# (the root package) and `total` rows; the `internal/wire` row is the byte
# codec conform, net and mcast share. The last row counts the `//lint:`
# escape directives in the same files outside internal/lint (which spells
# the prefix in its own source): each is an exception an analyzer was told
# to accept, and loc_guard holds their number too.
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
printf '%7d lint-directives\n' "$(gofiles ! -path './internal/lint/*' | xargs -0 cat | grep -c '//lint:')"
