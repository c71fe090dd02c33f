#!/bin/sh
# Non-test Go lines per package and for the tree, the way ISSUE 16 counts
# them: every *.go that is not a test, not under bench/ (its own module, off
# limits to most PRs) and not an analyzer fixture under testdata/. The gate
# in check.sh (loc_guard) reads the `internal/conform`, `.` (the root
# package) and `total` rows; the `internal/wire` row is the byte codec
# conform, net and mcast share.
#
# Usage: sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 |
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
