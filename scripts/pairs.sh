#!/bin/sh
# Alternating parent/change pairs of one benchmark command.
#
# Copies the parent revision (git archive) and the working tree as it is
# (uncommitted edits included) into DIR/parent and DIR/change, then runs the
# command N times in each, alternating sides and which side goes first, so
# drift on the host falls on both alike. Every run's output is kept in
# DIR/out. Per metric it prints the median change/parent ratio over the
# pairs and how many pairs went up, down or stayed level.
#
# The command is either a `go test -bench` line (every "value unit" column of
# every Benchmark line is a metric, named "Benchmark:unit") or
# `sh bench/run.sh -workload W -seed S` (the metrics of the last JSON line).
# Build cache and temporary files go under DIR; nothing is written outside
# DIR and the checkout.
#
# Usage: sh scripts/pairs.sh [-n PAIRS] -dir DIR PARENT_REV COMMAND...
#   sh scripts/pairs.sh -n 5 -dir ../pairs HEAD~1 sh bench/run.sh -workload fabric_sat -seed 7
#   sh scripts/pairs.sh -dir ../pairs main go test -run '^$' -bench E12DeepExplore/symmetry -benchtime 1x .
set -eu
n=5
dir=
while [ $# -gt 0 ]; do
	case $1 in
	-n) n=$2; shift 2 ;;
	-dir) dir=$2; shift 2 ;;
	*) break ;;
	esac
done
if [ -z "$dir" ] || [ $# -lt 2 ]; then
	echo "usage: sh scripts/pairs.sh [-n PAIRS] -dir DIR PARENT_REV COMMAND..." >&2
	exit 2
fi
rev=$1
shift
root=$(git rev-parse --show-toplevel)
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
rm -rf "$dir/parent" "$dir/change" "$dir/out"
mkdir -p "$dir/parent" "$dir/change" "$dir/out" "$dir/tmp"
git -C "$root" archive "$rev" | tar -x -C "$dir/parent"
(cd "$root" && tar -c --exclude=./.git --exclude=./.bench_build .) | tar -x -C "$dir/change"
export GOCACHE="$dir/gocache" GOTMPDIR="$dir/tmp" TMPDIR="$dir/tmp" GOTOOLCHAIN=local GOWORK=off

# metrics prints "name value" per metric of one run's output.
metrics() {
	awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 3; i + 1 <= NF; i += 2) print name ":" $(i + 1) " " $i
}
/^\{.*"metrics"/ { last = $0 }
END {
    s = last
    while (match(s, /"[a-z0-9_]+":\{"value":[-0-9.e+]+/)) {
        m = substr(s, RSTART + 1, RLENGTH - 1)
        split(m, f, /":\{"value":/)
        print f[1] " " f[2]
        s = substr(s, RSTART + RLENGTH)
    }
}' "$1"
}

i=1
while [ "$i" -le "$n" ]; do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	for side in $order; do
		echo "pairs.sh: pair $i/$n, $side" >&2
		(cd "$dir/$side" && "$@") >"$dir/out/$side.$i" 2>&1 || {
			echo "pairs.sh: the $side run failed; see $dir/out/$side.$i" >&2
			exit 1
		}
		metrics "$dir/out/$side.$i" | sed "s/^/$i $side /" >>"$dir/out/metrics"
	done
	i=$((i + 1))
done

# One line per metric: the median of change/parent over the pairs, and the
# pairs in which change was above, below and level with parent.
awk '
{ v[$3 SUBSEP $1 SUBSEP $2] = $4; if (!($3 in seen)) { seen[$3] = 1; order[k++] = $3 } }
END {
    printf "%-44s %8s %6s %6s %6s\n", "metric", "median", "up", "down", "level"
    for (j = 0; j < k; j++) {
        m = order[j]; c = 0; up = 0; down = 0; level = 0
        for (p = 1; p <= '"$n"'; p++) {
            a = v[m SUBSEP p SUBSEP "parent"]; b = v[m SUBSEP p SUBSEP "change"]
            if (a == "" || b == "" || a + 0 == 0) continue
            r[c++] = b / a
            if (b + 0 > a + 0) up++; else if (b + 0 < a + 0) down++; else level++
        }
        if (c == 0) continue
        for (x = 1; x < c; x++) for (y = x; y > 0 && r[y - 1] > r[y]; y--) { t = r[y]; r[y] = r[y - 1]; r[y - 1] = t }
        med = c % 2 ? r[(c - 1) / 2] : (r[c / 2 - 1] + r[c / 2]) / 2
        printf "%-44s %8.4f %6d %6d %6d\n", m, med, up, down, level
    }
}' "$dir/out/metrics"
