#!/usr/bin/env bash
# benchdiff.sh [-time] OLD NEW — compare two `go test -bench` outputs.
#
# Default (allocs mode): fail when any benchmark's allocs/op regressed
# by more than 20% (or went from zero to nonzero). Benchmarks without
# a ReportAllocs column are skipped. allocs/op is deterministic, so
# OLD may be a committed baseline from another machine.
#
# -time: fail when any benchmark's median ns/op regressed by more than
# 25%. Each file should hold several samples per benchmark (-count 5,
# or five alternating -count 1 runs); the median absorbs one-off
# outliers. Wall time is only comparable on one machine, so OLD and
# NEW must come from the same runner, ideally interleaved.
#
# In both modes benchmarks present in only one file are skipped.
#
# Usage:
#   go test -bench . -benchtime 100x -run '^$' . > new.txt
#   scripts/benchdiff.sh scripts/bench-baseline.txt new.txt
#   scripts/benchdiff.sh -time base.txt head.txt
set -euo pipefail

mode=allocs
if [ "${1:-}" = "-time" ]; then
  mode=time
  shift
fi
if [ $# -ne 2 ]; then
  echo "usage: $0 [-time] <old-bench-output> <new-bench-output>" >&2
  exit 2
fi

awk -v mode="$mode" '
  # median of the n space-separated values in s (insertion sort: the
  # lists are a handful of samples, and plain awk has no sort).
  function median(s,    v, n, i, j, x) {
    n = split(s, v, " ")
    for (i = 2; i <= n; i++) {
      x = v[i] + 0
      for (j = i - 1; j >= 1 && v[j] + 0 > x; j--) v[j + 1] = v[j]
      v[j + 1] = x
    }
    if (n % 2) return v[(n + 1) / 2] + 0
    return (v[n / 2] + v[n / 2 + 1]) / 2
  }
  FNR == 1 { file++ }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    unit = (mode == "time") ? "ns/op" : "allocs/op"
    val = -1
    for (i = 2; i <= NF; i++) {
      if ($i == unit) val = $(i - 1)
    }
    if (val < 0) next
    if (file == 1) old[name] = old[name] " " val
    else           new[name] = new[name] " " val
  }
  END {
    status = 0
    compared = 0
    threshold = (mode == "time") ? 1.25 : 1.20
    for (n in new) {
      if (!(n in old)) continue
      compared++
      o = median(old[n])
      w = median(new[n])
      if (mode == "time") {
        bad = o > 0 && w > o * threshold
        pct = (o > 0) ? 100 * (w - o) / o : 0
        printf "%-11s %-40s ns/op %12.0f -> %12.0f (%+.1f%%)\n", (bad ? "REGRESSION" : "ok"), n, o, w, pct
      } else {
        bad = (o == 0 && w > 0) || (o > 0 && w > o * threshold)
        printf "%-11s %-40s allocs/op %8d -> %8d\n", (bad ? "REGRESSION" : "ok"), n, o, w
      }
      if (bad) status = 1
    }
    if (compared == 0) {
      print "benchdiff: no comparable benchmarks (ReportAllocs missing?)" > "/dev/stderr"
      exit 2
    }
    exit status
  }
' "$1" "$2"
