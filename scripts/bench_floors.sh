#!/usr/bin/env bash
# Throughput floors for the layers behind the paper's linear-in-η
# claim: tree build, β-search, WAL append, the service window's union
# level index and sharded build. Each row
# of the table below names a package, a go test benchmark, one metric
# that benchmark reports, and the floor that metric must reach. Every
# benchmark runs once with -count 3; a floor holds when the best
# matching row (the highest value of the metric over all of the
# benchmark's sub-benchmarks and counts) is at or above it. The raw
# go test output goes to stdout, then one verdict line per floor.
#
#   ./scripts/bench_floors.sh
#
# The script fails closed: it exits non-zero when a go test run fails,
# when a floor's benchmark or metric prints no line, or when a best
# row is below its floor. EXPERIMENTS.md "Throughput floors" records
# how each floor was set. The shard speedup floor needs the 4 vCPUs of
# the CI runner and cannot hold on fewer cores.
set -uo pipefail

cd "$(dirname "$0")/.."

# package          benchmark                          metric    floor
floors='
./internal/ctree   BenchmarkTreeBuild                 points/s  1160000
./internal/core    BenchmarkBetaSearch                points/s  380000
./internal/wal     BenchmarkWALAppend                 points/s  580000
./internal/ctree   BenchmarkEnsureLevelIndexes/union  points/s  3600000
./internal/shard   BenchmarkShardBuild                speedup   1.3
'

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
status=0
verdicts=()
while read -r pkg bench metric floor; do
  [ -n "$pkg" ] || continue
  go test -run '^$' -bench "^${bench}\$" -count 3 "$pkg" >"$out" 2>&1
  rc=$?
  cat "$out"
  if [ "$rc" -ne 0 ]; then
    verdicts+=("FAIL $bench: go test exited $rc")
    status=1
    continue
  fi
  # A benchmark line reads "Name-P  N  v1 unit1  v2 unit2 ...": the
  # metric's value is the field before its unit.
  best="$(awk -v b="$bench" -v m="$metric" '
    $1 == b || index($1, b "/") == 1 || index($1, b "-") == 1 {
      for (i = 3; i <= NF; i++)
        if ($i == m && (!found || $(i-1) + 0 > best)) { best = $(i-1) + 0; found = 1 }
    }
    END { if (found) print best }' "$out")"
  if [ -z "$best" ]; then
    verdicts+=("FAIL $bench $metric: no benchmark line reports it")
    status=1
  elif awk -v x="$best" -v f="$floor" 'BEGIN { exit !(x + 0 >= f + 0) }'; then
    verdicts+=("ok   $bench $metric: best $best >= floor $floor")
  else
    verdicts+=("FAIL $bench $metric: best $best < floor $floor")
    status=1
  fi
done <<<"$floors"
printf '%s\n' "${verdicts[@]}"
exit "$status"
