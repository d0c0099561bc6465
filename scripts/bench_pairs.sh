#!/usr/bin/env bash
# Runs one package's Go micro-benchmarks in alternating rounds on a
# parent revision and on this checkout's working tree, then prints, for
# every benchmark row and metric, each side's median and quartiles, the
# number of rounds in which the change read better, and a verdict. Run
# from anywhere inside the repository:
#
#   scripts/bench_pairs.sh <parent-rev> <pkg> <bench-regexp> <rounds> <iterations>
#
# for instance scripts/bench_pairs.sh HEAD~1 ./internal/core
# BenchmarkBetaSearch 10 20. Each side's test binary is built once: the
# parent's from its sources, extracted with git archive into
# .bench_build/parent-<hash>/ (no worktree is registered in .git), the
# change's from the working tree. A round runs both binaries in the
# package's directory, the parent first in odd rounds, with -test.cpu 1
# -test.benchtime <iterations>x -test.benchmem (and a 30 minute
# timeout), so every round times the same number of iterations on both
# sides. A metric whose unit ends
# in /s reads better higher, every other one lower. The verdict is
# "better" when the change read better in at least nine tenths of the
# rounds (a tie counts for neither side) and the two medians differ, in
# the change's favour, by more than the parent's interquartile range;
# "worse" under the mirror rule; and "unresolved" otherwise. The script writes
# nothing outside .bench_build/: the binaries and each run's raw output
# are kept in .bench_build/benchpairs/<pkg>/. Nothing else should run on
# the machine while it does.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 <parent-rev> <pkg> <bench-regexp> <rounds> <iterations>" >&2
  exit 2
fi
rev=$1 pkg=${2#./} bench=$3 rounds=$4 iters=$5

root=$(git rev-parse --show-toplevel)
cd "$root"
parent_commit=$(git rev-parse --verify "$rev^{commit}")
parent_dir="$root/.bench_build/parent-$parent_commit"
if [ ! -f "$parent_dir/go.mod" ]; then
  rm -rf "$parent_dir"
  mkdir -p "$parent_dir"
  git archive "$parent_commit" | tar -x -C "$parent_dir"
fi
out="$root/.bench_build/benchpairs/${pkg//\//_}"
rm -rf "$out"
mkdir -p "$out"
(cd "$parent_dir" && go test -c -o "$out/parent.test" "./$pkg")
go test -c -o "$out/change.test" "./$pkg"

# run <side> <round>: one run of the side's binary; its benchmark rows
# are appended to rows.txt as "side round name unit value".
run() {
  local side=$1 round=$2 dir=$root
  if [ "$side" = parent ]; then
    dir=$parent_dir
  fi
  local log="$out/$side-round$round.txt"
  (cd "$dir/$pkg" && "$out/$side.test" -test.run '^$' -test.bench "$bench" \
    -test.cpu 1 -test.benchtime "${iters}x" -test.benchmem -test.timeout 30m) >"$log"
  awk -v side="$side" -v round="$round" '/^Benchmark/ {
    for (i = 3; i < NF; i += 2) print side, round, $1, $(i + 1), $i
  }' "$log" >>"$out/rows.txt"
  echo "round $round: $side done" >&2
}

for ((round = 1; round <= rounds; round++)); do
  if ((round % 2 == 1)); then
    run parent "$round"
    run change "$round"
  else
    run change "$round"
    run parent "$round"
  fi
done

# One line per benchmark row and metric: each side's quartiles (linear
# interpolation between the sorted rounds), the rounds in which the
# change read better than the parent did in the same round, and the
# verdict (see the top of this file).
awk '
function quartiles(side, key,    n, i, j, v, x, q, pos, lo, s) {
  n = 0
  for (i = 1; i <= rounds; i++) {
    if ((key, side, i) in val) v[++n] = val[key, side, i]
  }
  for (i = 2; i <= n; i++) {
    x = v[i]
    for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
    v[j + 1] = x
  }
  s = ""
  for (q = 1; q <= 3; q++) {
    pos = 1 + (n - 1) * q / 4
    lo = int(pos)
    x = v[lo]
    if (lo < n) x += (pos - lo) * (v[lo + 1] - v[lo])
    s = s sprintf(" %12.6g", x)
    qs[side, q] = x
  }
  return s
}
{
  key = $3 " " $4
  if (!(key in seen)) {
    seen[key] = 1
    order[++keys] = key
  }
  val[key, $1, $2] = $5
  if ($2 > rounds) rounds = $2
}
END {
  printf "%-58s %39s %39s %8s %7s %10s\n", "benchmark metric", "parent q1 / median / q3", "change q1 / median / q3", "Δmedian", "better", "verdict"
  for (k = 1; k <= keys; k++) {
    key = order[k]
    higher = key ~ /\/s$/
    p = quartiles("parent", key)
    c = quartiles("change", key)
    better = 0
    worse = 0
    both = 0
    for (i = 1; i <= rounds; i++) {
      if (!((key, "parent", i) in val) || !((key, "change", i) in val)) continue
      both++
      pv = val[key, "parent", i]
      cv = val[key, "change", i]
      if ((higher && cv > pv) || (!higher && cv < pv)) better++
      if ((higher && cv < pv) || (!higher && cv > pv)) worse++
    }
    pmed = qs["parent", 2]
    cmed = qs["change", 2]
    # gain: how far the median of the change reads better than the parent median.
    gain = higher ? cmed - pmed : pmed - cmed
    iqr = qs["parent", 3] - qs["parent", 1]
    verdict = "unresolved"
    if (both > 0 && 10 * better >= 9 * both && gain > iqr) verdict = "better"
    if (both > 0 && 10 * worse >= 9 * both && -gain > iqr) verdict = "worse"
    delta = "n/a"
    if (pmed != 0) delta = sprintf("%+.1f%%", 100 * (cmed - pmed) / pmed)
    printf "%-58s %39s %39s %8s %7s %10s\n", key, p, c, delta, better "/" both, verdict
  }
}' "$out/rows.txt"
