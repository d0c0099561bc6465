#!/usr/bin/env bash
# Runs perfbench in alternating pairs on a parent revision and on this
# checkout's working tree, and appends every run to the committed series
# results/perfbench.jsonl (schema: EXPERIMENTS.md, "Committed
# performance series"). Run from anywhere inside the repository:
#
#   PR=<n> scripts/perfbench_pairs.sh <parent-rev> <workload> <seed> <pairs> <trace>
#
# The parent's sources are extracted with git archive into
# .bench_build/parent-<hash>/ (no worktree is registered in .git) and
# built there by its own perfbench/run.sh; the change side runs this
# checkout's perfbench/run.sh. Odd pairs run the parent first, even
# pairs the change. PR sets each line's "pr" field (null when unset).
# The change side records HEAD's hash, followed by "+" when the working
# tree has changes other than the series itself. Each run's full output is kept in
# .bench_build/pairs/.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: PR=<n> $0 <parent-rev> <workload> <seed> <pairs> <trace>" >&2
  exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4 trace=$5

root=$(git rev-parse --show-toplevel)
cd "$root"
parent_commit=$(git rev-parse --verify "$rev^{commit}")
change_commit=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain -- . ':!results/perfbench.jsonl')" ]; then
  change_commit="$change_commit+"
fi

parent_dir="$root/.bench_build/parent-$parent_commit"
if [ ! -f "$parent_dir/perfbench/run.sh" ]; then
  rm -rf "$parent_dir"
  mkdir -p "$parent_dir"
  git archive "$parent_commit" | tar -x -C "$parent_dir"
fi
logs="$root/.bench_build/pairs"
mkdir -p "$logs"

# run <side> <pair>: one perfbench run, appended to the series.
run() {
  local side=$1 pair=$2 dir=$root commit=$change_commit
  if [ "$side" = parent ]; then
    dir=$parent_dir commit=$parent_commit
  fi
  local log="$logs/$workload-seed$seed-trace$trace-pair$pair-$side.log"
  (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
    --seconds 15 --trace "$trace") >"$log" 2>&1
  local result
  result=$(grep '^{"correct"' "$log" | tail -n 1)
  if [ -z "$result" ]; then
    echo "$side pair $pair: no result line, see $log" >&2
    exit 1
  fi
  printf '{"pr":%s,"side":"%s","commit":"%s","workload":"%s","seed":%s,"pair":%s,"trace":%s,"result":%s}\n' \
    "${PR:-null}" "$side" "$commit" "$workload" "$seed" "$pair" "$trace" "$result" \
    >>"$root/results/perfbench.jsonl"
  echo "$workload seed $seed trace $trace pair $pair: $side done" >&2
}

for ((pair = 1; pair <= pairs; pair++)); do
  if ((pair % 2 == 1)); then
    run parent "$pair"
    run change "$pair"
  else
    run change "$pair"
    run parent "$pair"
  fi
done
