#!/usr/bin/env bash
# Smoke test for cmd/mrcc-shard: boot two real worker processes on
# ephemeral loopback ports, run the coordinator over them with
# -check-serial (the merged tree must be byte-identical to a fresh
# single-process build), reload the emitted snapshot through
# mrcc-serve's warm-start path, and SIGTERM the workers cleanly. CI
# runs this (job "shard-smoke"); it also runs locally:
#
#   ./scripts/shard_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
bin="$dir/mrcc-shard"
go build -o "$bin" ./cmd/mrcc-shard

# 6000 pseudo-random 5-dim rows in [0,1).
awk 'BEGIN {
  srand(11)
  for (i = 0; i < 6000; i++)
    printf "%.6f,%.6f,%.6f,%.6f,%.6f\n", 0.999*rand(), 0.999*rand(), 0.999*rand(), 0.999*rand(), 0.999*rand()
}' >"$dir/points.csv"

# Two worker processes on ephemeral ports; each prints
# "mrcc-shard worker listening on HOST:PORT" once bound.
pids=()
addrs=()
for i in 0 1; do
  out="$dir/worker$i.out"
  "$bin" -worker -listen 127.0.0.1:0 >"$out" 2>&1 &
  pids+=($!)
  for _ in $(seq 50); do
    addr="$(sed -n 's/^mrcc-shard worker listening on //p' "$out")"
    [ -n "$addr" ] && break
    kill -0 "${pids[$i]}" 2>/dev/null || { echo "worker $i died during boot:"; cat "$out"; exit 1; }
    sleep 0.1
  done
  [ -n "${addr:-}" ] || { echo "worker $i never reported its address:"; cat "$out"; exit 1; }
  addrs+=("$addr")
  addr=""
done
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$dir"' EXIT
echo "workers up at ${addrs[0]}, ${addrs[1]}"

# Coordinate a 4-shard build over the 2 workers; -check-serial demands
# the merged tree re-save byte-identically to a single-process build.
coord_out="$dir/coord.out"
"$bin" -input "$dir/points.csv" -shards 4 \
  -worker-addrs "${addrs[0]},${addrs[1]}" \
  -check-serial -out "$dir/tree.snap" | tee "$coord_out"
grep -q 'check-serial: ok' "$coord_out" \
  || { echo "coordinator never confirmed serial equivalence"; exit 1; }
grep -q '6000 points' "$coord_out" \
  || { echo "coordinator did not fold all 6000 points"; exit 1; }

# The emitted snapshot must warm-start mrcc-serve (a fully validated load).
serve="$dir/mrcc-serve"
go build -o "$serve" ./cmd/mrcc-serve
serve_out="$dir/serve.out"
"$serve" -addr 127.0.0.1:0 -dims 5 -snapshot "$dir/tree.snap" >"$serve_out" 2>&1 &
spid=$!
for _ in $(seq 50); do
  saddr="$(sed -n 's/^mrcc-serve listening on //p' "$serve_out")"
  [ -n "$saddr" ] && break
  kill -0 "$spid" 2>/dev/null || { echo "serve died during warm-start:"; cat "$serve_out"; exit 1; }
  sleep 0.1
done
[ -n "${saddr:-}" ] || { echo "serve never reported its address:"; cat "$serve_out"; exit 1; }
curl -sS -f "http://$saddr/stats" | grep -q '"activePoints": 6000' \
  || { echo "warm-started service does not hold the 6000 sharded points:"; curl -sS "http://$saddr/stats"; exit 1; }
kill -TERM "$spid"
wait "$spid" || { echo "serve exited non-zero on SIGTERM:"; cat "$serve_out"; exit 1; }
echo "warm-start ok: mrcc-serve booted from the sharded snapshot"

# Clean SIGTERM: every worker must exit 0.
kill -TERM "${pids[@]}"
for pid in "${pids[@]}"; do
  wait "$pid" || { echo "worker $pid exited non-zero on SIGTERM"; exit 1; }
done
trap 'rm -rf "$dir"' EXIT
echo "shard smoke ok"
