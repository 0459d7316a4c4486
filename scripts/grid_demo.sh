#!/bin/sh
# Sharded-grid crash demonstration: compute the experiment grid once
# with a single shard, then again with SHARDS worker processes of which
# one is SIGKILLed mid-grid, resumed, and merged. The two merged tables
# must be byte-identical — worker count, completion order and crashes
# change wall-clock only, never a digit of the results (docs/GRID.md).
#
# Usage: scripts/grid_demo.sh [OUTDIR]
# (OUTDIR defaults to a fresh temp directory; it keeps the merged
# tables and the status JSONL so CI can upload them as artifacts.)
set -eu

OUT=${1:-$(mktemp -d "${TMPDIR:-/tmp}/grid-demo-XXXXXX")}
SCALE=${SCALE:-smoke}
SHARDS=${SHARDS:-3}
VARIANTS=${VARIANTS:-all}
# Seconds to wait for the victim to hold a claim before giving up.
KILL_TIMEOUT=120
# The built binary, not `dune exec`: backgrounded workers must not
# fight over the dune build lock.
BIN=${BIN:-_build/default/bin/adapt_pnc.exe}

GRID_ARGS="--scale $SCALE --variants $VARIANTS"
# DATASETS (space-separated) restricts the grid, e.g. DATASETS="GPOVY PowerCons"
for d in ${DATASETS:-}; do GRID_ARGS="$GRID_ARGS -d $d"; done

mkdir -p "$OUT"

echo "== grid demo: $SCALE scale, $VARIANTS variants, $SHARDS shards, kill one mid-grid =="

echo "-- reference: 1 shard, straight through --"
$BIN grid run --cache-dir "$OUT/ref" --shards 1 $GRID_ARGS
$BIN grid merge --cache-dir "$OUT/ref" $GRID_ARGS > "$OUT/merged-ref.txt"

echo "-- sharded: $SHARDS workers, SIGKILL one mid-grid --"
mkdir -p "$OUT/sharded"
pids=""
i=1
while [ "$i" -le "$SHARDS" ]; do
  $BIN grid worker --cache-dir "$OUT/sharded" --worker-id "$i" $GRID_ARGS &
  pids="$pids $!"
  i=$((i + 1))
done
victim=${pids##* }

# One field of the `grid status --json` summary (its last line).
summary_field() {
  printf '%s\n' "$1" | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}

# Kill the victim while it holds a claim and pending cells remain.
# Every worker is frozen while the status is read, so the victim can
# neither publish nor release its claim between the check and the kill,
# and no sibling can reap the claim before the status below shows it.
deadline=$(($(date +%s) + KILL_TIMEOUT))
while :; do
  kill -STOP $pids 2>/dev/null || true
  summary=$($BIN grid status --cache-dir "$OUT/sharded" --json $GRID_ARGS | tail -n 1)
  pending=$(summary_field "$summary" pending)
  if [ "${pending:-0}" -ge 1 ] &&
    find "$OUT/sharded" -name '*.claim' -exec grep -l "\"pid\":$victim," {} + 2>/dev/null | grep -q .
  then
    break
  fi
  kill -CONT $pids 2>/dev/null || true
  if [ "${pending:-0}" -eq 0 ] || [ "$(date +%s)" -ge "$deadline" ]; then
    echo "FAIL: worker $victim never held a claim while cells were pending ($summary)"
    kill $pids 2>/dev/null || true
    exit 1
  fi
  sleep 0.05
done
echo "-- SIGKILL worker pid $victim mid-grid: $summary --"
kill -9 "$victim"
wait "$victim" || true

echo "-- status after the crash (the dead worker's claim shows as stale) --"
$BIN grid status --cache-dir "$OUT/sharded" $GRID_ARGS || true
stale=$(summary_field "$($BIN grid status --cache-dir "$OUT/sharded" --json $GRID_ARGS | tail -n 1)" stale)
kill -CONT $pids 2>/dev/null || true
if [ "${stale:-0}" -lt 1 ]; then
  echo "FAIL: no stale claim after SIGKILL of worker $victim"
  kill $pids 2>/dev/null || true
  exit 1
fi
for p in $pids; do wait "$p" || true; done

echo "-- resume: 2 shards finish whatever the crash left behind --"
$BIN grid run --cache-dir "$OUT/sharded" --shards 2 $GRID_ARGS
$BIN grid status --cache-dir "$OUT/sharded" --json $GRID_ARGS > "$OUT/grid-status.jsonl"
$BIN grid merge --cache-dir "$OUT/sharded" $GRID_ARGS > "$OUT/merged-sharded.txt"

echo "-- comparing merged tables --"
cmp "$OUT/merged-ref.txt" "$OUT/merged-sharded.txt"
echo "OK: $SHARDS shards + SIGKILL + resume merge byte-identical to the 1-shard run"

echo "-- merged tables ($OUT/merged-ref.txt) --"
cat "$OUT/merged-ref.txt"
