#!/bin/sh
# End-to-end smoke of the streaming protocol through the real CLI:
# train a smoke-scale model (cached as a grid cell so both runs share
# it), stream a drifting, perturbed sensor stream over it — frozen
# baseline plus online test-time adaptation — under a sequential pool
# and a 4-worker pool, and require the printed accuracy-over-time
# tables to be byte-identical (the pool-invariance contract, checked
# here with cmp end to end).
#
# Usage: scripts/stream_smoke.sh [OUTDIR]
# OUTDIR keeps the tables and the per-window telemetry JSONL so CI can
# upload them as artifacts.
set -eu

OUT=${1:-$(mktemp -d "${TMPDIR:-/tmp}/stream-smoke-XXXXXX")}
DATASET=${DATASET:-GPOVY}
SCALE=${SCALE:-smoke}
CLI="dune exec --no-print-directory bin/adapt_pnc.exe --"

mkdir -p "$OUT"

# One drifting scenario with every perturbation on, adaptation against
# the frozen baseline (the knobs pinned by test/test_stream.ml).
run_stream() {
  $CLI stream -d "$DATASET" --scale "$SCALE" \
    --samples 96 --drift-at 32 --width 8 \
    --burst-rate 0.2 --dropout-rate 0.05 --wander-amp 0.3 \
    --adapt all --adapt-lr 0.2 --adapt-steps 4 \
    --cache-dir "$OUT/cells" "$@"
}

echo "== stream smoke: $DATASET @ $SCALE scale =="

echo "-- sequential pool (trains and caches the cell) --"
run_stream -j 1 --metrics-out "$OUT/stream-j1.jsonl" >"$OUT/stream-j1.txt"

echo "-- 4-worker pool (reuses the cached cell) --"
run_stream -j 4 --metrics-out "$OUT/stream-j4.jsonl" >"$OUT/stream-j4.txt"

echo "-- parity: tables must be byte-identical across pool sizes --"
cmp "$OUT/stream-j1.txt" "$OUT/stream-j4.txt" || {
  echo "POOL PARITY VIOLATION between stream-j1.txt and stream-j4.txt" >&2
  diff "$OUT/stream-j1.txt" "$OUT/stream-j4.txt" >&2 || true
  exit 1
}

echo "-- the run exercised what it claims --"
grep -q '^frozen : ' "$OUT/stream-j1.txt"
grep -q '^adapted: ' "$OUT/stream-j1.txt"
grep -q '\*drift' "$OUT/stream-j1.txt"
grep -q 'detected at [0-9]' "$OUT/stream-j1.txt"
grep -q '"event":"stream.window"' "$OUT/stream-j1.jsonl"
grep -q '"event":"stream.done"' "$OUT/stream-j1.jsonl"
grep -q '"event":"stream.drift"' "$OUT/stream-j1.jsonl"

echo "== stream smoke OK (artifacts in $OUT) =="
