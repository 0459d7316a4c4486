#!/bin/sh
# End-to-end smoke of the real serving daemon: train a smoke-scale
# checkpoint, boot `adapt_pnc serve` on it, drive the HTTP API
# (health, single + batch inference, a case-insensitive Connection:
# Close, malformed bodies), hot-reload a second checkpoint trained on
# another seed and renamed over the served path, then SIGTERM it and
# require a clean graceful drain.
#
# Usage: [JOBS=N] scripts/serve_smoke.sh [OUTDIR]
# Needs curl. OUTDIR keeps the checkpoint and daemon log so CI can
# upload them as artifacts. JOBS, when set, is passed as `serve --jobs`
# (the daemon's domain and lane count; default one per core).
set -eu

OUT=${1:-$(mktemp -d "${TMPDIR:-/tmp}/serve-smoke-XXXXXX")}
DATASET=${DATASET:-GPOVY}
SCALE=${SCALE:-smoke}
PORT=${PORT:-18473}
JOBS_ARG=${JOBS:+--jobs $JOBS}
CLI="dune exec --no-print-directory bin/adapt_pnc.exe --"

command -v curl >/dev/null 2>&1 || { echo "serve_smoke: curl not found" >&2; exit 1; }

mkdir -p "$OUT/ckpt"

echo "== serve smoke: $DATASET @ $SCALE scale on port $PORT${JOBS:+ (--jobs $JOBS)} =="

echo "-- training the checkpoint --"
$CLI train -d "$DATASET" --scale "$SCALE" --checkpoint-dir "$OUT/ckpt"

echo "-- starting the daemon --"
# shellcheck disable=SC2086 # JOBS_ARG is empty or two words
$CLI serve --load "$OUT/ckpt/model.ckpt" -p "$PORT" --max-batch 8 $JOBS_ARG \
  >"$OUT/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

# Wait for the daemon to answer (the CLI builds first, so be patient).
i=0
until curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -le 120 ] || { echo "daemon never came up"; cat "$OUT/serve.log"; exit 1; }
  kill -0 "$SERVE_PID" 2>/dev/null || { echo "daemon died"; cat "$OUT/serve.log"; exit 1; }
  sleep 0.5
done

echo "-- health --"
curl -sf "http://127.0.0.1:$PORT/healthz"; echo

echo "-- single-series inference --"
curl -sf -X POST --data '{"series":[0.1,-0.2,0.3,0.05]}' \
  "http://127.0.0.1:$PORT/v1/logits" | grep -q '"model_version"'
curl -sf -X POST --data '{"series":[0.1,-0.2,0.3,0.05]}' \
  "http://127.0.0.1:$PORT/v1/predict"; echo

echo "-- batch inference --"
curl -sf -X POST --data '{"batch":[[0.1,0.2,0.3,0.4],[1,2,3,4]]}' \
  "http://127.0.0.1:$PORT/v1/logits" | grep -q '"logits"'

echo "-- Connection options are case-insensitive tokens --"
# RFC 9110 7.6.1: "Close" asks for a close just as "close" does.
hdrs=$(curl -sf -D - -o /dev/null -H 'Connection: Close' -X POST \
  --data '{"series":[0.1,-0.2,0.3,0.05]}' "http://127.0.0.1:$PORT/v1/logits" | tr -d '\r')
printf '%s\n' "$hdrs" | grep -qx 'Connection: close' || {
  echo "expected Connection: close for Connection: Close, got:"; printf '%s\n' "$hdrs"; exit 1;
}

echo "-- malformed bodies get 400s, daemon stays up --"
for body in '{"series":[1,' '{"series":[1],"t":"\uZZZZ"}' '{"batch":[[1,2],[1]]}'; do
  code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data "$body" \
    "http://127.0.0.1:$PORT/v1/logits")
  [ "$code" = 400 ] || { echo "expected 400 for $body, got $code"; exit 1; }
done
curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null

echo "-- metrics --"
curl -sf "http://127.0.0.1:$PORT/metrics" | grep -q 'serve.requests'

echo "-- hot reload: a checkpoint of another seed, renamed over the served path --"
$CLI train -d "$DATASET" --scale "$SCALE" --seed 1 --checkpoint-dir "$OUT/ckpt2"
cp "$OUT/ckpt2/model.ckpt" "$OUT/ckpt/model.ckpt.next"
mv "$OUT/ckpt/model.ckpt.next" "$OUT/ckpt/model.ckpt"
i=0
until curl -sf "http://127.0.0.1:$PORT/healthz" | grep -q '"model_version":2'; do
  i=$((i + 1))
  [ "$i" -le 60 ] || { echo "reload never reached /healthz"; cat "$OUT/serve.log"; exit 1; }
  sleep 0.5
done
curl -sf -X POST --data '{"series":[0.1,-0.2,0.3,0.05]}' \
  "http://127.0.0.1:$PORT/v1/logits" | grep -q '"model_version":2' || {
  echo "expected model_version 2 from /v1/logits after the reload"; exit 1;
}
grep -q "reloaded .* (model version 2)" "$OUT/serve.log" || {
  echo "daemon did not log the reload"; cat "$OUT/serve.log"; exit 1;
}

echo "-- graceful shutdown --"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
grep -q "drained and stopped" "$OUT/serve.log" || {
  echo "daemon did not report a clean drain"; cat "$OUT/serve.log"; exit 1;
}
echo "OK: daemon served, survived malformed input, hot-reloaded, and drained cleanly"
