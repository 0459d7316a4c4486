#!/bin/sh
# End-to-end bit parity between a git revision and the working tree.
# Builds REV from a `git archive` export and the working tree in place,
# runs the same seeded programs on both and cmp's what they print:
#
#   - examples/quickstart and examples/multisensor (training through the
#     fused node, evaluation under variation);
#   - examples/yield_analysis (Yield.sweep_levels) and `adapt_pnc
#     sensitivity -d GPOVY` (Sensitivity.analyze's per-family rows);
#   - `adapt_pnc nas -d GPOVY --scale smoke --budget 2` (the architecture
#     search trains its candidates through Experiments.prepare);
#   - bench/ablations.exe (read-out, discretization, calibration
#     trimming, ...), minus the Bechamel timing lines of its section H;
#   - scripts/stream_smoke.sh's frozen and adapted streaming tables;
#   - the smoke-scale bench harness (bench/main.exe), minus its Table II
#     timing block;
#   - a smoke-scale `grid run` over two datasets: the `grid merge`
#     tables, and every cell's trained parameters (the stream smoke's
#     and the bench harness's cells included). Whole cells are not
#     compared: each stores the wall-clock train_seconds of its run,
#     inside its checksums;
#   - `adapt_pnc serve` on one checkpoint (trained once, by REV's
#     binary): a fixed set of raw requests, one connection each, and
#     every byte of every response — status line, headers and body.
#     The set covers series and batch /v1/logits, /v1/predict, a
#     malformed body, Transfer-Encoding, conflicting Content-Length,
#     404 and 405, Connection: close, HTTP/1.0 and two pipelined
#     requests. Needs python3 for the raw socket client.
#
# Prints "identical" (exit 0) or names every output that differs
# (exit 1). An export, not a `git worktree`, keeps the repository's
# .git untouched even when the script is interrupted.
#
# Usage: scripts/parity.sh REV [OUTDIR]
# OUTDIR (default: a fresh temp directory) keeps both sides' outputs;
# it must lie outside the repository, or dune would take the export for
# part of this workspace.
set -eu

REV=${1:?usage: scripts/parity.sh REV [OUTDIR]}
OUT=${2:-$(mktemp -d "${TMPDIR:-/tmp}/parity-XXXXXX")}
ROOT=$(git rev-parse --show-toplevel)
COMMIT=$(git -C "$ROOT" rev-parse --verify "$REV^{commit}")
GRID_ARGS="--scale smoke -d GPOVY -d PowerCons"
OUTPUTS="quickstart.txt multisensor.txt yield_analysis.txt sensitivity.txt nas.txt ablations.txt
stream/stream-j1.txt stream/stream-j4.txt bench.txt grid-merged.txt cell-params.txt serve.txt"

mkdir -p "$OUT/rev-src"
git -C "$ROOT" archive "$COMMIT" | tar -x -C "$OUT/rev-src"

# The parameter sections of a grid cell: its payload up to the metrics
# section, which comes last (Experiments.save_cell) and holds
# train_seconds. Parameters are printed %.17g, so equal text is equal
# bits.
cell_params() {
  loc=$(grep -ao '"name":"metrics","kind":"f64","rows":[0-9]*,"cols":[0-9]*,"offset":[0-9]*,"len":[0-9]*' "$1" |
    sed 's/.*"offset":\([0-9]*\),"len":\([0-9]*\)/\1 \2/')
  set -- "$1" $loc
  tail -c "$(($2 + $3))" "$1" | head -c "$2"
}

# The serve leg's requests, one connection each, each followed by a
# line "--". Bodies are framed by the Content-Length written here.
serve_requests() {
  req() { # METHOD PATH EXTRA-HEADERS BODY [VERSION]
    printf '%s %s %s\r\nHost: parity\r\n%bContent-Length: %d\r\n\r\n%s' \
      "$1" "$2" "${5:-HTTP/1.1}" "$3" "${#4}" "$4"
  }
  series='{"series":[0.1,-0.2,0.3,0.05,0.7,-0.4,0.25,0.0]}'
  batch='{"batch":[[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8],[1,2,3,4,-1,-2,-3,-4],[0,0,0,0,0,0,0,1e-3]]}'
  req POST /v1/logits "" "$series"; echo; echo --
  req POST /v1/logits "" "$batch"; echo; echo --
  req POST /v1/predict "" "$batch"; echo; echo --
  req POST "/v1/predict?x=1" "" "$series"; echo; echo --
  req POST /v1/logits "" '{"series":[1,2,'; echo; echo --
  req POST /v1/logits "" '{"rows":[[1]]}'; echo; echo --
  printf 'POST /v1/logits HTTP/1.1\r\nHost: parity\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n{}\n\r\n0\r\n\r\n'
  echo; echo --
  printf 'POST /v1/logits HTTP/1.1\r\nContent-Length: %d\r\nContent-Length: %d\r\n\r\n%s' \
    "${#series}" "$((${#series} + 1))" "$series"
  echo; echo --
  req GET /nope "" ""; echo; echo --
  req GET /v1/logits "" ""; echo; echo --
  req POST /v1/logits "Connection: close\r\n" "$series"; echo; echo --
  req POST /v1/logits "" "$series" HTTP/1.0; echo; echo --
  req POST /v1/logits "" "$series"
  req POST /v1/predict "Connection: keep-alive, Close\r\n" "$series"
  echo; echo --
}

# serve_leg EXE OUTFILE: serve $OUT/serve-ckpt/model.ckpt with EXE and
# write every response of the request set, in order, to OUTFILE.
serve_leg() {
  log=$2.log
  "$1" serve --load "$OUT/serve-ckpt/model.ckpt" --port 0 --reload-every-ms 0 >"$log" 2>&1 &
  pid=$!
  i=0
  until port=$(sed -n 's|.*on http://127.0.0.1:\([0-9]*\).*|\1|p' "$log") && [ -n "$port" ]; do
    i=$((i + 1))
    [ "$i" -le 600 ] && kill -0 "$pid" 2>/dev/null || { cat "$log"; kill "$pid" 2>/dev/null; return 1; }
    sleep 0.1
  done
  serve_requests | python3 -c '
import socket, sys
port = int(sys.argv[1])
for raw in sys.stdin.buffer.read().split(b"\n--\n")[:-1]:
    s = socket.create_connection(("127.0.0.1", port))
    s.sendall(raw)
    s.shutdown(socket.SHUT_WR)
    got = b""
    try:
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            got += chunk
    except ConnectionResetError:
        got += b"<connection reset>"
    s.close()
    sys.stdout.buffer.write(got + b"\n== next connection ==\n")
' "$port" >"$2"
  kill -TERM "$pid"
  wait "$pid"
}

# side NAME SRC: build SRC and leave its outputs in $OUT/NAME.
side() {
  name=$1
  src=$2
  out=$OUT/$name
  bin=$src/_build/default
  mkdir -p "$out"
  echo "-- $name: build --"
  dune build --root "$src" bin/adapt_pnc.exe examples/quickstart.exe examples/multisensor.exe \
    examples/yield_analysis.exe bench/ablations.exe bench/main.exe
  echo "-- $name: examples --"
  (cd "$src" && "$bin/examples/quickstart.exe") >"$out/quickstart.txt"
  (cd "$src" && "$bin/examples/multisensor.exe") >"$out/multisensor.txt"
  (cd "$src" && "$bin/examples/yield_analysis.exe") >"$out/yield_analysis.txt"
  echo "-- $name: sensitivity --"
  (cd "$src" && "$bin/bin/adapt_pnc.exe" sensitivity -d GPOVY 2>/dev/null) >"$out/sensitivity.txt"
  echo "-- $name: nas --"
  (cd "$src" && "$bin/bin/adapt_pnc.exe" nas -d GPOVY --scale smoke --budget 2 2>/dev/null) >"$out/nas.txt"
  echo "-- $name: ablation bench --"
  (cd "$src" && "$bin/bench/ablations.exe") >"$out/ablations-timed.txt"
  sed '/^H\. /,/^done\./{/^  /d}' "$out/ablations-timed.txt" >"$out/ablations.txt"
  echo "-- $name: stream smoke --"
  (cd "$src" && sh scripts/stream_smoke.sh "$out/stream") >/dev/null
  echo "-- $name: smoke bench --"
  (cd "$src" && ADAPT_PNC_SCALE=smoke ADAPT_PNC_CACHE_DIR="$out/bench-cells" \
    "$bin/bench/main.exe" 2>/dev/null) >"$out/bench-timed.txt"
  sed '/^Table II - runtime/,/^done\./{/^done\./!d}' "$out/bench-timed.txt" >"$out/bench.txt"
  echo "-- $name: smoke grid --"
  "$bin/bin/adapt_pnc.exe" grid run --cache-dir "$out/grid" --shards 1 $GRID_ARGS >/dev/null
  "$bin/bin/adapt_pnc.exe" grid merge --cache-dir "$out/grid" $GRID_ARGS >"$out/grid-merged.txt"
  for f in "$out"/grid/*.ckpt "$out"/stream/cells/*.ckpt "$out"/bench-cells/*.ckpt; do
    echo "== ${f#"$out"/}"
    cell_params "$f"
    echo
  done >"$out/cell-params.txt"
  echo "-- $name: serve --"
  [ -f "$OUT/serve-ckpt/model.ckpt" ] ||
    "$bin/bin/adapt_pnc.exe" train -d GPOVY --scale smoke --checkpoint-dir "$OUT/serve-ckpt" >/dev/null
  serve_leg "$bin/bin/adapt_pnc.exe" "$out/serve.txt"
}

echo "== parity: $REV ($COMMIT) vs the working tree, outputs in $OUT =="
side rev "$OUT/rev-src"
side work "$ROOT"

differ=""
for f in $OUTPUTS; do
  cmp -s "$OUT/rev/$f" "$OUT/work/$f" || differ="$differ $f"
done
if [ -z "$differ" ]; then
  echo "identical"
else
  for f in $differ; do
    echo "differs: $f"
    diff "$OUT/rev/$f" "$OUT/work/$f" | head -20 || true
  done
  exit 1
fi
