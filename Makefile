# JOBS selects the worker count for the pool-parity test suite
# (exported as POOL_SIZE, read by test/test_pool.ml) and the
# evaluation pool of the bench harness (ADAPT_PNC_JOBS).
# Results are worker-count-invariant; only wall-clock changes.
JOBS ?= 4

# BENCH_OUT streams every bench section (plus a final metrics
# snapshot) as JSON Lines alongside the human-readable report.
BENCH_OUT ?= docs/bench_pr9.json

# BATCH, when set, is exported as ADAPT_PNC_BATCH: the block size of
# the batched no-grad evaluation path (see docs/BATCHING.md). Results
# are bit-identical for every block size (the batch-parity suite
# enforces this); only memory traffic and wall-clock change.
BATCH ?=

# PRECISION, when set, is exported as ADAPT_PNC_PRECISION: the
# activation tier (exact|fast) resolved by entry points. Library
# defaults never read it, so the `Exact bit-parity suites must stay
# green under either setting (the CI matrix runs both).
PRECISION ?=

# STREAM=1 additionally runs the end-to-end streaming smoke after the
# test suite: the CLI streams a drifting, perturbed sensor stream under
# a sequential and a 4-worker pool with different batch chunking and
# scripts/stream_smoke.sh cmp's the accuracy-over-time tables
# byte-for-byte (see docs/STREAMING.md).
STREAM ?=

check:
	dune build && POOL_SIZE=$(JOBS) ADAPT_PNC_BATCH=$(BATCH) \
	  ADAPT_PNC_PRECISION=$(PRECISION) dune runtest
	@if [ "$(STREAM)" = "1" ]; then $(MAKE) stream-smoke; fi

bench:
	dune build bench/main.exe && \
	  ADAPT_PNC_JOBS=$(JOBS) BENCH_OUT=$(BENCH_OUT) dune exec bench/main.exe

# Refresh the golden-file references after an intentional change to
# the hardware cost model or the netlist exporter.
golden:
	UPDATE_GOLDEN=1 dune runtest test --force

# Source hygiene gate (no ocamlformat in the toolchain): rejects tabs
# and trailing whitespace in OCaml sources.
fmt-check:
	./scripts/fmt_check.sh

# Unboxed-kernel gate: fails if any native object under
# _build/default/lib calls the generic Bigarray stubs caml_ba_get_N /
# caml_ba_set_N, i.e. a kernel helper left a Bigarray parameter
# unannotated and boxes a float on every element access (see
# docs/BATCHING.md, "Adding a batched twin").
unboxed-check:
	dune build && ./scripts/check_unboxed.sh

# End-to-end crash/resume demo through the CLI: a straight run and a
# crash-at-epoch-N + --resume run must produce byte-identical final
# checkpoints (see docs/CHECKPOINTS.md). RESUME_DEMO_OUT keeps the
# checkpoint files (CI uploads one as an artifact).
resume-demo:
	dune build bin/adapt_pnc.exe && \
	  ./scripts/resume_demo.sh $(RESUME_DEMO_OUT)

# Load generator for the serving daemon (docs/SERVING.md): hundreds of
# concurrent connections against an in-process daemon, every response
# parity-checked bit-for-bit against the offline engine, with a
# checkpoint hot-swap mid-run. SERVE_BENCH_OUT streams the summary
# (and metrics snapshot) as JSON Lines.
SERVE_BENCH_OUT ?= docs/bench_serve.json
serve-bench:
	dune build bench/serve_bench.exe && \
	  ADAPT_PNC_JOBS=$(JOBS) BENCH_OUT=$(SERVE_BENCH_OUT) \
	  dune exec bench/serve_bench.exe

# Sharded-grid crash demo: a 1-shard reference run vs SHARDS worker
# processes with one SIGKILLed mid-grid and resumed; the merged tables
# must be byte-identical (scripts/grid_demo.sh cmp's them, docs/GRID.md
# has the claim protocol). GRID_DEMO_OUT keeps the merged tables and
# the status JSONL (CI uploads them as artifacts).
SHARDS ?= 2
grid-smoke:
	dune build bin/adapt_pnc.exe && \
	  SHARDS=$(SHARDS) DATASETS="GPOVY PowerCons" \
	  ./scripts/grid_demo.sh $(GRID_DEMO_OUT)

# End-to-end smoke of the real `adapt_pnc serve` daemon over HTTP:
# train a smoke checkpoint, boot the daemon, drive health/inference/
# malformed-body requests with curl, SIGTERM, require a clean drain.
serve-smoke:
	dune build bin/adapt_pnc.exe && \
	  ./scripts/serve_smoke.sh $(SERVE_SMOKE_OUT)

# Streaming smoke through the real CLI: frozen + adapted passes over a
# drifting stream, sequential vs 4-worker pool, tables cmp'd
# byte-for-byte (docs/STREAMING.md). STREAM_SMOKE_OUT keeps the tables
# and the per-window telemetry JSONL (CI uploads them as artifacts).
stream-smoke:
	dune build bin/adapt_pnc.exe && \
	  ./scripts/stream_smoke.sh $(STREAM_SMOKE_OUT)

.PHONY: check bench golden fmt-check unboxed-check resume-demo serve-bench serve-smoke grid-smoke stream-smoke
