# JOBS selects the worker count for the pool-parity test suite
# (exported as POOL_SIZE, read by test/test_pool.ml, and by
# test/test_serve.ml as the daemon's domain count) and the
# evaluation pool of the bench harness (ADAPT_PNC_JOBS).
# Results are worker-count-invariant; only wall-clock changes.
JOBS ?= 4

# BENCH_OUT, when set, streams every bench section (plus a final
# metrics snapshot) as JSON Lines alongside the human-readable report.
BENCH_OUT ?=

# PRECISION, when set, is exported as ADAPT_PNC_PRECISION: the
# activation tier (exact|fast) resolved by entry points. Library
# defaults never read it, so the `Exact bit-parity suites must stay
# green under either setting (the CI matrix runs both).
PRECISION ?=

# STREAM=1 additionally runs the end-to-end streaming smoke after the
# test suite: the CLI streams a drifting, perturbed sensor stream under
# a sequential and a 4-worker pool and scripts/stream_smoke.sh cmp's the accuracy-over-time tables
# byte-for-byte (see docs/STREAMING.md).
STREAM ?=

check:
	dune build && POOL_SIZE=$(JOBS) ADAPT_PNC_PRECISION=$(PRECISION) dune runtest
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
# docs/BATCHING.md, "Adding a layer kernel").
unboxed-check:
	dune build && ./scripts/check_unboxed.sh

# End-to-end crash/resume demo through the CLI: a straight run and a
# crash-at-epoch-N + --resume run must produce byte-identical final
# checkpoints (see docs/CHECKPOINTS.md). RESUME_DEMO_OUT keeps the
# checkpoint files (CI uploads one as an artifact).
resume-demo:
	dune build bin/adapt_pnc.exe && \
	  ./scripts/resume_demo.sh $(RESUME_DEMO_OUT)

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
# malformed-body requests with curl, hot-reload a second checkpoint,
# SIGTERM, require a clean drain.
# `make serve-smoke JOBS=n` serves on n domains (`serve --jobs n`);
# without JOBS on the command line the daemon takes its default.
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

# Runs every examples/*.exe to completion under a timeout
# (scripts/examples_smoke.sh); building them alone does not exercise
# the library paths only they call.
examples-smoke:
	./scripts/examples_smoke.sh

# End-to-end bit parity against a git revision: scripts/parity.sh
# builds REV and the working tree, runs the seeded examples, the
# ablation bench, the streaming smoke, a smoke grid and the serve
# daemon's raw responses to a fixed request set (needs python3) on
# both, and prints "identical" or the outputs that differ. PARITY_OUT keeps both
# sides' outputs (outside the repository).
parity:
	@test -n "$(REV)" || { echo "usage: make parity REV=<git revision>" >&2; exit 2; }
	./scripts/parity.sh $(REV) $(PARITY_OUT)

# Powers-of-five table gate: regenerates lib/obs/pow5.ml (the 128-bit
# table of the Eisel-Lemire number parser in Obs.Json) from
# scripts/gen_pow5.py and fails on any difference from the checked-in
# file.
pow5-check:
	python3 scripts/gen_pow5.py | diff -u lib/obs/pow5.ml - && echo "pow5-check: OK"

.PHONY: check bench golden fmt-check unboxed-check pow5-check resume-demo serve-smoke grid-smoke stream-smoke examples-smoke parity
