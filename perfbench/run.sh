#!/usr/bin/env bash
# Build the benchmark and the serving daemon from source, then run one
# benchmark pass. Arguments go to the benchmark unchanged:
#   bash perfbench/run.sh --workload train|mc|serve|stream --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . perfbench/main.exe bin/adapt_pnc.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
