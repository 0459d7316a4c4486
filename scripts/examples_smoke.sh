#!/bin/sh
# Runs every program under examples/ to completion, each under a
# timeout, and fails if one exits non-zero or runs out of time. The
# examples are the only callers of some library paths (the fused
# training node's sweep over multi-input steps, in
# examples/multisensor.ml, for one), so building them is not enough.
#
# Usage: scripts/examples_smoke.sh
set -eu

# Seconds each example may take; the slowest takes about 12 s on a
# 2-core host.
LIMIT=300

dune build examples
status=0
for src in examples/*.ml; do
  name=$(basename "$src" .ml)
  start=$(date +%s)
  if timeout "$LIMIT" "./_build/default/examples/$name.exe" >/dev/null; then
    echo "examples-smoke: $name ok ($(( $(date +%s) - start )) s)"
  else
    rc=$?
    echo "examples-smoke: $name FAILED (exit $rc after $(( $(date +%s) - start )) s)"
    status=1
  fi
done
exit $status
