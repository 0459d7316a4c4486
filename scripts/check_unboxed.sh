#!/bin/sh
# Unboxed-kernel gate: no native object of the library may call the
# generic Bigarray accessors caml_ba_get_N / caml_ba_set_N.
#
# ocamlopt (without flambda) inlines Bigarray.Array1.unsafe_get/set to
# a plain load/store only when the array's kind and layout are known at
# the access. A kernel helper whose Bigarray parameter is left
# unannotated gets a polymorphic type, and every access then becomes a
# C call into the generic stub, which boxes the float it returns: one
# heap allocation per element read on the hot path. Annotating the
# parameter with Pnc_tensor.Tensor.buffer removes the call.
#
# Usage: scripts/check_unboxed.sh [BUILD_DIR]
# BUILD_DIR (relative to the repository root) defaults to
# _build/default/lib; build it first (`dune build`). Prints each
# offending object, function and symbol, and exits 1 if there is any.
# Needs objdump (binutils).
set -eu

cd "$(dirname "$0")/.."
DIR=${1:-_build/default/lib}

command -v objdump >/dev/null 2>&1 || { echo "unboxed-check: objdump not found" >&2; exit 2; }

objs=$(find "$DIR" -name '*.o' | sort)
if [ -z "$objs" ]; then
  echo "unboxed-check: no object files under $DIR (run dune build first)" >&2
  exit 2
fi

hits=0
for o in $objs; do
  # objdump -dr prints a "<symbol>:" line at each function start and the
  # relocation target under every call site.
  found=$(objdump -dr "$o" | awk -v obj="$o" '
    /^[0-9a-f]+ <.*>:$/ { fn = $2; sub(/^</, "", fn); sub(/>:$/, "", fn); next }
    /caml_ba_(get|set)_[0-9]/ {
      match($0, /caml_ba_(get|set)_[0-9]+/);
      print obj ": " fn " -> " substr($0, RSTART, RLENGTH)
    }')
  if [ -n "$found" ]; then
    echo "$found" >&2
    hits=$((hits + $(echo "$found" | wc -l)))
  fi
done

n=$(echo "$objs" | wc -l | tr -d ' ')
if [ "$hits" -gt 0 ]; then
  echo "unboxed-check: $hits generic Bigarray stub call(s) in $n objects;" \
    "annotate the Bigarray parameters with Pnc_tensor.Tensor.buffer" >&2
  exit 1
fi
echo "unboxed-check: OK ($n objects, no generic Bigarray stubs)"
