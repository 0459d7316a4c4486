#!/bin/sh
# Minimal format gate for the OCaml sources. The toolchain image has no
# ocamlformat binary, so this enforces the subset that matters for
# diffs staying reviewable: no tab indentation and no trailing
# whitespace in .ml/.mli files (dune files included).
set -eu

cd "$(dirname "$0")/.."

status=0
files=$(find lib bin bench test examples perfbench -name '*.ml' -o -name '*.mli' -o -name 'dune' | sort)

for f in $files; do
  if grep -n "$(printf '\t')" "$f" >/dev/null 2>&1; then
    echo "fmt-check: tab character in $f:" >&2
    grep -n "$(printf '\t')" "$f" | head -3 >&2
    status=1
  fi
  if grep -n ' $' "$f" >/dev/null 2>&1; then
    echo "fmt-check: trailing whitespace in $f:" >&2
    grep -n ' $' "$f" | head -3 >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "fmt-check: OK ($(echo "$files" | wc -l | tr -d ' ') files)"
fi
exit "$status"
