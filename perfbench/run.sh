#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of stdout is the benchmark's result object.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# No shared build cache: the build reads and writes only this checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
