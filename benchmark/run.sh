#!/usr/bin/env bash
# Builds mgrts and the benchmark from source, then runs the benchmark.
# Run from the repository root; arguments go to bench.exe, e.g.
#   bash benchmark/run.sh --workload fresh --seed 1 --seconds 25 --trace 0
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# The build stays inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./bin/mgrts.exe ./benchmark/bench.exe 1>&2
exec ./_build/default/benchmark/bench.exe "$@"
