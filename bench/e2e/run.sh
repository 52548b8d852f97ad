#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it with the given
# arguments (see README.md).  Run from the repository root, e.g.
#   bash bench/e2e/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
dune build --root . ./bench/e2e/bench_e2e.exe 1>&2
exec ./_build/default/bench/e2e/bench_e2e.exe "$@"
