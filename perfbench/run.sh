#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
