#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root.  The build's output goes to stderr, so
# the result line is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
unset TAPA_CS_JOBS
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
