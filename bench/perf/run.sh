#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root.
# Arguments are passed to perf.exe, e.g.
#   bash bench/perf/run.sh --workload detect --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/../.."
exec dune exec --root . --cache=disabled --display=quiet --no-print-directory \
  ./bench/perf/perf.exe -- "$@"
