#!/usr/bin/env bash
# Builds the server and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/selest_cli.ml ] || [ ! -d lib/server ]; then
  echo "perfbench: run from the root of a full checkout (server sources missing)" >&2
  exit 2
fi
dune build --root . ./bin/selest_cli.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
