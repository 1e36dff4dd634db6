#!/usr/bin/env bash
# Build the benchmark program from this checkout and run one workload.
# Run from the root of an mpres checkout; every argument goes to main.exe:
#
#   bash bench/workloads/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build lands in .bench_build/ and nothing is written outside the
# checkout.  Exits 2 without running anything when the sources are missing.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/workloads/dune ]; then
  echo "run.sh: not at the root of an mpres checkout (dune-project, lib/ or bench/workloads/dune missing)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

build=.bench_build
mkdir -p "$build/tmp"
export TMPDIR="$PWD/$build/tmp" DUNE_CACHE=disabled
dune build --root . --build-dir "$build" ./bench/workloads/main.exe >&2
exec "$build/default/bench/workloads/main.exe" "$@"
