#!/bin/sh
# Build the serving benchmark and estima_serve from this checkout's
# sources, then run the benchmark with the given arguments:
#   bash servebench/run.sh --workload serve-cold --seed 1 --seconds 40 --trace 0
# Run from the repository root.  Build output goes to stderr, so the last
# line of standard output is the benchmark's JSON result.  The shared dune
# cache is off so the build reads and writes only inside the checkout.
set -eu
dune build --root . --cache=disabled servebench/main.exe bin/estima_serve.exe 1>&2
exec ./_build/default/servebench/main.exe --server ./_build/default/bin/estima_serve.exe "$@"
