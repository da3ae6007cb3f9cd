#!/usr/bin/env bash
# Builds pqbench from this checkout with dune and runs it from the
# checkout's root; every argument is passed through (see README.md).  The
# shared dune cache is off so the build reads and writes only the checkout.
set -eu
cd "$(dirname "$0")/.."
exec dune exec --root . --cache=disabled --display quiet ./pqbench/pqbench.exe -- "$@"
