#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument is passed on (see perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/rqlbench.exe >&2
exec ./_build/default/perfbench/rqlbench.exe "$@"
