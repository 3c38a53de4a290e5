#!/bin/sh
# Builds the benchmark from source and runs it from the repository root.
# Arguments go to perfbench/main.exe; see README.md.
cd "$(dirname "$0")/.." || exit 1
exec dune exec --root . --cache=disabled --display=quiet --no-print-directory \
  ./perfbench/main.exe -- "$@"
