#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it from the root of
# the tree; arguments go to e2ebench/main.exe (see e2ebench/README.md).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
DUNE_CACHE=disabled dune build --root . ./e2ebench/main.exe >&2
exec ./_build/default/e2ebench/main.exe "$@"
