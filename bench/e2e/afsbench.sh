#!/bin/sh
# Build afsbench from source in the current checkout (run this from its
# root) and run it with the given arguments, e.g.
#   sh bench/e2e/afsbench.sh --workload hot-pages --seed 1 --seconds 15 --trace 0
# The root is pinned to the current directory so that dune never adopts
# an enclosing project as its workspace.
exec dune exec --root "$(pwd)" --display quiet bench/e2e/afsbench.exe -- "$@"
