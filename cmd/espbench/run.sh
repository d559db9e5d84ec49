#!/usr/bin/env bash
# Builds espbench from source and runs it with the given arguments, from
# the repository root. Everything the build writes (binary, Go build
# cache, temporary files) stays in .bench_build/ at the repository root.
#
#   bash cmd/espbench/run.sh --workload fig5-esp --seed 1 --seconds 12 --trace 0
#   bash cmd/espbench/run.sh -seed 1 -out results.json
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
if [[ ! -f "$root/go.mod" ]]; then
	echo "espbench: $root is not the esplang repository root" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

(cd "$here" && go build -trimpath -o "$build/espbench" .)
cd "$root"
exec "$build/espbench" "$@"
