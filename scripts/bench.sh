#!/bin/sh
# Record every espbench workload into BENCH_PR<n>.json at the repository
# root, then compare it with the newest earlier record espbench wrote.
# Commit the file so performance claims travel with the code.
#
# Usage:
#   scripts/bench.sh <n> [espbench flags]    # e.g. scripts/bench.sh 25 -runs 5 -seconds 10
#
# Records from an older harness have their own schema (a top-level
# "benchmarks" key, not espbench's "workloads") and are never compared
# against.
set -eu
cd "$(dirname "$0")/.."

n=${1:-}
case $n in
'' | *[!0-9]*)
    echo "usage: scripts/bench.sh <n> [espbench flags]" >&2
    exit 2
    ;;
esac
shift
out=BENCH_PR$n.json
bash cmd/espbench/run.sh -seed 1 -runs 3 "$@" -out "$out"

prev=""
best=-1
for f in BENCH_PR*.json; do
    m=${f#BENCH_PR}
    m=${m%.json}
    case $m in '' | *[!0-9]*) continue ;; esac
    if [ "$m" -lt "$n" ] && [ "$m" -gt "$best" ] && grep -q '^  "workloads"' "$f"; then
        prev=$f
        best=$m
    fi
done
if [ -z "$prev" ]; then
    echo "bench.sh: no earlier espbench record to compare $out against"
    exit 0
fi
exec bash cmd/espbench/run.sh -compare "$prev" "$out"
