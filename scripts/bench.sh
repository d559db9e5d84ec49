#!/bin/sh
# Record the PR's headline benchmarks — firmware latency/bandwidth,
# verifier throughput across the four-tier engine matrix (baseline,
# fused, process-fused, AOT-compiled), and the verification workloads
# under ample-set partial-order reduction — into BENCH_PR10.json at the
# repository root. Commit the file so performance claims travel with
# the code.
#
# Usage:
#   scripts/bench.sh                 # full four-tier engine matrix
#   scripts/bench.sh -fuse procfused # one tier only (the engine axis:
#                                    # baseline | fused | procfused |
#                                    # compiled, or a comma list)
#   scripts/bench.sh -seed <gitref>  # also benchmark an earlier commit
#                                    # in a worktree and record its
#                                    # <workload>/<tier>_over_seed
#                                    # entries in the speedups map
# Extra arguments are passed through to cmd/benchrec.
set -eu
cd "$(dirname "$0")/.."

engines=""
seed_file=""
wt=""
while [ $# -gt 0 ]; do
    case "$1" in
    -fuse)
        engines="$2"
        shift 2
        ;;
    -seed)
        ref="$2"
        shift 2
        wt=$(mktemp -d /tmp/espseed.XXXXXX)
        git worktree add --detach --force "$wt" "$ref" >/dev/null
        echo "benchmarking seed $ref ..." >&2
        (cd "$wt" && go test -run xxx \
            -bench 'Fig5aLatency/vmmcESP|Fig5bBandwidth/vmmcESP/1024B|VerifyMemSafety|VerifyFirmwareModel' \
            -benchtime 2s .) | tee "$wt/seed_bench.txt" >&2
        seed_file="$wt/seed_bench.txt"
        ;;
    *)
        break
        ;;
    esac
done

if [ -n "$engines" ]; then
    set -- -engines "$engines" "$@"
fi
if [ -n "$seed_file" ]; then
    set -- -seed-bench "$seed_file" "$@"
fi
go run ./cmd/benchrec -out BENCH_PR10.json "$@"

if [ -n "$wt" ]; then
    git worktree remove --force "$wt"
fi
