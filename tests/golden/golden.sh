#!/bin/sh
# Golden stdout gate: a bench's stdout under AVF_FAST=1 must match
# the committed file byte for byte. stderr (timing and progress
# lines) is discarded. Every other AVF_* knob is cleared so the
# caller's environment cannot change the run.
#
#   golden.sh check <bench-binary> <golden-file> <lanes1|default>
#       run one bench and cmp its stdout against the golden file
#   golden.sh update <build-dir>
#       re-record every golden file from the benches in <build-dir>
#
# `update` exists for a change that is meant to alter bench output;
# such a change must say so in CHANGES.md. A refactor never runs it.
set -eu

# Run bench $1 at lane setting $2 with a clean AVF_* environment.
run_bench() {
    if [ "$2" = lanes1 ]; then
        lanes=1
    elif [ "$2" = default ]; then
        lanes=
    else
        echo "golden.sh: lane setting must be lanes1 or default" >&2
        exit 2
    fi
    env -u AVF_LANES -u AVF_INTERVALS -u AVF_METRICS -u AVF_LIFECYCLE \
        -u AVF_MTTF_BUDGET_HOURS -u AVF_LOG_LEVEL -u AVF_TAIL_POLL_MS \
        AVF_FAST=1 ${lanes:+AVF_LANES=$lanes} "$1" 2>/dev/null
}

GOLDEN_DIR=$(cd "$(dirname "$0")" && pwd)

case "${1:-}" in
  check)
    if [ $# -ne 4 ]; then
        echo "usage: golden.sh check <bench-binary> <golden-file> <lanes1|default>" >&2
        exit 2
    fi
    out=$(mktemp)
    trap 'rm -f "$out"' EXIT
    run_bench "$2" "$4" > "$out"
    cmp "$out" "$3"
    ;;
  update)
    if [ $# -ne 2 ]; then
        echo "usage: golden.sh update <build-dir>" >&2
        exit 2
    fi
    for bench in fig3_accuracy fig4_traces; do
        for lanes in lanes1 default; do
            run_bench "$2/bench/$bench" "$lanes" \
                > "$GOLDEN_DIR/$bench.$lanes.txt"
        done
    done
    for bench in fig2_propagation ext_tlb_avf; do
        run_bench "$2/bench/$bench" default \
            > "$GOLDEN_DIR/$bench.default.txt"
    done
    ;;
  *)
    echo "usage: golden.sh check|update ..." >&2
    exit 2
    ;;
esac
