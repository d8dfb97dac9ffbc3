#!/bin/sh
# CI gate, POSIX sh (runs identically under dash, bash, and busybox
# sh — GitHub's `sh` is dash, so no bashisms and no pipefail; stages
# avoid pipes so every nonzero exit propagates through `set -e`).
#
#   scripts/ci.sh [--stage <name>] [build-dir]
#
# Stages (default: all):
#   tier1        configure + build + full test suite
#   lint         avflint unit tests + repo scan (ctest -L lint)
#   tidy         clang-tidy over src/ and tools/ (skips when absent)
#   ubsan        engine tests under -DAVF_SANITIZE=undefined
#   tsan         engine + obs tests under -DAVF_SANITIZE=thread (the
#                thread pool and the metrics collect/merge path)
#   bench-smoke  avf_micro --smoke in a Release build; writes
#                BENCH_micro.json next to the build dir, plus a
#                metrics-enabled fig3_accuracy smoke run that emits
#                and sanity-parses ci_METRICS.json / ci_TRACE.json,
#                a closed-loop scenario_budget_storm run whose
#                decision trail `avf-report budget` renders back,
#                and a scenario_root_cause run whose ci_ROOTCAUSE.json
#                every `avf-report root-cause` grouping renders back;
#                then `bench/e2e/avfbench.py --smoke`, which builds the
#                end-to-end benchmark (build-e2e/) and must report
#                every workload correct
#   serve-smoke  the kill-and-resume gate: start avf-serve, submit a
#                campaign over the socket, kill -9 the daemon
#                mid-campaign, restart with --resume, and diff the
#                final JSONL feed byte-for-byte against an
#                uninterrupted batch run — at 1 AND 4 worker
#                processes (the kill must land mid-campaign); then
#                scenario_serve_soak's procs and kill-point sweep
#   lanes-equiv  lane-vs-serial equivalence suite (ctest -L lanes)
#                under the default lane count and AVF_LANES=1
#   golden       bench stdout vs tests/golden in a Release build: the
#                tier-1 `ctest -L golden` set (fig3_accuracy and
#                fig4_traces at one lane and the default lanes) plus
#                the slow fig2_propagation and ext_tlb_avf
#   all          tier1 + lint + tidy + ubsan + tsan (bench-smoke,
#                serve-smoke and golden are opt-in: each has its own
#                CI job)
#
# The avflint_repo test fails on any finding that is neither fixed
# nor suppressed inline with a justified `// avflint: allow(id)`.
set -eu

usage() {
    echo "usage: scripts/ci.sh [--stage tier1|lint|tidy|ubsan|tsan|bench-smoke|serve-smoke|lanes-equiv|golden|all] [build-dir]"
}

STAGE=all
BUILD=build
while [ $# -gt 0 ]; do
    case "$1" in
      --stage)
        if [ $# -lt 2 ]; then
            echo "ci.sh: --stage needs an argument" >&2
            usage >&2
            exit 2
        fi
        STAGE=$2
        shift 2
        ;;
      --stage=*)
        STAGE=${1#--stage=}
        shift
        ;;
      -h|--help)
        usage
        exit 0
        ;;
      -*)
        echo "ci.sh: unknown option '$1'" >&2
        usage >&2
        exit 2
        ;;
      *)
        BUILD=$1
        shift
        ;;
    esac
done

cd "$(dirname "$0")/.."

# ccache when available: repeated CI configures of the same tree
# become near-free. Harmless (empty) otherwise.
LAUNCHER=
if command -v ccache >/dev/null 2>&1; then
    LAUNCHER=-DCMAKE_CXX_COMPILER_LAUNCHER=ccache
fi

configure_and_build() {
    # $1 = build dir, rest = extra cmake args. $LAUNCHER is expanded
    # unquoted on purpose: it is one word or nothing.
    dir=$1
    shift
    cmake -B "$dir" -S . $LAUNCHER "$@"
    cmake --build "$dir" -j
}

run_tier1() {
    echo "=== tier1: configure + build + full test suite ==="
    configure_and_build "$BUILD"
    ctest --test-dir "$BUILD" --output-on-failure -j
}

run_lint() {
    echo "=== lint: avflint (unit tests + repo scan) ==="
    configure_and_build "$BUILD"
    # The repo scan runs twice: once as JSON for the CI annotations
    # and artifact, once human-readable via the avflint_repo ctest
    # gate below. The JSON pass goes first and tolerates findings
    # (exit 1) so the report file exists even on a red run — the
    # workflow uploads it with `if: always()`; any other exit is a
    # crash and fails right here.
    rc=0
    "$BUILD/tools/avflint/avflint" --root . --format=json \
        src tools bench tests > "$BUILD/LINT.json" || rc=$?
    if [ "$rc" -gt 1 ]; then
        echo "ci.sh: avflint --format=json failed (rc=$rc)" >&2
        exit "$rc"
    fi
    # Strict read side: rejects malformed JSON (exit 2) and gates on
    # the report's ok flag (exit 3 on any finding), so the emitter
    # cannot drift from the parser.
    "$BUILD/tools/avf-report/avf-report" lint "$BUILD/LINT.json"
    # Unit fixtures + the human-readable repo gate.
    ctest --test-dir "$BUILD" -L lint --output-on-failure
}

run_tidy() {
    echo "=== tidy: clang-tidy (skips when absent) ==="
    if [ ! -f "$BUILD/compile_commands.json" ]; then
        configure_and_build "$BUILD"
    fi
    scripts/run_clang_tidy.sh "$BUILD"
}

run_ubsan() {
    echo "=== ubsan: engine tests under -DAVF_SANITIZE=undefined ==="
    cmake -B "$BUILD-ubsan" -S . $LAUNCHER -DAVF_SANITIZE=undefined
    cmake --build "$BUILD-ubsan" -j --target avf_engine_tests
    ctest --test-dir "$BUILD-ubsan" -L engine --output-on-failure
}

run_tsan() {
    echo "=== tsan: engine + obs tests under -DAVF_SANITIZE=thread ==="
    cmake -B "$BUILD-tsan" -S . $LAUNCHER -DAVF_SANITIZE=thread
    cmake --build "$BUILD-tsan" -j \
        --target avf_engine_tests avf_metrics_tests
    ctest --test-dir "$BUILD-tsan" -L 'engine|obs' --output-on-failure
}

run_bench_smoke() {
    echo "=== bench-smoke: avf_micro --smoke (Release) ==="
    configure_and_build "$BUILD-bench" -DCMAKE_BUILD_TYPE=Release
    "$BUILD-bench/bench/micro/avf_micro" --smoke \
        --out "$BUILD-bench/BENCH_micro.json"
    echo "=== bench-smoke: metrics-enabled fig3_accuracy run ==="
    AVF_FAST=1 AVF_METRICS="$BUILD-bench/ci" \
        "$BUILD-bench/bench/fig3_accuracy" > /dev/null
    # The exports must at minimum be valid JSON carrying the schema
    # tag; avf-report round-trips the metrics side properly.
    "$BUILD-bench/tools/avf-report/avf-report" summary \
        "$BUILD-bench/ci_METRICS.json" > /dev/null
    "$BUILD-bench/tools/avf-report/avf-report" phases \
        "$BUILD-bench/ci_TRACE.json" --top 3 > /dev/null
    echo "bench-smoke: ci_METRICS.json + ci_TRACE.json round-trip ok"
    echo "=== bench-smoke: control-loop scenario (budget storm) ==="
    # One closed-loop scenario run with the decision trail exported;
    # `avf-report budget` must be able to render it.
    AVF_FAST=1 AVF_METRICS="$BUILD-bench/ci_control" \
        "$BUILD-bench/bench/scenario_budget_storm" > /dev/null
    "$BUILD-bench/tools/avf-report/avf-report" budget \
        "$BUILD-bench/ci_control_METRICS.json" --task controlled \
        > /dev/null
    echo "bench-smoke: control-loop decision trail round-trip ok"
    echo "=== bench-smoke: root-cause attribution scenario ==="
    # The hot-loop scenario exports ci_ROOTCAUSE.json; every
    # `avf-report root-cause` grouping must render it back.
    AVF_FAST=1 AVF_METRICS="$BUILD-bench/ci" \
        "$BUILD-bench/bench/scenario_root_cause" > /dev/null
    "$BUILD-bench/tools/avf-report/avf-report" root-cause \
        "$BUILD-bench/ci_ROOTCAUSE.json" --top 5 > /dev/null
    for BY in structure opcode phase; do
        "$BUILD-bench/tools/avf-report/avf-report" root-cause \
            "$BUILD-bench/ci_ROOTCAUSE.json" --by "$BY" > /dev/null
    done
    "$BUILD-bench/tools/avf-report/avf-report" root-cause \
        "$BUILD-bench/ci_ROOTCAUSE.json" --json > /dev/null
    echo "bench-smoke: ci_ROOTCAUSE.json round-trip ok"
    echo "=== bench-smoke: end-to-end benchmark (avfbench.py --smoke) ==="
    # Builds bench/e2e against this tree and replays every workload
    # once; exits nonzero unless each one reports correct (run ok,
    # digest matched), so a library change that breaks the ladder or
    # a digest fails here rather than at landing.
    python3 bench/e2e/avfbench.py --smoke
}

# Poll a status round-trip until the daemon in $1 answers (up to
# 60 s — a --resume restart finishes its campaigns before listening).
wait_for_daemon() {
    i=0
    while ! "$SERVE" status --dir "$1" > /dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 600 ]; then
            echo "ci.sh: daemon in $1 never answered" >&2
            exit 1
        fi
        sleep 0.1
    done
}

run_serve_smoke() {
    echo "=== serve-smoke: kill -9 + --resume vs uninterrupted batch ==="
    configure_and_build "$BUILD-serve" -DCMAKE_BUILD_TYPE=Release
    SERVE="$BUILD-serve/tools/avf-serve/avf-serve"
    REPORT="$BUILD-serve/tools/avf-report/avf-report"
    # The same campaign everywhere; m*n is sized so each of the 6
    # slices takes about a second. At 4 procs slices 0-3 run together
    # and 4-5 after them, so the SIGKILL below (sent once slice 0 is
    # durable) lands with a round of slices still to go; the stage
    # checks that it did.
    # --root-cause rides along so the byte-compares below also cover
    # the attribution rollup (feed row + checkpoint) across procs
    # and kill -9 + --resume.
    CAMPAIGN="--name smoke --benchmark bzip2 --intervals 12
              --slice-intervals 2 --m 20000 --n 400 --seed-salt 3
              --root-cause"
    for PROCS in 1 4; do
        echo "--- serve-smoke: $PROCS worker process(es) ---"
        STATE="$BUILD-serve/serve-state-$PROCS"
        REFDIR="$BUILD-serve/serve-ref-$PROCS"
        rm -rf "$STATE" "$REFDIR"
        mkdir -p "$STATE" "$REFDIR"
        # Uninterrupted reference run, no daemon involved.
        # $CAMPAIGN is expanded unquoted on purpose: it is a flag list.
        "$SERVE" batch --dir "$REFDIR" --procs "$PROCS" $CAMPAIGN
        # Daemon: submit over the socket, wait until at least one
        # slice is durable, then SIGKILL it mid-campaign.
        "$SERVE" serve --dir "$STATE" --procs "$PROCS" &
        DPID=$!
        wait_for_daemon "$STATE"
        "$SERVE" submit --dir "$STATE" $CAMPAIGN
        i=0
        while [ "$i" -lt 300 ]; do
            if grep -q '"slices_done":[1-9]' \
                "$STATE/smoke.ckpt.json" 2>/dev/null; then
                break
            fi
            i=$((i + 1)); sleep 0.1
        done
        kill -9 "$DPID" 2>/dev/null || true
        wait "$DPID" 2>/dev/null || true
        echo "serve-smoke: daemon killed; state at the kill instant:"
        "$REPORT" serve-status "$STATE"
        # A kill after the campaign finished would make the cmp below
        # pass without testing a resume at all.
        if ! grep -q '"complete":false' "$STATE/smoke.ckpt.json"; then
            echo "ci.sh: the kill did not land mid-campaign" >&2
            exit 1
        fi
        # Restart with --resume: the daemon finishes the campaign
        # before listening, so a status round-trip succeeding means
        # the resume is done. Drop the stale socket file first so
        # clients cannot connect to the corpse's address.
        rm -f "$STATE/serve.sock"
        "$SERVE" serve --dir "$STATE" --procs "$PROCS" --resume &
        DPID=$!
        wait_for_daemon "$STATE"
        "$SERVE" status --dir "$STATE"
        "$SERVE" shutdown --dir "$STATE"
        wait "$DPID"
        # The resumed feed must be byte-identical to the
        # uninterrupted reference, and still well-formed to the
        # reader.
        cmp "$STATE/smoke.feed.jsonl" "$REFDIR/smoke.feed.jsonl"
        "$REPORT" tail "$STATE/smoke.feed.jsonl" > /dev/null
        echo "serve-smoke: $PROCS-proc resumed feed byte-identical"
    done
    # Cross-shard identity: the 1- and 4-process reference runs must
    # agree byte-for-byte too.
    cmp "$BUILD-serve/serve-ref-1/smoke.feed.jsonl" \
        "$BUILD-serve/serve-ref-4/smoke.feed.jsonl"
    echo "serve-smoke: feeds byte-identical across shard counts"
    # Procs 1/2/4 identity plus a resume from every kill point; exits
    # 1 on any identity violation.
    rm -rf "$BUILD-serve/soak-state"
    "$BUILD-serve/bench/scenario_serve_soak" "$BUILD-serve/soak-state"
}

run_lanes_equiv() {
    echo "=== lanes-equiv: lane-vs-serial equivalence suite ==="
    configure_and_build "$BUILD"
    # Once under the default lane plane, once forced serial: the
    # equivalence tests compare lane results against the serial
    # baseline internally, and the env knob must not perturb either.
    ctest --test-dir "$BUILD" -L lanes --output-on-failure
    AVF_LANES=1 ctest --test-dir "$BUILD" -L lanes --output-on-failure
}

run_golden() {
    echo "=== golden: bench stdout vs tests/golden (Release) ==="
    configure_and_build "$BUILD-golden" -DCMAKE_BUILD_TYPE=Release
    ctest --test-dir "$BUILD-golden" -L golden --output-on-failure
    # Too slow for tier-1, and the only benches that drive the
    # propagation probe and the dTLB estimator.
    for BENCH in fig2_propagation ext_tlb_avf; do
        echo "--- golden: $BENCH ---"
        sh tests/golden/golden.sh check "$BUILD-golden/bench/$BENCH" \
            "tests/golden/$BENCH.default.txt" default
    done
}

case "$STAGE" in
  all)
    run_tier1
    run_lint
    run_tidy
    run_ubsan
    run_tsan
    ;;
  tier1|tier-1)
    run_tier1
    ;;
  lint)
    run_lint
    ;;
  tidy|clang-tidy)
    run_tidy
    ;;
  ubsan)
    run_ubsan
    ;;
  tsan)
    run_tsan
    ;;
  bench-smoke|bench)
    run_bench_smoke
    ;;
  serve-smoke|serve)
    run_serve_smoke
    ;;
  lanes-equiv|lanes)
    run_lanes_equiv
    ;;
  golden)
    run_golden
    ;;
  *)
    echo "ci.sh: unknown stage '$STAGE'" >&2
    usage >&2
    exit 2
    ;;
esac

echo "ci.sh: stage '$STAGE' green"
