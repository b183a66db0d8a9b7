#!/bin/sh
# One-shot hardening matrix (ROADMAP.md): every gate the PR
# acceptance bar cares about, driven from a clean shell and
# summarized per stage at the end.
#
# Usage: check_all.sh [source-dir]
#
# Stages:
#   tier1    default build + full ctest suite
#   werror   -DSMTHILL_WERROR=ON build (warnings are errors)
#   lint     smthill_lint rules and cross-TU passes over the tree
#            (ctest -R Lint)
#   tidy     clang-tidy wrapper (skips without clang-tidy)
#   asan     -DSMTHILL_SANITIZE=address build + FuzzSmoke + the
#            ROADMAP ASan suites
#   tsan     -DSMTHILL_SANITIZE=thread build + parallel suites
#   benchdiff  report-only perf diff of bench/BENCH_sim_speed.json
#              against a fresh bench_sim_speed run (never fails the
#              matrix; refresh the baseline when it legitimately moves)
#
# Every stage runs even after a failure; the exit status is nonzero
# iff any stage (other than an explicit skip) failed. Build trees are
# reused across invocations (build/, build-werror/, build-asan/,
# build-tsan/).

set -u

SRC_DIR=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
JOBS=$(nproc 2> /dev/null || echo 4)

RESULTS=""
OVERALL=0

record()
{
    # record <stage> <status>: 0 pass, 77 skip, else fail
    case $2 in
        0)  RESULTS="$RESULTS$1: PASS\n" ;;
        77) RESULTS="$RESULTS$1: SKIP\n" ;;
        *)  RESULTS="$RESULTS$1: FAIL (exit $2)\n"; OVERALL=1 ;;
    esac
}

stage_build()
{
    # stage_build <build-dir> <cmake-args...>
    dir=$1
    shift
    cmake -B "$dir" -S "$SRC_DIR" "$@" > /dev/null &&
        cmake --build "$dir" -j "$JOBS"
}

echo "== tier1: default build + full test suite =="
stage_build "$SRC_DIR/build" &&
    (cd "$SRC_DIR/build" && ctest --output-on-failure -j "$JOBS")
record tier1 $?

echo "== werror: warnings-as-errors build =="
stage_build "$SRC_DIR/build-werror" -DSMTHILL_WERROR=ON
record werror $?

echo "== lint: project rules and cross-TU passes over the tree =="
(cd "$SRC_DIR/build" && ctest --output-on-failure -R '^Lint')
record lint $?

echo "== tidy: clang-tidy wrapper =="
"$SRC_DIR/tools/run_clang_tidy.sh" "$SRC_DIR" "$SRC_DIR/build"
record tidy $?

echo "== asan: address-sanitized fuzz smoke + tests =="
# The ROADMAP's ASan suite regex (observability/export, churn,
# bandit/RL, golden learner digests, run() fast-forward, commit
# adoption, solo-reference fan-out, env knobs, grid lane cap) plus
# the fuzz smoke and the CLI-trace and bench-knob scripts.
ASAN_SUITES='Json|StatRegistry|EpochTracer|EventTrace|TraceReport'
ASAN_SUITES="$ASAN_SUITES|MachineReport|Observability|Profile|Snapshot"
ASAN_SUITES="$ASAN_SUITES|BenchDiff|HillMeasurement|HillBootstrap"
ASAN_SUITES="$ASAN_SUITES|PartitionMoves|OpenSystem|HillClimbingChurn"
ASAN_SUITES="$ASAN_SUITES|ChurnRefeasibility|Bandit|RlAlloc|LearnerGolden"
ASAN_SUITES="$ASAN_SUITES|CpuFastForward|OfflineCommit|SoloIpcs|EnvScale"
ASAN_SUITES="$ASAN_SUITES|RunGrid"
stage_build "$SRC_DIR/build-asan" -DSMTHILL_SANITIZE=address &&
    (cd "$SRC_DIR/build-asan" &&
     ctest --output-on-failure -j "$JOBS" \
           -R "$ASAN_SUITES|FuzzSmoke|TsanFixture|CliTraces|BenchRejects")
record asan $?

echo "== tsan: thread-sanitized parallel suites =="
# Offline|RandHill: the learners' best-trial keeper is shared by the
# sweep's workers; SoloIpcs: the fanned-out solo references; RunGrid:
# the grid's lane cap.
stage_build "$SRC_DIR/build-tsan" -DSMTHILL_SANITIZE=thread &&
    (cd "$SRC_DIR/build-tsan" &&
     ctest --output-on-failure -j "$JOBS" \
           -R 'ThreadPool|ParallelDeterminism|TsanFixture|FuzzSmoke|Offline|RandHill|SoloIpcs|RunGrid')
record tsan $?

echo "== benchdiff: report-only perf diff vs the tracked baseline =="
# Report-only by design: microbenchmark numbers shift with host load,
# so the gate informs here and blocks only when run by hand. A fast
# run (min_time 0.05) is plenty to catch a 2x cliff.
if [ -x "$SRC_DIR/build/bench/bench_sim_speed" ] &&
       [ -x "$SRC_DIR/build/tools/smthill_bench_diff" ]; then
    BENCH_NOW=$SRC_DIR/build/bench_sim_speed_now.json
    SMTHILL_STATS_JSON="$BENCH_NOW" \
        "$SRC_DIR/build/bench/bench_sim_speed" \
        --benchmark_min_time=0.05 > /dev/null 2>&1 &&
        "$SRC_DIR/build/tools/smthill_bench_diff" \
            "$SRC_DIR/bench/BENCH_sim_speed.json" "$BENCH_NOW"
    echo "(benchdiff is report-only; refresh bench/BENCH_sim_speed.json"
    echo " when a deliberate perf change moves the baseline)"
    record benchdiff 0
else
    record benchdiff 77
fi

echo
echo "== hardening matrix =="
# shellcheck disable=SC2059
printf "$RESULTS"
exit $OVERALL
