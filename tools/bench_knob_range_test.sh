#!/bin/sh
# BenchRejectsOutOfRangeKnobs: an out-of-range integer bench knob
# must end the bench with a fatal() that names the variable, before
# anything is simulated, instead of wrapping into another count
# (SMTHILL_OFFLINE_STRIDE=4294967297 would wrap to stride 1) or
# failing later without naming it (a stride of 200 exceeds half the
# 256 rename registers, so no two-thread split is left). The other
# knobs are scaled down so that a bench which wrongly runs still ends
# quickly.
#
#   bench_knob_range_test.sh BENCH_FIG07_HILLWIDTH
set -u

bench=$1
status=0

for value in 4294967297 2147483648 0 200; do
    err=$(SMTHILL_OFFLINE_STRIDE=$value SMTHILL_EPOCHS=1 \
          SMTHILL_EPOCH_SIZE=1024 SMTHILL_WARMUP=1024 SMTHILL_JOBS=1 \
          "$bench" 2>&1 >/dev/null)
    code=$?
    if [ "$code" -eq 0 ]; then
        echo "BenchRejectsOutOfRangeKnobs: SMTHILL_OFFLINE_STRIDE=$value exited 0" >&2
        status=1
    elif ! printf '%s\n' "$err" | grep -q "SMTHILL_OFFLINE_STRIDE='$value'"; then
        echo "BenchRejectsOutOfRangeKnobs: SMTHILL_OFFLINE_STRIDE=$value did not name the variable: $err" >&2
        status=1
    fi
done
exit $status
