#!/bin/sh
# CliRejectsZeroSizes: epochs=0, epoch_size=0 and solo_epochs=0 must
# each end smthill_cli with a fatal() that names the option, in
# single-run and in grid mode, before anything is simulated.
#
#   cli_zero_sizes_test.sh SMTHILL_CLI
set -u

cli=$1
status=0

for mode in "workload=art-mcf policy=icount" \
            "workload=art-mcf,fma3d-gcc policy=icount jobs=1"; do
    for opt in epochs epoch_size solo_epochs; do
        # shellcheck disable=SC2086 # $mode is a word list on purpose
        err=$("$cli" $mode warmup=1000 "$opt=0" 2>&1 >/dev/null)
        code=$?
        if [ "$code" -ne 1 ]; then
            echo "CliRejectsZeroSizes: '$mode $opt=0' exited $code, not 1" >&2
            status=1
        elif ! printf '%s\n' "$err" | grep -q "fatal: $opt must be positive"; then
            echo "CliRejectsZeroSizes: '$mode $opt=0' did not name $opt: $err" >&2
            status=1
        fi
    done
done
exit $status
