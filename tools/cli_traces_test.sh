#!/bin/sh
# CliTraces: drive every trace export of one tiny smthill_cli run and
# check each artifact's shape, then summarize the event trace with
# smthill_trace_report.
#
#   cli_traces_test.sh SMTHILL_CLI SMTHILL_TRACE_REPORT OUT_DIR
set -eu

cli=$1
report=$2
out=$3
mkdir -p "$out"

run="workload=art-mcf policy=hill-wipc epochs=6 epoch_size=4096"
run="$run warmup=20000 solo_epochs=2"

fail() {
    echo "CliTraces: $*" >&2
    exit 1
}

# shellcheck disable=SC2086 # $run is a word list on purpose
"$cli" $run epoch_trace="$out/epochs.json" event_trace="$out/events.json" \
    trace=16 >"$out/stdout.txt"
# shellcheck disable=SC2086
"$cli" $run epoch_trace="$out/epochs.csv" >/dev/null
# shellcheck disable=SC2086
"$cli" $run profile=1 profile_json="$out/profile.json" \
    event_trace="$out/prof.json" >/dev/null
# shellcheck disable=SC2086
"$cli" $run profile=1 >"$out/profile.txt"

grep -q '"schema": "smthill.epoch-trace.v1"' "$out/epochs.json" ||
    fail "epochs.json is not an epoch-trace document"
[ "$(grep -c '"metric_value"' "$out/epochs.json")" -eq 6 ] ||
    fail "epochs.json does not hold 6 epoch records"
[ "$(wc -l <"$out/epochs.csv")" -eq 7 ] ||
    fail "epochs.csv is not a header plus 6 rows"
grep -q '"metric_value"' "$out/events.json" ||
    fail "the events.v1 epoch slices carry no epoch record"

# With profile=1 the event trace carries the host spans as complete
# ("X") events of the host-profiler process, pid 2000.
awk '/^ *\{/ { ph = "" } /"ph": "X"/ { ph = "X" }
     /"pid": 2000,/ && ph == "X" { found = 1 }
     END { exit !found }' "$out/prof.json" ||
    fail "prof.json holds no complete event under pid 2000"
grep -q '"schema": "smthill.profile.v1"' "$out/profile.json" ||
    fail "profile.json is not a profile document"
# Without profile_json= the report is the stdout span table that the
# benches print too.
grep -q '^  span  *count  *total_ms  *self_ms  *max_ms$' \
    "$out/profile.txt" ||
    fail "profile=1 printed no span table with a max_ms column"

grep -q '^last 16 pipeline events:$' "$out/stdout.txt" ||
    fail "no trace=16 block on stdout"
[ "$(grep -c ' inst/inst\.' "$out/stdout.txt")" -eq 16 ] ||
    fail "the trace=16 block does not list 16 inst.* events"

"$report" summarize "$out/events.json" >"$out/summary.txt"
grep -q 'epoch latency' "$out/summary.txt" ||
    fail "summarize printed no epoch latency table"
if grep -q 'unknown event name' "$out/summary.txt"; then
    fail "summarize found uncatalogued events"
fi
echo "CliTraces: ok"
