#!/bin/sh
# Analyze: the four cross-TU passes (the last four names smthill_lint
# lists, after the nine per-file rules) report nothing on the tree.
# Per-file rule findings are the Lint entry's concern; this entry
# fails only on a pass finding or on a linter error.
#
#   analyze_passes_test.sh SMTHILL_LINT <paths...>
set -u

lint=$1
shift

passes=$("$lint" list_rules=1 | tail -n 4)
if [ "$(printf '%s\n' "$passes" | grep -c .)" -ne 4 ]; then
    echo "Analyze: expected four pass names, got: $passes" >&2
    exit 1
fi

out=$("$lint" "$@")
code=$?
if [ "$code" -gt 1 ]; then
    echo "Analyze: smthill_lint exited $code" >&2
    exit 1
fi

status=0
for pass in $passes; do
    hits=$(printf '%s\n' "$out" | grep -F "[$pass]")
    if [ -n "$hits" ]; then
        printf '%s\n' "$hits" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "Analyze: clean ($(echo $passes))"
exit $status
