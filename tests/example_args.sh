#!/bin/sh
# Count arguments of the built examples end to end: a count that is
# not all digits, carries a junk suffix, or overflows its int is a
# usage error (exit 1, named on stderr) before any work starts.
#
#   example_args.sh <examples-bin-dir> <scratch-dir>
set -eu

BIN=$1
DIR=$2
rm -rf "$DIR"
mkdir -p "$DIR"

fail() {
    echo "example_args.sh: $*" >&2
    exit 1
}

# expect_usage <command...>: fail unless the command exits 1 and names
# the rejected count on stderr.
expect_usage() {
    rc=0
    "$@" > "$DIR/out" 2> "$DIR/err" || rc=$?
    if [ "$rc" -ne 1 ]; then
        cat "$DIR/out" "$DIR/err" >&2
        fail "'$*' exited $rc, expected 1"
    fi
    if ! grep -qF "wants an integer" "$DIR/err"; then
        cat "$DIR/err" >&2
        fail "'$*' did not name the bad count on stderr"
    fi
}

# Interval counts are ints: 99999999999 overflows them.
for BAD in abc 8x 99999999999; do
    for EX in quickstart adaptive_protection mttf_monitor \
              phase_explorer; do
        expect_usage "$BIN/$EX" mesa "$BAD"
    done
    expect_usage "$BIN/custom_machine" a.json b.json "$BAD"
    expect_usage "$BIN/trace_tools" run "$DIR/t.trace" "$BAD"
done
# An instruction count is 64-bit, so only junk is refused there.
for BAD in abc 8x 0; do
    expect_usage "$BIN/trace_tools" gen mesa "$DIR/t.trace" "$BAD"
done
if [ -e "$DIR/t.trace" ]; then
    fail "trace_tools gen wrote a trace for a rejected count"
fi

echo "example_args.sh: ok"
