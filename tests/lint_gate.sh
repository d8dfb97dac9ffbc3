#!/bin/sh
# The lint gate end to end: the built avflint and avf-report binaries
# over a one-file fixture that is written here, at test time (a
# finding-bearing file in the source tree would fail the repo scan).
#
#   lint_gate.sh <avflint> <avf-report> <scratch-dir>
#
# Checks the exit-status contract CI relies on: avflint exits 1 on
# any finding and 0 once an inline allow() covers it, avf-report lint
# exits 3 on a report with findings, and an unknown option is a
# usage error, exit 2.
set -eu

AVFLINT=$1
REPORT=$2
DIR=$3
rm -rf "$DIR"
mkdir -p "$DIR"

fail() {
    echo "lint_gate.sh: $*" >&2
    exit 1
}

# expect <status> <command...>: run the command with stdout in
# $DIR/out and stderr in $DIR/err; fail unless it exits <status>.
expect() {
    want=$1
    shift
    rc=0
    "$@" > "$DIR/out" 2> "$DIR/err" || rc=$?
    if [ "$rc" -ne "$want" ]; then
        cat "$DIR/out" "$DIR/err" >&2
        fail "'$*' exited $rc, expected $want"
    fi
}

printf 'int f() { return rand(); }\n' > "$DIR/x.cc"

# Text mode: the finding is printed and fails the run.
expect 1 "$AVFLINT" --root "$DIR" x.cc
grep -q '^x\.cc:1: \[determinism\]' "$DIR/out" ||
    fail "text report lacks 'x.cc:1: [determinism]'"

# JSON mode, replayed through the strict reader: exit 3, not ok.
expect 1 "$AVFLINT" --root "$DIR" --format=json x.cc
cp "$DIR/out" "$DIR/LINT.json"
expect 3 "$REPORT" lint "$DIR/LINT.json"
grep -q '^avflint: 1 finding(s) — FAIL$' "$DIR/out" ||
    fail "avf-report lint did not report the finding"

# An inline allow() is the one suppression: clean run, exit 0.
printf 'int f() { return rand(); } // avflint: allow(determinism) fixture\n' \
    > "$DIR/x.cc"
expect 0 "$AVFLINT" --root "$DIR" x.cc
if [ -s "$DIR/out" ]; then
    fail "a suppressed finding was printed"
fi
expect 0 "$AVFLINT" --root "$DIR" --format=json x.cc
cp "$DIR/out" "$DIR/LINT.json"
expect 0 "$REPORT" lint "$DIR/LINT.json"

# avflint has no debt ledger: --baseline is an unknown option.
expect 2 "$AVFLINT" --root "$DIR" --baseline f x.cc
grep -q "unknown option '--baseline'" "$DIR/err" ||
    fail "--baseline was not rejected as an unknown option"

echo "lint_gate.sh: ok"
