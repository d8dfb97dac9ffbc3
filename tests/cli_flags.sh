#!/bin/sh
# Numeric command-line flags end to end: the built avf-report and
# avf-serve over malformed and oversize flag values.
#
#   cli_flags.sh <avf-report> <avf-serve> <scratch-dir>
#
# Every numeric flag is parsed strictly: the whole string, inside its
# field's range. A bad value is a usage error (exit 1), never an
# uncaught exception (exit 134), a silently accepted prefix, or a
# value cut to size by a narrowing cast. avf-serve runs as `submit`
# against an empty state directory, so no daemon or campaign starts;
# a flag that got past validation would reach "cannot connect".
set -eu

REPORT=$1
SERVE=$2
DIR=$3
rm -rf "$DIR"
mkdir -p "$DIR/state"

fail() {
    echo "cli_flags.sh: $*" >&2
    exit 1
}

# expect <status> <stderr-pattern> <command...>: run the command with
# stdout in $DIR/out and stderr in $DIR/err; fail unless it exits
# <status> and stderr matches <pattern> (a fixed string; empty means
# any), or if it tried to reach a daemon.
expect() {
    want=$1
    pattern=$2
    shift 2
    rc=0
    "$@" > "$DIR/out" 2> "$DIR/err" || rc=$?
    if [ "$rc" -ne "$want" ]; then
        cat "$DIR/out" "$DIR/err" >&2
        fail "'$*' exited $rc, expected $want"
    fi
    if [ -n "$pattern" ] && ! grep -qF -- "$pattern" "$DIR/err"; then
        cat "$DIR/err" >&2
        fail "'$*' did not name '$pattern' on stderr"
    fi
    if grep -q 'cannot connect' "$DIR/err"; then
        fail "'$*' got past validation to the daemon"
    fi
}

# Flags are parsed before the input is read, so an empty document is
# enough: a rejected flag exits 1, an accepted one reaches the loader
# and exits 2 on the document.
printf '{}\n' > "$DIR/doc.json"

for CMD in phases root-cause; do
    for BAD in abc 99999999999999999999999 1x -1; do
        expect 1 "--top" "$REPORT" "$CMD" "$DIR/doc.json" --top "$BAD"
    done
    expect 2 "" "$REPORT" "$CMD" "$DIR/doc.json" --top 3
done
expect 1 "--max-polls" "$REPORT" tail "$DIR/doc.json" --max-polls 5x
expect 2 "" "$REPORT" tail "$DIR/doc.json" --max-polls 5

# Values too large for their CampaignSpec field are refused by name.
submit() {
    expect "$1" "$2" "$SERVE" submit --dir "$DIR/state" --name x \
        --benchmark mesa "$3" "$4"
}
submit 1 "--intervals" --intervals 4294967297
submit 1 "--n" --n 4294967396
submit 1 "--lanes" --lanes 4294967297
# A sign or a space is not part of a number.
submit 1 "usage:" --n +5
submit 1 "usage:" --n " 5"
# A value that fits its field reaches the protocol's range checks
# as typed.
submit 2 "intervals out of 1..1000000" --intervals 2147483647
submit 2 "lanes out of 0..64" --lanes 65

echo "cli_flags.sh: ok"
