#!/usr/bin/env bash
# The committed figures are the ledger of this reproduction's numbers
# (README, "Results at a glance"): regenerate sections with `gsim repro`
# and compare each output with the committed file of the same name, byte
# for byte. There is no tolerance: a changed number must be a diff in the
# change that causes it. Driven by `make results-check` and CI.
#
#   bash scripts/results_check.sh DIR SCALE [SECTION...]
#
# regenerates SECTION... (all 14 when none) at `--scale SCALE` and
# compares them with DIR/<section>.txt. Files are compared by name, so a
# subdirectory of DIR (results/scale1) or a stray file there is ignored.
set -euo pipefail

[ $# -ge 2 ] || { echo "usage: $0 DIR SCALE [SECTION...]" >&2; exit 2; }
DIR=$1
SCALE=$2
shift 2
GSIM=target/release/gsim
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$GSIM" repro --scale "$SCALE" -o "$WORK" "$@" > /dev/null

status=0
n=0
for new in "$WORK"/*.txt; do
    [ -e "$new" ] || break
    n=$((n + 1))
    name=$(basename "$new")
    if [ ! -f "$DIR/$name" ]; then
        echo "results-check: $DIR/$name is not committed" >&2
        status=1
    elif ! diff -u "$DIR/$name" "$new"; then
        echo "results-check: $DIR/$name differs from a fresh --scale $SCALE run" >&2
        status=1
    fi
done
[ "$n" -gt 0 ] || { echo "results-check: repro wrote no section" >&2; exit 1; }
[ "$status" -eq 0 ] && echo "results-check: $n section(s) of $DIR match at --scale $SCALE"
exit "$status"
