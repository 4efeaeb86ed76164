#!/bin/sh
# Exit-code pinning for the mgrts CLI (see DESIGN.md §9): bad input and
# resource exhaustion must surface as a one-line "mgrts: ..." message and
# a stable nonzero code, never a crash dump.
#   0 decided   2 undecided   3 invalid input   4 hyperperiod overflow
set -u

MGRTS=$1
EXAMPLE=$2
MALFORMED=$3
OVERFLOW=$4
HUGE=$5

fail() {
  echo "test_cli: $1" >&2
  exit 1
}

expect() {
  want=$1
  label=$2
  shift 2
  "$MGRTS" "$@" >/dev/null 2>&1
  got=$?
  [ "$got" -eq "$want" ] || fail "$label: expected exit $want, got $got"
}

expect 0 "decided solve" solve "$EXAMPLE" -m 2 --quiet

# The analyzer alone: a certified refutation exits 0; the flow's schedule
# is verified and reported, but "not refuted" keeps exit 2.
expect 0 "analyze refutes" analyze "$EXAMPLE" -m 1
out=$("$MGRTS" analyze "$EXAMPLE" -m 2 2>&1)
got=$?
[ "$got" -eq 2 ] || fail "analyze, feasible: expected exit 2, got $got"
case "$out" in
*"statically feasible"*) ;;
*) fail "analyze, feasible: got '$out'" ;;
esac
expect 3 "m = 0" solve "$EXAMPLE" -m 0
expect 3 "malformed task set" solve "$MALFORMED" -m 2

# A missing input file used to escape as an uncaught Sys_error crash dump
# (or cmdliner's exit 124, depending on the path); it must be classified
# as invalid input like any other bad argument.
expect 3 "missing task-set file" solve /nonexistent/mgrts_no_such_file.txt -m 2
expect 3 "missing task-set file (analyze)" analyze /nonexistent/mgrts_no_such_file.txt -m 2

err=$("$MGRTS" solve /nonexistent/mgrts_no_such_file.txt -m 2 2>&1 >/dev/null)
case "$err" in
mgrts:*) ;;
*) fail "missing-file message: got '$err'" ;;
esac
expect 4 "hyperperiod overflow" solve "$OVERFLOW" -m 2
expect 4 "overflow reaches every reader" analyze "$OVERFLOW" -m 2
expect 3 "unknown failpoint site" solve "$EXAMPLE" -m 2 --failpoints bogus=raise:Out_of_memory

# T ≈ 1.6·10¹⁸: the simulator must refuse the first window up front
# (invalid input), not grow its grid until memory runs out.
(ulimit -v 1000000; "$MGRTS" simulate "$HUGE" -m 5 >/dev/null 2>&1)
got=$?
[ "$got" -eq 3 ] || fail "huge hyperperiod (simulate): expected exit 3, got $got"

# The same set is over the admission cap of 10⁸ window cells (n·T and m·T):
# the default solver, the portfolio, the analyzer and the DIMACS export
# refuse it before allocating anything, with one message.
for args in "solve" "solve --solver portfolio" "analyze" "dimacs"; do
  # shellcheck disable=SC2086 # $args holds several words on purpose
  err=$(ulimit -v 1000000; "$MGRTS" $args "$HUGE" -m 5 2>&1 >/dev/null)
  got=$?
  [ "$got" -eq 3 ] || fail "huge hyperperiod ($args): expected exit 3, got $got"
  case "$err" in
  mgrts:*"too large"*) ;;
  *) fail "huge hyperperiod ($args): got '$err'" ;;
  esac
done

# Injected single-arm crash: the race must still decide, exit 0.
expect 0 "portfolio survives one crash" \
  solve "$EXAMPLE" -m 2 --quiet --solver portfolio \
  --failpoints portfolio.arm_start=raise:Out_of_memory@1

# The messages are one-liners on stderr, prefixed for grepping.
err=$("$MGRTS" solve "$OVERFLOW" -m 2 2>&1 >/dev/null)
case "$err" in
mgrts:*overflow*) ;;
*) fail "overflow message: got '$err'" ;;
esac

err=$("$MGRTS" solve "$MALFORMED" -m 2 2>&1 >/dev/null)
case "$err" in
mgrts:*) ;;
*) fail "malformed-input message: got '$err'" ;;
esac

echo "cli exit codes ok"
