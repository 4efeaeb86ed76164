#!/bin/sh
# Smoke test for the mgrts serve daemon: pipe a mixed NDJSON batch —
# solves, a cache hit, a malformed line, a structurally infeasible
# instance, a failpoint-armed request — through one daemon process and
# check that every request gets a well-formed response, the daemon
# never dies mid-batch, and EOF is a clean exit 0.
set -u

MGRTS=$1

# The CI failpoints matrix arms solver sites for the whole test run;
# this script owns its own injection (per-request, via --failpoints), so
# the environment arming must not leak into the daemon under test.
MGRTS_FAILPOINTS=
export MGRTS_FAILPOINTS

fail() {
  echo "test_serve: $1" >&2
  exit 1
}

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

{
  echo '{"id":"a","taskset":[[0,1,2,2],[1,3,4,4],[0,2,2,3]],"m":2}'
  echo '{"id":"b","taskset":[[0,2,2,3],[1,3,4,4],[0,1,2,2]],"m":2}'
  echo 'this is not json'
  echo '{"id":"over","taskset":[[0,2,2,2],[0,2,2,2],[0,2,2,2]],"m":2}'
  echo '{"id":"boom","taskset":[[0,1,2,2]],"m":1,"no_cache":true}'
  echo '{"id":"after","taskset":[[0,1,2,2]],"m":1,"no_cache":true}'
  echo '{"cmd":"stats"}'
} | "$MGRTS" serve --workers 1 --failpoints 'serve.request=raise:Out_of_memory@4' >"$OUT" 2>/dev/null
code=$?
[ "$code" -eq 0 ] || fail "daemon exit: expected 0, got $code"

# One JSON object per line, and every line is an object.
while IFS= read -r line; do
  case "$line" in
  {*}) ;;
  *) fail "non-JSON output line: $line" ;;
  esac
done <"$OUT"

has() {
  grep -q "$1" "$OUT" || fail "missing expected output: $1"
}

has '"id": "a", "status": "decided", "code": 0, "verdict": "feasible"'
# Same instance, reordered tasks: answered from the cache.
has '"id": "b", "status": "decided", "code": 0, "verdict": "feasible", "cached": true'
# The malformed line is answered (code 3) under a line-number fallback id.
has '"status": "error", "code": 3'
has '"id": "line-3"'
# Utilization > m: decided structurally, no search.
has '"id": "over", "status": "decided", "code": 0, "verdict": "infeasible"'
has '"solver": "front-door"'
# The armed failpoint fires on the 4th supervised request (a, b and
# over hit the scope first; --workers 1 pins that order): contained as
# that request's code-5 response...
has '"id": "boom", "status": "error", "code": 5'
# ...and the daemon keeps serving afterwards.
has '"id": "after", "status": "decided", "code": 0'
# Both the requested stats event and the final one are present.
[ "$(grep -c '"event": "stats"' "$OUT")" -ge 2 ] || fail "expected two stats events"
grep -q '"crashed": 1' "$OUT" || fail "final stats must count the contained crash"

# Responses for every request id, none lost.
for id in a b over boom after line-3; do
  grep -q "\"id\": \"$id\"" "$OUT" || fail "no response for request $id"
done

# T ≈ 1.6·10¹⁸, under a 1 GB address-space limit: the request must be
# refused as invalid input at once (over the admission cap, before
# anything is allocated), through the default solver and the portfolio
# alike, and the daemon must answer the next request.
HUGE_OUT=$(mktemp)
trap 'rm -f "$OUT" "$HUGE_OUT"' EXIT
HUGE_SET='[[0,1,1097,1097],[0,1,1093,1093],[0,1,1091,1091],[0,1,1087,1087],[0,1,1069,1069],[0,1,1063,1063]]'
{
  echo "{\"id\":\"huge\",\"taskset\":$HUGE_SET,\"m\":5}"
  echo "{\"id\":\"huge-portfolio\",\"taskset\":$HUGE_SET,\"m\":5,\"solver\":\"portfolio\"}"
  echo '{"id":"next","taskset":[[0,1,2,2]],"m":1}'
} | (ulimit -v 1000000; timeout 1 "$MGRTS" serve --workers 1) >"$HUGE_OUT" 2>/dev/null
code=$?
[ "$code" -eq 0 ] || fail "huge-hyperperiod daemon: expected exit 0 within a second, got $code"
for id in huge huge-portfolio; do
  grep -q "\"id\": \"$id\", \"status\": \"error\", \"code\": 3" "$HUGE_OUT" ||
    fail "huge hyperperiod ($id): expected code 3"
done
grep -q 'too large' "$HUGE_OUT" || fail "huge hyperperiod: expected the admission message"
grep -q '"id": "next", "status": "decided", "code": 0' "$HUGE_OUT" ||
  fail "no answer after the huge-hyperperiod request"

# The periodic stats line: one solve, then 0.3 s more of open input at a
# 0.05 s interval.  At least two periodic stats events besides the final
# one, and the final one is the last line.
STATS_OUT=$(mktemp)
trap 'rm -f "$OUT" "$HUGE_OUT" "$STATS_OUT"' EXIT
{
  echo '{"id":"tick","taskset":[[0,1,2,2]],"m":1}'
  sleep 0.3
} | "$MGRTS" serve --workers 1 --stats-every 0.05 >"$STATS_OUT" 2>/dev/null
code=$?
[ "$code" -eq 0 ] || fail "stats ticker daemon: expected exit 0, got $code"
grep -q '"id": "tick", "status": "decided", "code": 0' "$STATS_OUT" ||
  fail "stats ticker daemon: no answer for request tick"
[ "$(grep -c '"event": "stats"' "$STATS_OUT")" -ge 3 ] ||
  fail "expected at least two periodic stats events besides the final one"
tail -n 1 "$STATS_OUT" | grep -q '"event": "stats"' || fail "the last line must be the final stats event"

echo "serve smoke ok"
