#!/usr/bin/env bash
# CI smoke test for the design-as-a-service path (tools/dmm_serve +
# examples/dmm_client).  Asserts the ISSUE acceptance criteria end to end:
#
#   1. two concurrent dmm_client requests return bit-identical bests to
#      the equivalent library call (dmm_client --local),
#   2. a warm follow-up request is served from cross-search cache hits,
#   3. a cancelled request exits 3 without disturbing the survivor,
#   4. the daemon exits 0 on --shutdown and saves its cache snapshot,
#      which serves persisted hits to a restarted daemon,
#   5. the cache entry count never exceeds the configured bound (run
#      again with a tiny bound and check evictions kicked in).
#
# usage: tools/serve_smoke.sh [BUILD_DIR]   (default: build)

set -euo pipefail

BUILD=${1:-build}
SERVE="$BUILD/tools/dmm_serve"
CLIENT="$BUILD/examples/dmm_client"
WORK=$(mktemp -d)
SOCK="$WORK/dmm.sock"
CACHE="$WORK/dmm.cache"
SERVE_PID=""

cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  echo "--- daemon log ---" >&2
  cat "$WORK/serve.log" >&2 || true
  exit 1
}

wait_for_socket() {
  for _ in $(seq 100); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  fail "daemon never bound $SOCK"
}

start_daemon() {
  "$SERVE" --socket "$SOCK" --cache-file "$CACHE" "$@" \
    > "$WORK/serve.log" 2>&1 &
  SERVE_PID=$!
  wait_for_socket
}

stop_daemon() {
  "$CLIENT" --socket "$SOCK" --shutdown > /dev/null
  wait "$SERVE_PID" || fail "daemon exited non-zero"
  SERVE_PID=""
}

# The request every client below submits (small enough to finish in
# seconds, big enough to cover several scheduler slices).
REQ=(--search greedy --seed 1 --max-events 5000 --quiet)

# Reference: the library path, same binary, same flags.
"$CLIENT" --local "${REQ[@]}" > "$WORK/local.out"
grep -v '^cost\|^daemon cache' "$WORK/local.out" > "$WORK/local.best"

echo "serve_smoke: cold daemon, two concurrent clients + one cancelled"
start_daemon --max-entries 64 --slice 4
# Two identical requests race; a third long request gets cancelled after
# its first progress beat and must not disturb them.  It is the exhaustive
# validator over the uncapped DRR trace: every candidate replays 159k
# events, so a 4-evaluation slice outlasts the cancel's round trip and the
# enumeration cannot finish first; small slices let the cancel land before
# the candidates that replay for seconds.
"$CLIENT" --socket "$SOCK" "${REQ[@]}" > "$WORK/c1.out" &
C1=$!
"$CLIENT" --socket "$SOCK" "${REQ[@]}" > "$WORK/c2.out" &
C2=$!
set +e
"$CLIENT" --socket "$SOCK" --quiet --cancel-after 1 \
  --search exhaustive --seed 1 > "$WORK/c3.out" \
  2> "$WORK/c3.err"
C3_RC=$?
set -e
wait "$C1" || fail "concurrent client 1 exited non-zero"
wait "$C2" || fail "concurrent client 2 exited non-zero"
[ "$C3_RC" -eq 3 ] || fail "cancelled client exited $C3_RC, want 3"
grep -q "cancelled by client" "$WORK/c3.err" \
  || fail "cancelled client did not report cancellation"

for c in c1 c2; do
  grep -v '^cost\|^daemon cache' "$WORK/$c.out" > "$WORK/$c.best"
  diff -u "$WORK/local.best" "$WORK/$c.best" \
    || fail "$c best differs from the library path"
done

# A warm follow-up request replays nothing: every score is a cache hit,
# reused across searches from the two clients above.
"$CLIENT" --socket "$SOCK" "${REQ[@]}" > "$WORK/warm.out"
grep -v '^cost\|^daemon cache' "$WORK/warm.out" > "$WORK/warm.best"
diff -u "$WORK/local.best" "$WORK/warm.best" \
  || fail "warm best differs from the library path"
grep -q 'cost: [0-9]* evaluations = 0 replays' "$WORK/warm.out" \
  || fail "warm request replayed traces instead of hitting the cache"
if grep -q '(0 cross-search' "$WORK/warm.out"; then
  fail "warm request reported zero cross-search hits"
fi

ENTRIES=$(sed -n 's/^daemon cache: \([0-9]*\) entries.*/\1/p' "$WORK/warm.out")
[ -n "$ENTRIES" ] || fail "no cache entry count in warm reply"
[ "$ENTRIES" -le 64 ] || fail "cache holds $ENTRIES entries, bound is 64"
[ "$ENTRIES" -gt 0 ] || fail "cache is empty after three requests"

stop_daemon
[ -s "$CACHE" ] || fail "shutdown did not save a cache snapshot"

echo "serve_smoke: warm restart serves persisted hits"
start_daemon --max-entries 64
"$CLIENT" --socket "$SOCK" "${REQ[@]}" > "$WORK/persisted.out"
grep -q '(0 cross-search' "$WORK/persisted.out" \
  || fail "restarted daemon reported cross-search hits, want persisted only"
if grep -q ', 0 persisted)' "$WORK/persisted.out"; then
  fail "restarted daemon reported zero persisted hits"
fi
stop_daemon

echo "serve_smoke: tiny bound forces evictions, bound still holds"
rm -f "$CACHE"
start_daemon --max-entries 4
"$CLIENT" --socket "$SOCK" "${REQ[@]}" > "$WORK/tiny.out"
TINY=$(sed -n 's/^daemon cache: \([0-9]*\) entries.*/\1/p' "$WORK/tiny.out")
EVICT=$(sed -n 's/^daemon cache: .* entries, \([0-9]*\) evictions/\1/p' \
  "$WORK/tiny.out")
[ -n "$TINY" ] && [ "$TINY" -le 4 ] \
  || fail "bounded cache holds ${TINY:-?} entries, bound is 4"
[ -n "$EVICT" ] && [ "$EVICT" -gt 0 ] \
  || fail "bound 4 never evicted (evictions=${EVICT:-?})"
grep -v '^cost\|^daemon cache' "$WORK/tiny.out" > "$WORK/tiny.best"
diff -u "$WORK/local.best" "$WORK/tiny.best" \
  || fail "best under eviction differs from the library path"
stop_daemon

echo "serve_smoke: PASS"
