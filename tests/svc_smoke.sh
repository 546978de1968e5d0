#!/usr/bin/env bash
# End-to-end smoke test for the allocation service: start alloc_serve on a
# Unix socket with tracing and periodic metrics snapshots, submit the same
# problem twice through alloc_client (the second submission must be served
# from the canonical-instance cache), check the stats counters, scrape the
# metrics verb in Prometheus text format, inspect a finished request and
# replay its flight-recorder records through the dump verb, probe the
# structured error answers (unknown verb / unknown id -> exit 3 with a
# machine-readable "code"), refuse hostile submits (threads:1000000, a
# system line past alloc::kMaxEcus) while staying up, force a deadline miss on a slow instance and
# check its post-mortem flight dump, shut the daemon down gracefully,
# validate the emitted trace with the schema checker, and reconstruct the
# requests with trace_report (spans must balance; the trace must not be
# truncated — its last event must be the shutdown's "service_stop"; the
# deadline miss must have left a flight_dump with the final search_sample).
#
# On top of that: open an incremental session and revise it (so guard and
# dead-guard gauges are live), let the sampler feed the time-series rings,
# pull a latency quantile series back through the query verb, and render
# one alloc_top dashboard frame whose arena / cache / dead-guard readings
# must be non-zero while the session is still open.
#
# usage: svc_smoke.sh ALLOC_SERVE ALLOC_CLIENT SCHEMA_CHECK TRACE_REPORT PROBLEM WORKDIR EXPORT_WORKLOAD ALLOC_TOP
set -u

SERVE="$1"
CLIENT="$2"
SCHEMA_CHECK="$3"
TRACE_REPORT="$4"
PROBLEM="$5"
WORKDIR="$6"
EXPORT="$7"
TOP="$8"

fail() { echo "svc_smoke: FAIL: $*" >&2; exit 1; }

mkdir -p "$WORKDIR" || fail "cannot create $WORKDIR"
SOCK="$WORKDIR/svc_smoke.sock"
TRACE="$WORKDIR/svc_smoke_trace.jsonl"
LOG="$WORKDIR/svc_smoke_server.log"
rm -f "$SOCK" "$TRACE" "$LOG"

"$SERVE" --socket "$SOCK" --workers 2 --trace "$TRACE" \
         --metrics-interval 0.2 >"$LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null' EXIT

# Wait for the listening socket to appear.
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$LOG" >&2; fail "server died during startup"; }
  sleep 0.1
done
[ -S "$SOCK" ] || fail "socket $SOCK never appeared"

# First submission: solved fresh, must end proven optimal.
FIRST=$("$CLIENT" --socket "$SOCK" submit "$PROBLEM" sum-trt --wait)
RC=$?
echo "first:  $FIRST"
[ $RC -eq 0 ] || fail "first submit exited $RC"
case "$FIRST" in
  *'"ok":true'*'"state":"done"'*'"status":"optimal"'*) ;;
  *) fail "first response not a proven optimum: $FIRST" ;;
esac
case "$FIRST" in
  *'"cached":false'*) ;;
  *) fail "first response unexpectedly cached: $FIRST" ;;
esac

# Second submission of the identical instance: canonical cache hit.
SECOND=$("$CLIENT" --socket "$SOCK" submit "$PROBLEM" sum-trt --wait)
RC=$?
echo "second: $SECOND"
[ $RC -eq 0 ] || fail "second submit exited $RC"
case "$SECOND" in
  *'"cached":true'*) ;;
  *) fail "second response was not served from the cache: $SECOND" ;;
esac

STATS=$("$CLIENT" --socket "$SOCK" stats) || fail "stats verb failed"
echo "stats:  $STATS"
case "$STATS" in
  *'"cache_hits":1'*) ;;
  *) fail "expected exactly one cache hit in $STATS" ;;
esac

# Metrics verb: the raw snapshot must be well-formed JSON with histogram
# entries, and --prom must render scrapeable Prometheus text exposition.
METRICS=$("$CLIENT" --socket "$SOCK" metrics) || fail "metrics verb failed"
case "$METRICS" in
  *'"ok":true'*'"svc.request_ms"'*'"kind":"histogram"'*) ;;
  *) fail "metrics response lacks the request-latency histogram: $METRICS" ;;
esac
PROM=$("$CLIENT" --socket "$SOCK" metrics --prom) || fail "metrics --prom failed"
case "$PROM" in
  *'# TYPE svc_request_ms histogram'*) ;;
  *) fail "prometheus output lacks the svc_request_ms histogram" ;;
esac
case "$PROM" in
  *'svc_request_ms_bucket{le="+Inf"} 2'*) ;;
  *) fail "prometheus request histogram does not count both requests" ;;
esac
case "$PROM" in
  *'svc_request_ms_p95 '*) ;;
  *) fail "prometheus output lacks histogram quantile gauges" ;;
esac

# --- Live introspection + flight-recorder replay ------------------------

FIRST_ID=$(printf '%s\n' "$FIRST" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$FIRST_ID" ] || fail "cannot extract request id from $FIRST"

# inspect: the finished job reports its terminal phase plus the answer.
INSPECT=$("$CLIENT" --socket "$SOCK" inspect "$FIRST_ID") \
  || fail "inspect verb failed"
echo "inspect: $INSPECT"
case "$INSPECT" in
  *'"ok":true'*'"phase":"finished"'*'"status":"optimal"'*) ;;
  *) fail "inspect response malformed: $INSPECT" ;;
esac

# dump ID: the flight recorder replays that request's solve records even
# though nothing crashed.
DUMP=$("$CLIENT" --socket "$SOCK" dump "$FIRST_ID") || fail "dump verb failed"
case "$DUMP" in
  *'"ok":true'*'"events":['*'"type":"solve"'*) ;;
  *) fail "flight dump lacks the request's solve records: $DUMP" ;;
esac

# --- Structured protocol errors -----------------------------------------

# Unknown verb: {"ok":false,...,"code":"unknown_verb"}, client exit 3.
RAW=$("$CLIENT" --socket "$SOCK" raw '{"verb":"frobnicate"}')
RC=$?
[ $RC -eq 3 ] || fail "unknown verb exited $RC (want 3): $RAW"
case "$RAW" in
  *'"code":"unknown_verb"'*) ;;
  *) fail "unknown-verb reply lacks the machine-readable code: $RAW" ;;
esac

# Unknown request id on dump: same contract, code "unknown_id".
BADID=$("$CLIENT" --socket "$SOCK" dump nosuchid)
RC=$?
[ $RC -eq 3 ] || fail "dump of unknown id exited $RC (want 3): $BADID"
case "$BADID" in
  *'"code":"unknown_id"'*) ;;
  *) fail "unknown-id reply lacks the machine-readable code: $BADID" ;;
esac

# --- Hostile submits ------------------------------------------------------

# A thread count far beyond the one-thread-per-request contract must be
# refused at the protocol layer (code "bad_request", client exit 3).
HUGE=$("$CLIENT" --socket "$SOCK" raw \
       '{"verb":"submit","problem":"system 2\n","threads":1000000}')
RC=$?
[ $RC -eq 3 ] || fail "threads:1000000 submit exited $RC (want 3): $HUGE"
case "$HUGE" in
  *'"code":"bad_request"'*) ;;
  *) fail "threads:1000000 reply lacks code bad_request: $HUGE" ;;
esac

# A system line one past alloc::kMaxEcus (1024) must be refused before
# anything is allocated for it (code "bad_problem", client exit 3).
printf 'system 1025\n' >"$WORKDIR/too_many_ecus.prob"
BIG=$("$CLIENT" --socket "$SOCK" submit "$WORKDIR/too_many_ecus.prob" sum-trt)
RC=$?
[ $RC -eq 3 ] || fail "oversized system submit exited $RC (want 3): $BIG"
case "$BIG" in
  *'"code":"bad_problem"'*) ;;
  *) fail "oversized system reply lacks code bad_problem: $BIG" ;;
esac

# The daemon still answers a normal submit afterwards.
AGAIN=$("$CLIENT" --socket "$SOCK" submit "$PROBLEM" sum-trt --wait)
RC=$?
[ $RC -eq 0 ] || fail "submit after hostile requests exited $RC: $AGAIN"
case "$AGAIN" in
  *'"ok":true'*'"status":"optimal"'*) ;;
  *) fail "submit after hostile requests not answered: $AGAIN" ;;
esac

# --- Forced deadline miss: anytime answer + post-mortem flight dump -----

"$EXPORT" tindell:30 >"$WORKDIR/slow.prob" || fail "export_workload failed"
MISS=$("$CLIENT" --socket "$SOCK" submit "$WORKDIR/slow.prob" trt:0 \
       --deadline 1500 --wait)
RC=$?
echo "miss:   $MISS"
# Exit 4 = terminal answer that is feasible but not proven optimal.
[ $RC -eq 4 ] || fail "deadline-missed submit exited $RC (want 4): $MISS"
case "$MISS" in
  *'"deadline_expired":true'*) ;;
  *) fail "deadline-missed answer not flagged: $MISS" ;;
esac
MISS_ID=$(printf '%s\n' "$MISS" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$MISS_ID" ] || fail "cannot extract request id from $MISS"
MISS_DUMP=$("$CLIENT" --socket "$SOCK" dump "$MISS_ID") \
  || fail "dump after deadline miss failed"
case "$MISS_DUMP" in
  *'"type":"search_sample"'*) ;;
  *) fail "post-mortem dump lacks the final search_sample: $MISS_DUMP" ;;
esac

# --- Capacity telemetry: query verb + alloc_top dashboard ---------------

# Open a session and run a feasible revise: the warm solver keeps its
# clause arena alive (sat.arena.bytes) and the revise retires at least
# one constraint guard (inc.dead_guards).
OPEN=$("$CLIENT" --socket "$SOCK" session-open "$PROBLEM" sum-trt) \
  || fail "session-open failed"
SESSION=$(printf '%s\n' "$OPEN" | sed -n 's/.*"session":"\([^"]*\)".*/\1/p')
[ -n "$SESSION" ] || fail "cannot extract session id from $OPEN"
"$CLIENT" --socket "$SOCK" revise "$SESSION" \
  '[{"op":"set_deadline","task":"monitor","deadline":140}]' >/dev/null \
  || fail "revise failed"

# Give the 0.2 s sampler time to take at least two ticks.
sleep 0.6

# Catalogue mode: the rings must include the capacity gauges.
CATALOGUE=$("$CLIENT" --socket "$SOCK" query) || fail "query verb failed"
case "$CATALOGUE" in
  *'"metric":"sat.arena.bytes"'*) ;;
  *) fail "query catalogue lacks sat.arena.bytes: $CATALOGUE" ;;
esac

# Series mode: the revise-latency p99 must have >= 2 samples, each a
# [unix_ms, value] pair stamped within the last minute.
SERIES=$("$CLIENT" --socket "$SOCK" query svc.revise_ms.p99 --last 60) \
  || fail "query series failed"
echo "series: $SERIES"
COUNT=$(printf '%s\n' "$SERIES" | sed -n 's/.*"count":\([0-9]*\).*/\1/p')
[ -n "$COUNT" ] && [ "$COUNT" -ge 2 ] \
  || fail "expected >= 2 samples of svc.revise_ms.p99, got: $SERIES"
NOW_MS=$(($(date +%s) * 1000))
FIRST_TS=$(printf '%s\n' "$SERIES" | sed -n 's/.*"samples":\[\[\([0-9]*\),.*/\1/p')
[ -n "$FIRST_TS" ] || fail "cannot extract sample timestamp from $SERIES"
[ $((NOW_MS - FIRST_TS)) -lt 60000 ] && [ "$FIRST_TS" -le $((NOW_MS + 5000)) ] \
  || fail "sample timestamp $FIRST_TS not within a minute of now $NOW_MS"

# One dashboard frame while the session (and its warm solver) is live:
# arena bytes, cache occupancy and the dead-guard count must be non-zero.
FRAME=$("$TOP" --once --socket "$SOCK") || fail "alloc_top --once failed"
printf '%s\n' "$FRAME"
ARENA=$(printf '%s\n' "$FRAME" | sed -n 's/^arena *bytes=\([0-9]*\).*/\1/p')
[ -n "$ARENA" ] && [ "$ARENA" -gt 0 ] \
  || fail "alloc_top reports no arena bytes: $FRAME"
CACHEB=$(printf '%s\n' "$FRAME" | sed -n 's/^cache .*bytes=\([0-9]*\).*/\1/p')
[ -n "$CACHEB" ] && [ "$CACHEB" -gt 0 ] \
  || fail "alloc_top reports no cache bytes: $FRAME"
DEAD=$(printf '%s\n' "$FRAME" | sed -n 's/.*dead=\([0-9]*\) .*/\1/p')
[ -n "$DEAD" ] && [ "$DEAD" -ge 1 ] \
  || fail "alloc_top reports no dead guards: $FRAME"
printf '%s\n' "$FRAME" | grep -q '^p99_ms' \
  || fail "alloc_top frame lacks the p99 series row: $FRAME"
printf '%s\n' "$FRAME" | grep -q 'uptime=' \
  || fail "alloc_top frame lacks uptime: $FRAME"

"$CLIENT" --socket "$SOCK" session-close "$SESSION" >/dev/null \
  || fail "session-close failed"

# Let at least one periodic metrics_snapshot trace event fire.
sleep 0.4

# Graceful shutdown: daemon acknowledges, drains, exits 0, unlinks socket.
"$CLIENT" --socket "$SOCK" shutdown >/dev/null || fail "shutdown verb failed"
SERVER_RC=1
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    wait "$SERVER_PID"
    SERVER_RC=$?
    break
  fi
  sleep 0.1
done
trap - EXIT
[ $SERVER_RC -eq 0 ] || { cat "$LOG" >&2; fail "server exited $SERVER_RC"; }
[ ! -e "$SOCK" ] || fail "socket file not cleaned up"

# The trace must validate against the event schema (service census rules,
# span balance, request attribution of solver events).
"$SCHEMA_CHECK" "$TRACE" || fail "trace schema validation failed"

# trace_truncated guard: a graceful drain flushes and closes the sink, so
# the file must end with the scheduler's final "service_stop" event — a
# truncated tail (lost ofstream buffer) cannot contain it.
tail -n 1 "$TRACE" | grep -q '"type":"service_stop"' \
  || fail "trace truncated: last event is not service_stop"
grep -q '"type":"metrics_snapshot"' "$TRACE" \
  || fail "no periodic metrics_snapshot event in trace"

# The deadline miss must have emitted a flight-recorder post-mortem into
# the trace, embedding the request's ring contents.
grep -q '"type":"flight_dump"' "$TRACE" \
  || fail "no flight_dump post-mortem event in trace"

# trace_report must reconstruct every completed request into a balanced
# span tree with phase timings.
REPORT=$("$TRACE_REPORT" --json "$TRACE") || fail "trace_report found unbalanced spans"
echo "report: $REPORT"
case "$REPORT" in
  *'"balanced":true'*) ;;
  *) fail "trace_report did not balance spans: $REPORT" ;;
esac
case "$REPORT" in
  *'"reconstructed_fraction":1'*) ;;
  *) fail "trace_report failed to reconstruct all requests: $REPORT" ;;
esac

# The deadline-miss flight dump must be surfaced with the request's final
# search-trajectory sample — the "why was it still searching" post-mortem.
case "$REPORT" in
  *'"flight_dumps":['*'"reason":"deadline_expired"'*'"has_search_sample":true'*) ;;
  *) fail "trace_report did not surface the deadline-miss flight dump: $REPORT" ;;
esac

echo "svc_smoke: OK"
