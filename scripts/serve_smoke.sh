#!/usr/bin/env bash
# Smoke test for `medmaker serve` (CI "Serve smoke" step; run it locally
# the same way): start the daemon on a free port against the demo
# mediator, drive one query over each wire protocol plus /healthz and
# /metrics, an invalidation that the next query must answer with source
# calls, ten queries down one line-protocol connection and an over-long
# line, then check that SIGTERM shuts it down gracefully (exit
# 0, drained, within 2 s). Needs only bash + a built `medmaker` binary;
# the HTTP client is a raw bash /dev/tcp exchange, so no curl dependency.
set -euo pipefail

BIN="${MEDMAKER_BIN:-target/debug/medmaker}"
LOG="$(mktemp)"
WARM="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$LOG"; rm -rf "$WARM"' EXIT

"$BIN" serve --spec demo/med.msl \
  --oem whois=demo/whois.oem \
  --csv cs=demo/employee.csv --csv cs=demo/student.csv \
  --addr 127.0.0.1:0 --workers 2 --queue 8 --cache --cache-dir "$WARM" >"$LOG" &
SERVER_PID=$!

# The daemon prints "medmaker serve: listening on HOST:PORT" once bound;
# port 0 means the port is only knowable from that line.
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^medmaker serve: listening on //p' "$LOG" | head -n1)"
  [ -n "$ADDR" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died:"; cat "$LOG"; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never reported its address"; cat "$LOG"; exit 1; }
HOST="${ADDR%:*}"
PORT="${ADDR##*:}"
echo "server at $HOST:$PORT"

# One HTTP exchange over /dev/tcp: send the request, read to EOF (the
# server always closes after responding).
http() {
  local request=$1
  exec 3<>"/dev/tcp/$HOST/$PORT"
  printf '%b' "$request" >&3
  cat <&3
  exec 3<&- 3>&-
}

fail() { echo "FAIL: $1"; echo "--- response ---"; echo "$2"; exit 1; }

# The lifetime `server.source_calls` counter of a /metrics response.
source_calls() { echo "$1" | sed -n 's/.*"source_calls": \([0-9]*\).*/\1/p' | head -n1; }

RES="$(http 'GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n')"
echo "$RES" | grep -q "200 OK" || fail "/healthz not 200" "$RES"

BODY='{"query": "JC :- JC:<cs_person {<name '"'"'Joe Chung'"'"'>}>@med"}'
RES="$(http "POST /query HTTP/1.1\r\nHost: smoke\r\nContent-Length: ${#BODY}\r\n\r\n$BODY")"
echo "$RES" | grep -q "200 OK" || fail "/query not 200" "$RES"
echo "$RES" | grep -q '"status": "ok"' || fail "/query status not ok" "$RES"
echo "$RES" | grep -q "Joe Chung" || fail "/query answer missing Joe Chung" "$RES"

# COUNT queries down one line-protocol connection (fd 3), each sent once
# the previous block — OK header, answer, '.' end — has been read.
line_queries() {
  local count=$1 line
  exec 3<>"/dev/tcp/$HOST/$PORT"
  for _ in $(seq 1 "$count"); do
    printf "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med\n" >&3
    while IFS= read -r line <&3; do
      echo "$line"
      [ "$line" = "." ] && break
    done
  done
  exec 3<&- 3>&-
}

# Same query over the line protocol.
RES="$(line_queries 1)"
echo "$RES" | head -n1 | grep -q "^OK 1 1" || fail "line protocol header" "$RES"
echo "$RES" | grep -q "Joe Chung" || fail "line protocol answer" "$RES"

RES="$(http 'GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n')"
echo "$RES" | grep -q '"queries_total": 2' || fail "/metrics queries_total != 2" "$RES"
echo "$RES" | grep -q '"queries_ok": 2' || fail "/metrics queries_ok != 2" "$RES"
# The cache's hit ratio needs all three of hits, containment hits, misses.
echo "$RES" | grep -q '"cache_containment_hits": ' ||
  fail "/metrics lacks mediator.cache_containment_hits" "$RES"

# Delta-driven invalidation: the CLI client POSTs /invalidate. It is not
# a query, so queries_total above stays at 2; the invalidation counters
# move instead.
RES="$("$BIN" invalidate --addr "$HOST:$PORT" --source whois)"
echo "$RES" | grep -q '"invalidated"' || fail "invalidate reply" "$RES"
RES="$(http 'GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n')"
echo "$RES" | grep -q '"invalidations": 1' || fail "/metrics invalidations != 1" "$RES"
CALLS_BEFORE="$(source_calls "$RES")"

# Many queries down one connection: ten blocks come back. The first of
# them finds its whois answers dropped and must go back to the source.
RES="$(line_queries 10)"
[ "$(echo "$RES" | grep -c "^OK 1 1")" -eq 10 ] || fail "ten line-protocol replies" "$RES"
RES="$(http 'GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n')"
echo "$RES" | grep -q '"queries_ok": 12' || fail "/metrics queries_ok != 12" "$RES"
[ "$(source_calls "$RES")" -gt "$CALLS_BEFORE" ] ||
  fail "no source call after the invalidation (was $CALLS_BEFORE)" "$RES"

# A line past the 1 MiB bound is refused, not buffered.
RES="$(exec 3<>"/dev/tcp/$HOST/$PORT"
  { head -c 1048577 /dev/zero | tr '\0' 'x'; echo; } >&3 2>/dev/null || true
  IFS= read -r line <&3 && echo "$line"
  exec 3<&- 3>&-)"
[ "$RES" = "ERR line too long" ] || fail "over-long line not refused" "${RES:0:200}"

# Graceful shutdown: with no connection open, SIGTERM must drain and
# exit 0 within 2 s (the acceptor is blocked in accept and has to be
# woken).
kill -TERM "$SERVER_PID"
for _ in $(seq 1 20); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "FAIL: server still running 2s after SIGTERM"
  kill -9 "$SERVER_PID"
  exit 1
fi
wait "$SERVER_PID" && CODE=0 || CODE=$?
[ "$CODE" -eq 0 ] || { echo "FAIL: server exited $CODE after SIGTERM"; cat "$LOG"; exit 1; }
grep -q "shutting down" "$LOG" || { echo "FAIL: no shutdown notice"; cat "$LOG"; exit 1; }

# Offline warm-tier maintenance: the daemon's cached answers survived it
# on disk. The cs entry is still live (only whois was invalidated);
# compact rewrites it, clear empties the tier.
RES="$("$BIN" cache stats --cache-dir "$WARM")"
echo "$RES" | grep -q '"entries":' || fail "cache stats shape" "$RES"
echo "$RES" | grep -q '"entries":0,' && fail "warm tier empty after daemon exit" "$RES"
RES="$("$BIN" cache compact --cache-dir "$WARM")"
echo "$RES" | grep -q '"kept":' || fail "cache compact shape" "$RES"
RES="$("$BIN" cache clear --cache-dir "$WARM")"
echo "$RES" | grep -q '"cleared_entries":' || fail "cache clear shape" "$RES"
RES="$("$BIN" cache stats --cache-dir "$WARM")"
echo "$RES" | grep -q '"entries":0,' || fail "cache clear left entries" "$RES"

echo "serve smoke: OK"
