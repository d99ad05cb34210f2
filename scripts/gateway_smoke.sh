#!/usr/bin/env bash
# gateway_smoke.sh — end-to-end proof of the HTTP/WebSocket gateway.
#
# Boots somad + somagate, publishes real traffic via somabench, then
# asserts the tentpole claims from the outside:
#
#   1. the JSON API answers (query/series/health/stats/alerts/traces),
#   2. a repeat query is served from the gateway's body cache over the
#      delta poll (gosoma_gateway_query_cache_hits moves in /metrics),
#   3. per-client rate limiting returns 429 under burst,
#   4. a live WS subscription survives one somad restart with messages
#      still arriving afterwards and all loss accounted in-stream,
#   5. HTTP availability never blinks across the restart (a background
#      /api/health poll loop sees zero failures),
#   6. no leaked goroutines (gateway goroutine gauge returns to baseline).
#
# Every verdict is emitted as one machine-readable line:
#   GATEWAY_SMOKE <check>=<pass|fail> detail...
#
# pipefail matters: several checks pipe curl through awk/grep, and a curl
# failure must fail the check, not vanish behind the filter's exit code.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
SOMAD_PID=""
SOMAGATE_PID=""
HEALTH_PID=""
WS_PID=""
cleanup() {
    for pid in "$WS_PID" "$HEALTH_PID" "$SOMAGATE_PID" "$SOMAD_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "GATEWAY_SMOKE $1=fail $2"
    echo "gateway-smoke: FAIL: $2" >&2
    exit 1
}
pass() {
    echo "GATEWAY_SMOKE $1=pass ${2:-}"
}

echo "gateway-smoke: building binaries"
go build -o "$workdir/somad" ./cmd/somad
go build -o "$workdir/somagate" ./cmd/somagate
go build -o "$workdir/somabench" ./cmd/somabench

# --- boot somad on an ephemeral port, capture its concrete address -------
"$workdir/somad" -listen tcp://127.0.0.1:0 >"$workdir/somad.addr" 2>"$workdir/somad.log" &
SOMAD_PID=$!
for _ in $(seq 1 50); do
    [ -s "$workdir/somad.addr" ] && break
    sleep 0.1
done
SOMA_ADDR=$(head -n1 "$workdir/somad.addr")
[ -n "$SOMA_ADDR" ] || fail boot "somad printed no address"
echo "gateway-smoke: somad at $SOMA_ADDR"

# --- boot somagate ------------------------------------------------------
# The bucket is sized so the paced functional checks (a handful of requests
# per second) never trip it, while the single-process 300-request burst at
# the end overruns it decisively. /api/health and /metrics are exempt.
"$workdir/somagate" -upstream "$SOMA_ADDR" -listen 127.0.0.1:0 -rate 30 -burst 60 \
    >"$workdir/somagate.addr" 2>"$workdir/somagate.log" &
SOMAGATE_PID=$!
for _ in $(seq 1 50); do
    [ -s "$workdir/somagate.addr" ] && break
    sleep 0.1
done
GATE_URL=$(head -n1 "$workdir/somagate.addr")
[ -n "$GATE_URL" ] || fail boot "somagate printed no address"
GATE_HOST=${GATE_URL#http://}
echo "gateway-smoke: somagate at $GATE_URL"

# --- publish real traffic via somabench ---------------------------------
"$workdir/somabench" pub -addr "$SOMA_ADDR" -ns hardware -paths 6 -rounds 10 -every 50ms \
    >"$workdir/pub1.json" || fail publish "somabench pub failed"
pass publish "rounds=10"

# --- JSON API sweep ------------------------------------------------------
for route in "/api/health" "/api/stats" "/api/query?ns=hardware" \
             "/api/series?ns=hardware" "/api/alerts" "/api/traces?sort=slowest" \
             "/api/telemetry?self=1" "/" "/metrics"; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "$GATE_URL$route")
    [ "$code" = "200" ] || fail api "$route returned $code"
done
curl -s "$GATE_URL/api/health" | grep -q '"status":"ok"' || fail api "health not ok"
# A 200 with the wrong shape still breaks the dashboard: each control-plane
# body must carry the key its consumers read (an empty list is [], not absent).
for check in '/api/alerts "rules"' '/api/stats "namespaces"' '/api/traces "traces"'; do
    read -r route key <<<"$check"
    body=$(curl -s "$GATE_URL$route")
    grep -q "$key" <<<"$body" || fail api "$route body lacks $key: $body"
done
pass api "9 routes 200, alerts/stats/traces bodies keyed"

# --- query cache: repeat queries hit the memoized JSON body --------------
curl -s -o /dev/null "$GATE_URL/api/query?ns=hardware"
curl -s -o /dev/null "$GATE_URL/api/query?ns=hardware"
cache_header=$(curl -s -o /dev/null -w '%{header_json}' "$GATE_URL/api/query?ns=hardware" \
    | grep -o '"x-soma-cache":\["hit"\]' || true)
hits=$(curl -s "$GATE_URL/metrics" | awk '/^gosoma_gateway_query_cache_hits /{print $2}')
[ "${hits:-0}" -ge 1 ] || fail cache "cache_hits=$hits after repeat queries"
[ -n "$cache_header" ] || fail cache "repeat query not marked X-Soma-Cache: hit"
pass cache "hits=$hits"

# --- baseline goroutines (scrape refreshes the gauge) --------------------
base_goroutines=$(curl -s "$GATE_URL/metrics" | awk '/^gosoma_gateway_process_goroutines /{print $2}' | cut -d. -f1)
[ -n "$base_goroutines" ] || fail metrics "no goroutine gauge"

# --- availability poll + WS probe run in the background ------------------
: >"$workdir/health_fail"
( end=$(( $(date +%s) + 20 ))
  polls=0
  while [ "$(date +%s)" -lt "$end" ]; do
      out=$(curl -s --max-time 2 "$GATE_URL/api/health" || echo CURL_FAIL)
      case "$out" in
          *'"status"'*) polls=$((polls+1)) ;;
          *) echo "poll failed: $out" >>"$workdir/health_fail" ;;
      esac
      sleep 0.2
  done
  echo "$polls" >"$workdir/health_polls"
) &
HEALTH_PID=$!

"$workdir/somabench" ws -url "ws://$GATE_HOST/ws?ns=hardware" -for 18s -min-messages 2 \
    >"$workdir/ws.json" 2>"$workdir/ws.log" &
WS_PID=$!
sleep 1

# --- traffic before the restart -----------------------------------------
"$workdir/somabench" pub -addr "$SOMA_ADDR" -ns hardware -paths 6 -rounds 20 -every 100ms \
    >"$workdir/pub2.json" &

# --- kill somad, restart on the SAME port -------------------------------
sleep 3
SOMA_PORT=${SOMA_ADDR##*:}
kill "$SOMAD_PID"
wait "$SOMAD_PID" 2>/dev/null || true
echo "gateway-smoke: somad down, restarting on port $SOMA_PORT"
sleep 1
"$workdir/somad" -listen "tcp://127.0.0.1:$SOMA_PORT" >"$workdir/somad2.addr" 2>"$workdir/somad2.log" &
SOMAD_PID=$!
for _ in $(seq 1 50); do
    [ -s "$workdir/somad2.addr" ] && break
    sleep 0.1
done

# --- traffic after the restart (must reach the resubscribed WS) ----------
"$workdir/somabench" pub -addr "$SOMA_ADDR" -ns hardware -paths 6 -rounds 60 -every 150ms \
    >"$workdir/pub3.json" || fail publish "post-restart somabench pub failed"

# --- WS probe verdict ----------------------------------------------------
wait "$WS_PID" && ws_rc=0 || ws_rc=$?
WS_PID=""
cat "$workdir/ws.json"
[ "$ws_rc" = "0" ] || fail ws "probe exit=$ws_rc ($(cat "$workdir/ws.log" 2>/dev/null))"
grep -q '"disconnect_closed": false' "$workdir/ws.json" || fail ws "socket torn during restart"
pass ws "subscription survived the restart"

# --- availability verdict ------------------------------------------------
wait "$HEALTH_PID" || true
HEALTH_PID=""
if [ -s "$workdir/health_fail" ]; then
    fail availability "$(wc -l <"$workdir/health_fail") failed health polls: $(head -n1 "$workdir/health_fail")"
fi
polls=$(cat "$workdir/health_polls" 2>/dev/null || echo 0)
[ "$polls" -ge 10 ] || fail availability "only $polls successful polls"
pass availability "polls=$polls failures=0"

# --- rate limiting: burst past the allowance must yield 429s -------------
# One curl process, 300 transfers over a kept-alive connection: far faster
# than the bucket refills, so the 60-token burst allowance must run dry.
urls=""
i=0
while [ "$i" -lt 300 ]; do
    urls="$urls $GATE_URL/api/stats"
    i=$((i + 1))
done
# shellcheck disable=SC2086
saw429=$(curl -s -o /dev/null -w '%{http_code}\n' $urls | grep -c '^429' || true)
[ "$saw429" -ge 1 ] || fail ratelimit "no 429 in a 300-request burst"
code=$(curl -s -o /dev/null -w '%{http_code}' "$GATE_URL/api/health")
[ "$code" = "200" ] || fail ratelimit "health throttled ($code) — liveness must be exempt"
pass ratelimit "429s=$saw429 health_exempt=yes"

# --- goroutine leak check ------------------------------------------------
sleep 2
end_goroutines=$(curl -s "$GATE_URL/metrics" | awk '/^gosoma_gateway_process_goroutines /{print $2}' | cut -d. -f1)
budget=$((base_goroutines + 10))
[ "$end_goroutines" -le "$budget" ] || fail goroutines "base=$base_goroutines end=$end_goroutines"
pass goroutines "base=$base_goroutines end=$end_goroutines"

echo "gateway-smoke: PASS"
