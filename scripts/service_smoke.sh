#!/usr/bin/env bash
# End-to-end smoke test of the quartzd job service, curl only (no jq):
# build the daemon, start it, submit a reduced-trials validate run,
# poll the job to completion, fetch and check the result, resubmit the
# identical request and require a cache hit (counter visible in
# /metrics), POST a raw scenario document and require its identical
# resubmission, raw and inline, to coalesce in the cache, require the
# removed named-scenario route to be unrouted, require a max-rate
# document's 0.3 s timeout to fail its job within 3 s, then SIGTERM the
# daemon and require a clean drain (exit 0).
# CI runs this as the service-smoke job; locally: make service-smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${QUARTZD_PORT:-8714}"
BASE="http://127.0.0.1:${PORT}"
BIN="$(mktemp -d)/quartzd"
LOG="$(mktemp)"
PID=""

fail() {
    echo "service_smoke: FAIL: $*" >&2
    echo "--- quartzd log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

cleanup() {
    if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
        kill -KILL "$PID" 2>/dev/null || true
    fi
}
trap cleanup EXIT

# json_field BODY KEY → first scalar value of "key": in BODY (flat keys
# only; good enough for the fields asserted here).
json_field() {
    printf '%s' "$1" | tr -d '\n' |
        sed -n "s/.*\"$2\"[[:space:]]*:[[:space:]]*\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p" |
        head -n1
}

echo "== build"
go build -o "$BIN" ./cmd/quartzd

echo "== start quartzd on :${PORT}"
"$BIN" -addr "127.0.0.1:${PORT}" -queue 4 -grace 30s >"$LOG" 2>&1 &
PID=$!

for i in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.2
    [[ $i -eq 50 ]] && fail "daemon never became healthy"
done

echo "== submit validate (reduced trials)"
SUBMIT=$(curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' \
    -d '{"experiment":"validate","params":{"seed":7,"trials":100}}')
JOB=$(json_field "$SUBMIT" id)
[[ -n "$JOB" ]] || fail "no job id in submit response: $SUBMIT"
echo "   job $JOB"

echo "== poll to completion"
STATE=""
for i in $(seq 1 150); do
    VIEW=$(curl -fsS "$BASE/jobs/$JOB")
    STATE=$(json_field "$VIEW" state)
    [[ "$STATE" == done || "$STATE" == failed || "$STATE" == cancelled ]] && break
    sleep 0.2
done
[[ "$STATE" == done ]] || fail "job ended as '$STATE': $VIEW"

echo "== fetch result"
RESULT=$(curl -fsS "$BASE/jobs/$JOB/result")
printf '%s' "$RESULT" | grep -q 'Simulator validation' ||
    fail "result body missing the validation table: $RESULT"

echo "== resubmit: must be a cache hit"
HITS_BEFORE=$(curl -fsS "$BASE/metrics" | awk '/^quartzd_cache_hits_total/ {print $2}')
AGAIN=$(curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' \
    -d '{"experiment":"validate","params":{"seed":7,"trials":100}}')
[[ "$(json_field "$AGAIN" cache_hit)" == true ]] || fail "resubmit not served from cache: $AGAIN"
[[ "$(json_field "$AGAIN" state)" == done ]] || fail "cached job not born done: $AGAIN"
HITS_AFTER=$(curl -fsS "$BASE/metrics" | awk '/^quartzd_cache_hits_total/ {print $2}')
[[ "${HITS_AFTER%.*}" -gt "${HITS_BEFORE%.*}" ]] ||
    fail "cache-hit counter did not increase ($HITS_BEFORE -> $HITS_AFTER)"

echo "== scenario: submit the raw document, resubmit raw and inline for cache hits"
SCEN=examples/scenarios/figure6.json

SC1=$(curl -fsS -X POST "$BASE/jobs" --data-binary @"$SCEN")
SCJOB=$(json_field "$SC1" id)
[[ -n "$SCJOB" ]] || fail "no job id for raw scenario submit: $SC1"
STATE=""
for i in $(seq 1 300); do
    VIEW=$(curl -fsS "$BASE/jobs/$SCJOB")
    STATE=$(json_field "$VIEW" state)
    [[ "$STATE" == done || "$STATE" == failed || "$STATE" == cancelled ]] && break
    sleep 0.2
done
[[ "$STATE" == done ]] || fail "scenario job ended as '$STATE': $VIEW"

SC2=$(curl -fsS -X POST "$BASE/jobs" --data-binary @"$SCEN")
[[ "$(json_field "$SC2" cache_hit)" == true ]] ||
    fail "identical scenario resubmission not served from cache: $SC2"
SC3=$(curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' \
    -d "{\"scenario\": $(cat "$SCEN")}")
[[ "$(json_field "$SC3" cache_hit)" == true ]] ||
    fail "inline scenario submission did not coalesce with the raw document: $SC3"
PUTCODE=$(curl -sS -o /dev/null -w '%{http_code}' -X PUT "$BASE/scenarios/figure6" --data-binary @"$SCEN")
[[ "$PUTCODE" == 404 || "$PUTCODE" == 405 ]] ||
    fail "PUT /scenarios/figure6 answered $PUTCODE; the named-scenario store should be unrouted"

echo "== timeout: a max-rate document must fail within 3 s of a 0.3 s timeout"
# 64 scatter tasks at 100e6 pps each on tree3: millions of events in
# 0.1 ms of virtual time, several seconds of wall time if it ran whole.
MAXRATE='{"schema": "quartz-scenario/v1", "name": "max-rate", "sim": {"duration_ms": 0.1,
  "topology": {"kind": "tree3"}, "workload": {"kind": "scatter", "tasks": 64, "pps": 100e6}}}'
T0=$(date +%s%N)
TO=$(curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' \
    -d "{\"scenario\": $MAXRATE, \"timeout_secs\": 0.3}")
TOJOB=$(json_field "$TO" id)
[[ -n "$TOJOB" ]] || fail "no job id for the max-rate submit: $TO"
STATE=""
while (($(date +%s%N) - T0 < 3000000000)); do
    VIEW=$(curl -fsS "$BASE/jobs/$TOJOB")
    STATE=$(json_field "$VIEW" state)
    [[ "$STATE" == done || "$STATE" == failed || "$STATE" == cancelled ]] && break
    sleep 0.1
done
ELAPSED_MS=$((($(date +%s%N) - T0) / 1000000))
[[ "$STATE" == failed ]] ||
    fail "max-rate job with timeout_secs 0.3 is '$STATE' ${ELAPSED_MS} ms after submission, want failed within 3000 ms: $VIEW"
[[ "$VIEW" == *"deadline exceeded"* ]] || fail "timed-out job does not say deadline exceeded: $VIEW"
echo "   failed after ${ELAPSED_MS} ms"

echo "== submit once more, then SIGTERM: daemon must drain cleanly"
curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' \
    -d '{"experiment":"validate","params":{"seed":8,"trials":100}}' >/dev/null
kill -TERM "$PID"
WAITED=0
while kill -0 "$PID" 2>/dev/null; do
    sleep 0.5
    WAITED=$((WAITED + 1))
    [[ $WAITED -gt 120 ]] && fail "daemon did not exit within 60s of SIGTERM"
done
set +e
wait "$PID"
CODE=$?
set -e
PID=""
[[ $CODE -eq 0 ]] || fail "daemon exited $CODE after SIGTERM"
grep -q 'msg="quartzd: drained"' "$LOG" || fail "no drain summary in the daemon log"

echo "service_smoke: OK"
