#!/usr/bin/env bash
# End-to-end smoke test of execution tracing, curl only (no jq):
# run quartzsim with -trace-spans and validate the Chrome trace with
# tracecheck (flow tracks, per-track timestamp order), from flags and
# from a -scenario file with -flows-out beside it; run quartzsim
# -run fig17 with -trace-spans and require the cell spans; then start
# quartzd, submit a job carrying an X-Quartz-Trace header, and require
# the header echoed and GET /jobs/{id}/trace to serve a valid trace
# containing the job lifecycle spans.
# CI runs this as the trace-smoke job; locally: make trace-smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${QUARTZD_PORT:-8715}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
LOG="$TMP/quartzd.log"
PID=""

fail() {
    echo "trace_smoke: FAIL: $*" >&2
    if [[ -s "$LOG" ]]; then
        echo "--- quartzd log ---" >&2
        cat "$LOG" >&2 || true
    fi
    exit 1
}

cleanup() {
    if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
        kill -KILL "$PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

# json_field BODY KEY → first scalar value of "key": in BODY.
json_field() {
    printf '%s' "$1" | tr -d '\n' |
        sed -n "s/.*\"$2\"[[:space:]]*:[[:space:]]*\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p" |
        head -n1
}

echo "== build"
go build -o "$TMP/quartzsim" ./cmd/quartzsim
go build -o "$TMP/tracecheck" ./cmd/tracecheck
go build -o "$TMP/quartzd" ./cmd/quartzd

echo "== quartzsim -trace-spans"
"$TMP/quartzsim" -ms 2 -tasks 2 -trace-spans "$TMP/sim_spans.json" >/dev/null
"$TMP/tracecheck" -min-events 20 -require flow "$TMP/sim_spans.json" ||
    fail "quartzsim trace did not validate"

echo "== quartzsim -flight-recorder"
"$TMP/quartzsim" -arch ring -ms 2 -tasks 1 -trace-spans "$TMP/ring_spans.json" -flight-recorder >/dev/null
"$TMP/tracecheck" -require flow "$TMP/ring_spans.json" ||
    fail "flight-recorder trace did not validate"

echo "== quartzsim -scenario FILE -trace-spans -flows-out"
# Sinks attach to a scenario file exactly as to flags (this invocation
# once exited 0 having written neither file).
"$TMP/quartzsim" -scenario examples/scenarios/fault-cut.json \
    -trace-spans "$TMP/scn_spans.json" -flows-out "$TMP/scn_flows.csv" >/dev/null
[[ -s "$TMP/scn_spans.json" && -s "$TMP/scn_flows.csv" ]] ||
    fail "-scenario with sink flags did not write both files"
"$TMP/tracecheck" -min-events 20 -require flow "$TMP/scn_spans.json" ||
    fail "scenario-file trace did not validate"
head -n1 "$TMP/scn_flows.csv" | grep -q '^flow,first_send_ps,' ||
    fail "scenario-file flow table has no CSV header"
[[ $(wc -l <"$TMP/scn_flows.csv") -gt 100 ]] ||
    fail "scenario-file flow table is nearly empty"

echo "== quartzsim -run fig17 -trace-spans"
"$TMP/quartzsim" -run fig17 -tasks 1 -trace-spans "$TMP/run_spans.json" >/dev/null
"$TMP/tracecheck" -require cell "$TMP/run_spans.json" ||
    fail "quartzsim -run trace did not validate"

echo "== start quartzd on :${PORT}"
"$TMP/quartzd" -addr "127.0.0.1:${PORT}" -queue 4 -grace 30s >"$LOG" 2>&1 &
PID=$!
for i in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.2
    [[ $i -eq 50 ]] && fail "daemon never became healthy"
done

echo "== submit with X-Quartz-Trace header"
HDRS="$TMP/headers.txt"
SUBMIT=$(curl -fsS -D "$HDRS" -X POST "$BASE/jobs" \
    -H 'Content-Type: application/json' -H 'X-Quartz-Trace: smoke-trace-1' \
    -d '{"experiment":"validate","params":{"seed":7,"trials":100}}')
JOB=$(json_field "$SUBMIT" id)
[[ -n "$JOB" ]] || fail "no job id in submit response: $SUBMIT"
grep -iq '^x-quartz-trace: smoke-trace-1' "$HDRS" ||
    fail "submit response did not echo X-Quartz-Trace"
TRACE_ID=$(json_field "$SUBMIT" trace_id)
[[ "$TRACE_ID" == "smoke-trace-1" ]] || fail "trace_id=$TRACE_ID, want smoke-trace-1"

echo "== poll $JOB to completion"
for i in $(seq 1 100); do
    STATE=$(json_field "$(curl -fsS "$BASE/jobs/$JOB")" state)
    [[ "$STATE" == "done" ]] && break
    [[ "$STATE" == "failed" || "$STATE" == "cancelled" ]] && fail "job went $STATE"
    sleep 0.2
    [[ $i -eq 100 ]] && fail "job never finished (state $STATE)"
done

echo "== GET /jobs/$JOB/trace"
curl -fsS -D "$HDRS" "$BASE/jobs/$JOB/trace" -o "$TMP/job_trace.json" ||
    fail "trace endpoint errored"
grep -iq '^x-quartz-trace: smoke-trace-1' "$HDRS" ||
    fail "trace response did not echo X-Quartz-Trace"
"$TMP/tracecheck" -require queued,run "$TMP/job_trace.json" ||
    fail "job trace did not validate"
grep -q '"trace_id":"smoke-trace-1"' "$TMP/job_trace.json" ||
    fail "trace otherData missing the trace id"

echo "== drain"
kill -TERM "$PID"
for i in $(seq 1 50); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.2
    [[ $i -eq 50 ]] && fail "daemon did not drain after SIGTERM"
done
wait "$PID" 2>/dev/null || true
PID=""

echo "trace_smoke: OK"
