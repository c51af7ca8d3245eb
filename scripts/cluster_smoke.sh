#!/usr/bin/env bash
# End-to-end smoke test of distributed quartzd, curl only (no jq):
# build the daemon, start two plain workers and a coordinator wired to
# them on loopback, check GET /cluster sees both workers, check that
# dynamic registration (POST /cluster/register, -join) and a worker URL
# without an http(s) scheme are refused, submit a
# reduced-trials table8 sweep to the coordinator while an SSE
# subscription watches it, require the merged result to be
# byte-identical to the same experiment run single-process on a worker,
# require the identical resubmission to be a coordinator cache hit,
# then SIGTERM everything and require clean drains.
# CI runs this as the cluster-smoke step; locally: make cluster-smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

P0="${QUARTZD_CLUSTER_PORT:-8740}" # coordinator
P1=$((P0 + 1))                     # worker 1
P2=$((P0 + 2))                     # worker 2
BASE="http://127.0.0.1:${P0}"
W1="http://127.0.0.1:${P1}"
W2="http://127.0.0.1:${P2}"
BIN="$(mktemp -d)/quartzd"
LOG0="$(mktemp)"; LOG1="$(mktemp)"; LOG2="$(mktemp)"
SSE="$(mktemp)"
PIDS=()

fail() {
    echo "cluster_smoke: FAIL: $*" >&2
    for log in "$LOG0" "$LOG1" "$LOG2"; do
        echo "--- log $log ---" >&2
        cat "$log" >&2 || true
    done
    exit 1
}

cleanup() {
    for pid in "${PIDS[@]:-}"; do
        [[ -n "$pid" ]] && kill -KILL "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

json_field() {
    printf '%s' "$1" | tr -d '\n' |
        sed -n "s/.*\"$2\"[[:space:]]*:[[:space:]]*\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p" |
        head -n1
}

wait_healthy() {
    local url=$1 pid=$2
    for i in $(seq 1 50); do
        curl -fsS "$url/healthz" >/dev/null 2>&1 && return 0
        kill -0 "$pid" 2>/dev/null || fail "daemon $url exited during startup"
        sleep 0.2
    done
    fail "daemon $url never became healthy"
}

poll_done() {
    local base=$1 job=$2 state="" view=""
    for i in $(seq 1 300); do
        view=$(curl -fsS "$base/jobs/$job")
        state=$(json_field "$view" state)
        [[ "$state" == done || "$state" == failed || "$state" == cancelled ]] && break
        sleep 0.2
    done
    [[ "$state" == done ]] || fail "job $job on $base ended as '$state': $view"
}

# Result body with the job-specific fields neutralized, for
# byte-comparing outputs across daemons.
result_normalized() {
    curl -fsS "$1/jobs/$2/result" | sed 's/"id": *"[^"]*"/"id":"X"/'
}

REQ='{"experiment":"table8","params":{"seed":7,"trials":100}}'

echo "== build"
go build -o "$BIN" ./cmd/quartzd

echo "== start 2 workers + coordinator on loopback"
"$BIN" -addr "127.0.0.1:${P1}" -queue 8 >"$LOG1" 2>&1 &
PIDS+=($!); W1PID=$!
"$BIN" -addr "127.0.0.1:${P2}" -queue 8 >"$LOG2" 2>&1 &
PIDS+=($!); W2PID=$!
wait_healthy "$W1" "$W1PID"
wait_healthy "$W2" "$W2PID"
"$BIN" -addr "127.0.0.1:${P0}" -queue 8 -cluster-workers "$W1,$W2" >"$LOG0" 2>&1 &
PIDS+=($!); C0PID=$!
wait_healthy "$BASE" "$C0PID"

echo "== coordinator sees both workers"
CLUSTER=$(curl -fsS "$BASE/cluster")
printf '%s' "$CLUSTER" | grep -q "$W1" || fail "worker 1 missing from GET /cluster: $CLUSTER"
printf '%s' "$CLUSTER" | grep -q "$W2" || fail "worker 2 missing from GET /cluster: $CLUSTER"

echo "== removed membership entry points are refused"
REGCODE=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$BASE/cluster/register" \
    -H 'Content-Type: application/json' -d "{\"url\":\"$W1\"}")
[[ "$REGCODE" == 404 || "$REGCODE" == 405 ]] ||
    fail "POST /cluster/register answered $REGCODE; dynamic registration should be unrouted"
CODE=0
"$BIN" -join http://127.0.0.1:1 >/dev/null 2>&1 || CODE=$?
[[ $CODE -eq 2 ]] || fail "quartzd -join exited $CODE, want 2 (unknown flag)"
CODE=0
BADOUT=$(timeout 10 "$BIN" -addr 127.0.0.1:0 -cluster-workers localhost:1 2>&1) || CODE=$?
[[ $CODE -ne 0 && $CODE -ne 124 ]] || fail "quartzd -cluster-workers localhost:1 exited $CODE, want a refusal: $BADOUT"
printf '%s' "$BADOUT" | grep -q 'localhost:1' || fail "the refusal does not name the bad worker URL: $BADOUT"

echo "== single-process baseline on worker 1"
BASE1=$(curl -fsS -X POST "$W1/jobs" -H 'Content-Type: application/json' -d "$REQ")
BJOB=$(json_field "$BASE1" id)
[[ -n "$BJOB" ]] || fail "no job id from worker baseline submit: $BASE1"
poll_done "$W1" "$BJOB"

echo "== submit the sweep to the coordinator, SSE subscription attached"
SUBMIT=$(curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' -d "$REQ")
JOB=$(json_field "$SUBMIT" id)
[[ -n "$JOB" ]] || fail "no job id from coordinator submit: $SUBMIT"
curl -fsSN --max-time 90 "$BASE/jobs/$JOB/events" >"$SSE" 2>/dev/null &
SSEPID=$!
poll_done "$BASE" "$JOB"
wait "$SSEPID" 2>/dev/null || true
grep -q '^event: state' "$SSE" || fail "no SSE state event arrived: $(cat "$SSE")"
grep -q '"state":"done"' "$SSE" || fail "SSE stream never reported the terminal state: $(cat "$SSE")"

echo "== cluster result must be byte-identical to the single-process run"
CR=$(result_normalized "$BASE" "$JOB")
BR=$(result_normalized "$W1" "$BJOB")
[[ "$CR" == "$BR" ]] || fail "cluster output differs from single-process output:
--- cluster ---
$CR
--- single ---
$BR"
printf '%s' "$CR" | grep -q 'Quartz' || fail "result does not look like table8 output: $CR"

echo "== workers actually executed cell ranges"
WMETRICS=$(curl -fsS "$W1/metrics"; curl -fsS "$W2/metrics")
WDONE=$(printf '%s\n' "$WMETRICS" | awk '/^quartzd_jobs_total{state="done"}/ {sum += $2} END {print sum + 0}')
[[ "${WDONE%.*}" -ge 2 ]] || fail "workers completed $WDONE jobs, want >= 2 (baseline + sub-jobs)"
DISPATCHES=$(curl -fsS "$BASE/metrics" | awk '/^quartzd_cluster_dispatches_total/ {print $2}')
[[ "${DISPATCHES%.*}" -ge 1 ]] || fail "coordinator dispatched nothing: $DISPATCHES"

echo "== resubmit to the coordinator: must be a cache hit"
AGAIN=$(curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' -d "$REQ")
[[ "$(json_field "$AGAIN" cache_hit)" == true ]] || fail "resubmission not served from the coordinator cache: $AGAIN"

echo "== SIGTERM all three: clean drains"
for pid in "$C0PID" "$W1PID" "$W2PID"; do
    kill -TERM "$pid"
done
for pid in "$C0PID" "$W1PID" "$W2PID"; do
    WAITED=0
    while kill -0 "$pid" 2>/dev/null; do
        sleep 0.5
        WAITED=$((WAITED + 1))
        [[ $WAITED -gt 120 ]] && fail "daemon $pid did not exit within 60s of SIGTERM"
    done
    set +e
    wait "$pid"
    CODE=$?
    set -e
    [[ $CODE -eq 0 ]] || fail "daemon $pid exited $CODE after SIGTERM"
done
PIDS=()
grep -q 'msg="quartzd: drained"' "$LOG0" || fail "no drain summary in the coordinator log"

echo "cluster_smoke: OK"
