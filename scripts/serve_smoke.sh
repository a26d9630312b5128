#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for the hotgauged campaign daemon.
#
# Builds cmd/hotgauged, starts it in durable mode (-data-dir) on a
# scratch port, waits for /healthz, submits a tiny two-run §IV-A-style
# campaign (gcc at 7 nm and 14 nm), polls the job to completion,
# resubmits the identical campaign, and asserts that the second pass was
# served entirely from the on-disk result store (serve/cache_hits >= 2
# at /metrics, state "done" with all runs cached), and that the durable
# daemon holds no payload copy in memory (/healthz cache_entries == 0).
#
# Then the restart-and-resume leg: the daemon is stopped and restarted
# on the same data dir, and the script asserts the finished job is still
# visible (marked recovered) with byte-identical result bodies, and that
# a third submission of the same campaign completes without executing a
# single simulation in the new process (served from the on-disk store).
#
# Requires: go, curl, jq. Exits nonzero on any failed assertion.
set -euo pipefail

PORT="${PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
WORKDIR="$(mktemp -d)"
BIN="${WORKDIR}/hotgauged"

# The trap always reaps the daemon — even when an assertion fails
# mid-script — escalating to SIGKILL if it ignores SIGTERM, so a failed
# run never leaves a stray hotgauged holding the port for the next one.
cleanup() {
    if [ -n "${DAEMON_PID:-}" ] && kill -0 "${DAEMON_PID}" 2>/dev/null; then
        kill "${DAEMON_PID}" 2>/dev/null || true
        for i in $(seq 1 20); do
            kill -0 "${DAEMON_PID}" 2>/dev/null || break
            sleep 0.1
        done
        kill -9 "${DAEMON_PID}" 2>/dev/null || true
    fi
    wait 2>/dev/null || true
    rm -rf "${WORKDIR}"
}
trap cleanup EXIT

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

# Fail fast, with a message that names the culprit, if the port is
# already taken — otherwise the daemon exits on bind and the failure
# surfaces as a confusing "daemon exited early" several steps later.
if (exec 3<>"/dev/tcp/127.0.0.1/${PORT}") 2>/dev/null; then
    fail "port ${PORT} is already in use (another hotgauged?); stop it or set PORT=<free port>"
fi

echo "serve-smoke: building hotgauged"
go build -o "${BIN}" ./cmd/hotgauged

DATA_DIR="${WORKDIR}/data"

start_daemon() {
    "${BIN}" -addr "127.0.0.1:${PORT}" -queue 4 \
        -data-dir "${DATA_DIR}" -fsync always -checkpoint-every 2 \
        >>"${WORKDIR}/daemon.log" 2>&1 &
    DAEMON_PID=$!
    for i in $(seq 1 50); do
        if curl -fsS "${BASE}/healthz" >/dev/null 2>&1; then break; fi
        kill -0 "${DAEMON_PID}" 2>/dev/null || { cat "${WORKDIR}/daemon.log" >&2; fail "daemon exited early"; }
        sleep 0.2
    done
    curl -fsS "${BASE}/healthz" | jq -e '.status == "ok" and .store == "ok"' >/dev/null \
        || fail "healthz not ok/store not ok"
}

echo "serve-smoke: starting durable daemon (data dir ${DATA_DIR})"
start_daemon

CAMPAIGN='{"configs":[
  {"workload":"gcc","node":7,"steps":3,"warmup":"cold","resolution":0.2},
  {"workload":"gcc","node":14,"steps":3,"warmup":"cold","resolution":0.2}
]}'

submit_and_wait() {
    local job_id state
    job_id="$(curl -fsS -X POST "${BASE}/jobs" -d "${CAMPAIGN}" | jq -r .id)"
    [ -n "${job_id}" ] && [ "${job_id}" != null ] || fail "submit returned no job id"
    for i in $(seq 1 150); do
        state="$(curl -fsS "${BASE}/jobs/${job_id}" | jq -r .state)"
        case "${state}" in
            done) echo "${job_id}"; return 0 ;;
            failed|cancelled) curl -fsS "${BASE}/jobs/${job_id}" >&2; fail "job ${job_id} ended ${state}" ;;
        esac
        sleep 0.2
    done
    fail "job ${job_id} did not finish (last state: ${state})"
}

echo "serve-smoke: submitting campaign (cold)"
JOB1="$(submit_and_wait)"
echo "serve-smoke: job ${JOB1} done"

echo "serve-smoke: resubmitting identical campaign (expect cache hits)"
JOB2="$(submit_and_wait)"
STATUS2="$(curl -fsS "${BASE}/jobs/${JOB2}")"
echo "${STATUS2}" | jq -e '.cached == 2' >/dev/null \
    || { echo "${STATUS2}" >&2; fail "second job not fully cached"; }

METRICS="$(curl -fsS "${BASE}/metrics")"
echo "${METRICS}" | jq -e '.counters["serve/cache_hits"] >= 2' >/dev/null \
    || { echo "${METRICS}" | jq .counters >&2; fail "serve/cache_hits not >= 2"; }
# A durable daemon keeps result bytes only in its store, never in the LRU.
curl -fsS "${BASE}/healthz" | jq -e '.cache_entries == 0' >/dev/null \
    || { curl -fsS "${BASE}/healthz" >&2; fail "durable daemon holds result payloads in memory (cache_entries != 0)"; }
echo "${METRICS}" | jq -e '.counters["serve/runs_executed"] == 2' >/dev/null \
    || { echo "${METRICS}" | jq .counters >&2; fail "cache hit re-ran the simulator"; }

# Byte-identical result bodies across the two jobs.
cmp <(curl -fsS "${BASE}/jobs/${JOB1}/results/0") <(curl -fsS "${BASE}/jobs/${JOB2}/results/0") \
    || fail "cached result body differs from original"

# The report endpoint renders a row per run.
curl -fsS "${BASE}/jobs/${JOB1}/report" | grep -q "7nm" || fail "report missing 7nm row"

RESULT_BEFORE="${WORKDIR}/result0.before.json"
curl -fsS "${BASE}/jobs/${JOB1}/results/0" >"${RESULT_BEFORE}"

# --- Restart-and-resume leg -------------------------------------------
echo "serve-smoke: restarting daemon on the same data dir"
kill "${DAEMON_PID}"
wait "${DAEMON_PID}" 2>/dev/null || true
start_daemon

STATUS_AFTER="$(curl -fsS "${BASE}/jobs/${JOB1}")"
echo "${STATUS_AFTER}" | jq -e '.state == "done" and .recovered == true' >/dev/null \
    || { echo "${STATUS_AFTER}" >&2; fail "job ${JOB1} not restored as done/recovered after restart"; }

cmp "${RESULT_BEFORE}" <(curl -fsS "${BASE}/jobs/${JOB1}/results/0") \
    || fail "restored result body differs across restart"

echo "serve-smoke: resubmitting campaign after restart (expect disk-store hits)"
JOB3="$(submit_and_wait)"
STATUS3="$(curl -fsS "${BASE}/jobs/${JOB3}")"
echo "${STATUS3}" | jq -e '.cached == 2' >/dev/null \
    || { echo "${STATUS3}" >&2; fail "post-restart job not fully cached"; }

METRICS2="$(curl -fsS "${BASE}/metrics")"
echo "${METRICS2}" | jq -e '(.counters["serve/runs_executed"] // 0) == 0' >/dev/null \
    || { echo "${METRICS2}" | jq .counters >&2; fail "restarted daemon re-ran persisted simulations"; }
echo "${METRICS2}" | jq -e '.counters["serve/recovered_jobs"] == 2' >/dev/null \
    || { echo "${METRICS2}" | jq .counters >&2; fail "serve/recovered_jobs != 2"; }

cmp "${RESULT_BEFORE}" <(curl -fsS "${BASE}/jobs/${JOB3}/results/0") \
    || fail "disk-store result body differs from original"

echo "serve-smoke: OK (cache hits: $(echo "${METRICS}" | jq -r '.counters["serve/cache_hits"]'), restart served from disk)"
