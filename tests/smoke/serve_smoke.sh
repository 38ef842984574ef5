#!/usr/bin/env bash
# The HTTP service end to end with a real client: health check, a
# scale-1 job whose response must byte-match the CLI report for the
# same spec, a bad body, a metrics scrape that reflects the traffic,
# and a graceful SIGTERM drain that exits 0.
#
#   serve_smoke.sh DYNASPAM_BINARY WORK_DIR
#
# The daemon listens on a port the kernel picks (--port 0) and reports
# it in its status line, which the script reads back. Exits 0 on
# success, 77 (ctest skip) when curl is missing, 1 on any failure.
# WORK_DIR keeps the reports, the daemon log and the /metrics scrape.

set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 DYNASPAM_BINARY WORK_DIR" >&2
    exit 2
fi
command -v curl > /dev/null || { echo "no curl; skipping"; exit 77; }

BIN=$(realpath "$1")
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill -9 "$pid" 2> /dev/null || true
    done
}
trap cleanup EXIT

# Poll until the command succeeds; fail after 30 s.
await() {
    for _ in $(seq 1 150); do
        if "$@"; then
            return 0
        fi
        sleep 0.2
    done
    echo "timed out waiting for: $*" >&2
    return 1
}

"$BIN" serve --port 0 --jobs 2 --cache .serve-cache --cache-max-mb 64 \
    > serve.log &
SERVE=$!
PIDS+=($SERVE)
await grep -q 'serve: listening on' serve.log
PORT=$(sed -n 's/.*serve: listening on [^ ]*:\([0-9]*\) .*/\1/p' serve.log)
URL=http://127.0.0.1:$PORT
await curl -sf -o /dev/null "$URL/healthz"
curl -sf "$URL/healthz" | grep -q '"ok"'

# A fig8 point at scale 1; the response must be byte-identical to what
# `dynaspam run --no-cache --out` writes (cold server = cold CLI).
curl -sf -X POST "$URL/run" \
    -d '{"workload": "bfs", "mode": "accel-spec", "trace_length": 32, "scale": 1}' \
    -o serve-run.json
"$BIN" run --workload bfs --mode accel-spec --trace-length 32 --scale 1 \
    --no-cache --out cli-run.json > /dev/null
cmp serve-run.json cli-run.json

# Validation answers, not hangs.
test "$(curl -s -o /dev/null -w '%{http_code}' \
    -X POST "$URL/run" -d '{bad json')" = 400

# The scrape must reflect the traffic above.
curl -sf "$URL/metrics" -o metrics.txt
grep -q 'dynaspam_http_requests_total{endpoint="/run",status="200"} 1' metrics.txt
grep -q 'dynaspam_jobs_executed_total 1' metrics.txt
grep -q 'dynaspam_sim_kips_count 1' metrics.txt

# Graceful drain: SIGTERM, clean exit 0.
kill -TERM "$SERVE"
wait "$SERVE"
grep -q 'serve: drained, exiting' serve.log
echo "serve smoke: ok"
