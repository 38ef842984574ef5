#!/usr/bin/env bash
# Snapshot persistence across process generations.
#
# A 2-worker cluster warms fork-group prefixes into a shared on-disk
# snapshot cache, every worker is then SIGKILLed, and a fresh set of
# workers must answer the same sweep byte-for-byte while loading the
# warmed state from disk: zero warm passes on the second run (asserted
# through the per-worker warmups gauge). Result caches are off, so the
# second run really re-executes every job.
#
#   snapshot_ship.sh DYNASPAM_BINARY WORK_DIR
#
# The daemons listen on ports the kernel picks (--port 0) and report
# them in their status lines, which the script reads back, so nothing
# can take a port between choosing and binding it. Exits 0 on success,
# 77 (ctest skip) when curl is missing, 1 on any failure. WORK_DIR
# keeps the reports, daemon logs and /metrics scrapes for inspection.

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

BODY='{"jobs": [{"workload": "bfs", "mode": "baseline-ooo", "trace_length": 32, "scale": 1, "warmup_insts": 60000}, {"workload": "bfs", "mode": "mapping-only", "trace_length": 32, "scale": 1, "warmup_insts": 60000}, {"workload": "bfs", "mode": "accel-nospec", "trace_length": 32, "scale": 1, "warmup_insts": 60000}, {"workload": "bfs", "mode": "accel-spec", "trace_length": 32, "scale": 1, "warmup_insts": 60000}]}'
WARMUPS='dynaspam_cluster_worker_warmups\{worker="[0-9]+"\}'

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

metrics_match() { curl -sf "$METRICS" | grep -Eq "$1"; }

fresh_gauges() {
    curl -sf "$METRICS" -o probe.txt &&
        grep -q 'dynaspam_cluster_workers_connected 2' probe.txt &&
        grep -Eq "$WARMUPS 0" probe.txt &&
        ! grep -Eq "$WARMUPS [1-9]" probe.txt
}

start_worker() {
    "$BIN" worker --connect 127.0.0.1:$LINK_PORT --no-cache \
        --snapshot-cache ship-snaps &
    PIDS+=($!)
}

# Reference bytes: the single-process daemon, no caches.
"$BIN" serve --port 0 --jobs 2 --no-cache > serve.log &
SERVE=$!
PIDS+=($SERVE)
await grep -q 'serve: listening on' serve.log
SERVE_PORT=$(sed -n 's/.*serve: listening on [^ ]*:\([0-9]*\) .*/\1/p' serve.log)
await curl -sf -o /dev/null http://127.0.0.1:$SERVE_PORT/healthz
curl -sf -X POST http://127.0.0.1:$SERVE_PORT/sweep -d "$BODY" -o single.json
kill -TERM "$SERVE"
wait "$SERVE"

"$BIN" coordinator --port 0 --worker-port 0 --workers 2 > coordinator.log &
COORD=$!
PIDS+=($COORD)
await grep -q 'coordinator: serving HTTP on' coordinator.log
read -r COORD_PORT LINK_PORT < <(sed -n \
    's/.*serving HTTP on [^ ]*:\([0-9]*\), workers on :\([0-9]*\) .*/\1 \2/p' \
    coordinator.log)
METRICS=http://127.0.0.1:$COORD_PORT/metrics
await curl -sf -o /dev/null http://127.0.0.1:$COORD_PORT/healthz
start_worker
start_worker
GEN1=("${PIDS[@]: -2}")
await metrics_match 'dynaspam_cluster_workers_connected 2'

# Run 1: cold snapshot cache; the workers warm, persist and answer.
curl -sf -X POST http://127.0.0.1:$COORD_PORT/sweep -d "$BODY" -o cold.json
cmp single.json cold.json
test -n "$(ls ship-snaps/*.snap)"
# The warm passes show up in the gauge with the next pong.
await metrics_match "$WARMUPS [1-9]"
curl -sf "$METRICS" -o metrics-cold.txt

# Kill the whole first generation (crash, not drain).
kill -9 "${GEN1[@]}"
await metrics_match 'dynaspam_cluster_workers_connected 0'

# Fresh workers, same snapshot directory, still no result cache. Wait
# for their pongs to reset the warmup gauges.
start_worker
start_worker
GEN2=("${PIDS[@]: -2}")
await fresh_gauges

# Run 2 re-executes every job but forks from the on-disk snapshots:
# byte-identical again, and zero warm passes even after a full ping
# cycle has refreshed the gauges.
curl -sf -X POST http://127.0.0.1:$COORD_PORT/sweep -d "$BODY" -o warm.json
cmp single.json warm.json
sleep 3
curl -sf "$METRICS" -o metrics-warm.txt
grep -Eq "$WARMUPS 0" metrics-warm.txt
if grep -Eq "$WARMUPS [1-9]" metrics-warm.txt; then
    echo "second run re-warmed instead of loading snapshots" >&2
    exit 1
fi

# Graceful drain: the coordinator exits 0 and tells the workers goodbye.
# Wait for each worker on its own: given several PIDs, `wait` returns
# only the last one's status.
kill -TERM "$COORD"
wait "$COORD"
for pid in "${GEN2[@]}"; do
    wait "$pid"
done
echo "snapshot ship smoke: ok"
