#!/usr/bin/env bash
# The sweep service with real processes: one coordinator + three
# workers. A sharded Figure 8 sweep must byte-match the serve daemon's
# report for the same body even when one worker is SIGKILLed mid-sweep
# (the coordinator reassigns the dead shard's batch), and the
# coordinator must keep serving afterwards and drain cleanly.
#
#   cluster_kill.sh DYNASPAM_BINARY WORK_DIR
#
# The daemons listen on ports the kernel picks (--port 0,
# --worker-port 0) and report them in their status lines, which the
# script reads back. Exits 0 on success, 77 (ctest skip) when curl is
# missing, 1 on any failure. WORK_DIR keeps the reports, daemon logs
# and the /metrics scrape.

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

BODY='{"sweep": "fig8", "trace_length": 32}'

# Reference bytes: the serve daemon, cold cache.
"$BIN" serve --port 0 --jobs 2 --cache .ref-cache > serve.log &
SERVE=$!
PIDS+=($SERVE)
await grep -q 'serve: listening on' serve.log
SERVE_PORT=$(sed -n 's/.*serve: listening on [^ ]*:\([0-9]*\) .*/\1/p' serve.log)
await curl -sf -o /dev/null http://127.0.0.1:$SERVE_PORT/healthz
curl -sf -X POST http://127.0.0.1:$SERVE_PORT/sweep -d "$BODY" -o single.json
kill -TERM "$SERVE"
wait "$SERVE"

# The cluster, cold per-shard caches.
"$BIN" coordinator --port 0 --worker-port 0 --workers 3 > coordinator.log &
COORD=$!
PIDS+=($COORD)
await grep -q 'coordinator: serving HTTP on' coordinator.log
read -r COORD_PORT LINK_PORT < <(sed -n \
    's/.*serving HTTP on [^ ]*:\([0-9]*\), workers on :\([0-9]*\) .*/\1 \2/p' \
    coordinator.log)
URL=http://127.0.0.1:$COORD_PORT
await curl -sf -o /dev/null "$URL/healthz"
WORKERS=()
for w in 0 1 2; do
    "$BIN" worker --connect 127.0.0.1:$LINK_PORT --cache ".worker$w-cache" \
        > "worker$w.log" 2>&1 &
    WORKERS+=($!)
    PIDS+=($!)
done
metrics_match() { curl -sf "$URL/metrics" | grep -q "$1"; }
await metrics_match 'dynaspam_cluster_workers_connected 3'
VICTIM_SLOT=$(sed -n 's/.*joined as slot \([0-9]*\)\/.*/\1/p' worker1.log)
HOLDING="dynaspam_cluster_worker_inflight{worker=\"$VICTIM_SLOT\"} 1"

# Fan the sweep out, then crash one worker while its shard batch is
# still executing: the sweep lasts well under a second on a fast host,
# so poll the victim's inflight gauge rather than sleeping.
curl -sf -X POST "$URL/sweep" -d "$BODY" -o cluster.json &
CURL=$!
for _ in $(seq 1 1500); do
    metrics_match "$HOLDING" && break
    sleep 0.02
done
kill -9 "${WORKERS[1]}"
wait "$CURL"    # -f: fails unless the sweep got a 200

# The crash dropped nothing and changed no bytes.
cmp single.json cluster.json

# The coordinator noticed, reassigned, and kept serving.
curl -sf "$URL/metrics" -o metrics.txt
grep -q 'dynaspam_cluster_workers_connected 2' metrics.txt
grep -q 'dynaspam_cluster_batch_retries_total{' metrics.txt
curl -sf "$URL/healthz" | grep -q '"ok"'

# Graceful drain: the coordinator exits 0, the surviving workers too.
# Wait for each on its own: given several PIDs, `wait` returns only the
# last one's status.
kill -TERM "$COORD"
wait "$COORD"
wait "${WORKERS[0]}"
wait "${WORKERS[2]}"
echo "cluster kill smoke: ok"
