#!/usr/bin/env bash
# Smoke-test the availserve daemon end to end: build it, start it,
# push one run through the HTTP API, verify the identical repeat is
# served from the cache, and check SIGTERM drains to a clean exit 0.
# Then exercise the self-healing fleet: an elastic worker is kill -9'd
# mid-run and restarted, and the run must still complete.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${AVAILSERVE_SMOKE_PORT:-18099}"
PORT2="${AVAILSERVE_SMOKE_PORT2:-18100}"
SPORT="${AVAILSERVE_SMOKE_SHARD_PORT:-18101}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/availserve" ./cmd/availserve
go build -o "$TMP/availsim" ./cmd/availsim

"$TMP/availserve" -listen "127.0.0.1:$PORT" -local-procs 2 2>"$TMP/serve.log" &
PID=$!
trap 'kill -9 $PID 2>/dev/null || true; rm -rf "$TMP"' EXIT

for _ in $(seq 1 100); do
  curl -sf "http://127.0.0.1:$PORT/v1/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://127.0.0.1:$PORT/v1/healthz" | grep -q '"status":"ok"' || {
  echo "FAIL: daemon never became healthy"; cat "$TMP/serve.log"; exit 1
}

REQ='{
  "params": {
    "disks": 4,
    "ttf": {"family": "exponential", "params": [1e-6]},
    "repair": {"family": "deterministic", "params": [30]},
    "tape_restore": {"family": "deterministic", "params": [48]},
    "he_recovery": {"family": "deterministic", "params": [8]},
    "hep": 0.01
  },
  "options": {"iterations": 5000, "mission_time": 87600, "seed": 42}
}'

echo "--- first request (fresh run) ---"
R1="$(curl -sf -X POST "http://127.0.0.1:$PORT/v1/run" -d "$REQ")"
echo "$R1" | head -c 400; echo
echo "$R1" | grep -q '"Availability":'   || { echo "FAIL: no Availability in response"; exit 1; }
echo "$R1" | grep -q '"cached":false'    || { echo "FAIL: first request claimed cached"; exit 1; }
echo "$R1" | grep -qE '"fingerprint":"[0-9a-f]{32}"' || { echo "FAIL: no 32-hex-digit fingerprint"; exit 1; }

echo "--- repeat request (cache hit) ---"
R2="$(curl -sf -X POST "http://127.0.0.1:$PORT/v1/run" -d "$REQ")"
echo "$R2" | grep -q '"cached":true'     || { echo "FAIL: repeat request not cached"; exit 1; }
SUM1="${R1#*\"summary\":}"; SUM2="${R2#*\"summary\":}"
[ "$SUM1" = "$SUM2" ]                    || { echo "FAIL: cached summary differs"; exit 1; }

echo "--- cache stats ---"
STATS="$(curl -sf "http://127.0.0.1:$PORT/v1/cache")"
echo "$STATS"
echo "$STATS" | grep -q '"hits":1'       || { echo "FAIL: expected exactly one cache hit"; exit 1; }
echo "$STATS" | grep -q '"inserts":1'    || { echo "FAIL: expected exactly one insert"; exit 1; }

echo "--- graceful drain (SIGTERM) ---"
kill -TERM $PID
CODE=0
wait $PID || CODE=$?
[ "$CODE" -eq 0 ] || { echo "FAIL: daemon exited $CODE after SIGTERM"; cat "$TMP/serve.log"; exit 1; }
grep -q "drained, exiting" "$TMP/serve.log" || { echo "FAIL: no drain message"; cat "$TMP/serve.log"; exit 1; }

echo "--- worker kill-and-restart mid-run ---"
# A coordinator with only elastic workers; the worker supervises its
# join (default -join-retry) so the restarted process redials on its own.
"$TMP/availserve" -listen "127.0.0.1:$PORT2" -shard-listen "127.0.0.1:$SPORT" \
  -shard-token sm0ke -shard-heartbeat 100ms -local-procs 0 2>"$TMP/serve2.log" &
PID2=$!
trap 'kill -9 $PID $PID2 2>/dev/null || true; rm -rf "$TMP"' EXIT

for _ in $(seq 1 100); do
  curl -sf "http://127.0.0.1:$PORT2/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

start_worker() {
  # One core so the long run is provably still in flight at the kill.
  GOMAXPROCS=1 "$TMP/availsim" -shard-join "127.0.0.1:$SPORT" -shard-capacity 1 \
    -shard-token sm0ke -shard-heartbeat 100ms 2>>"$TMP/worker.log" &
  WPID=$!
}
start_worker
for _ in $(seq 1 100); do
  curl -sf "http://127.0.0.1:$PORT2/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://127.0.0.1:$PORT2/readyz" >/dev/null || {
  echo "FAIL: coordinator never became ready with a joined worker"; cat "$TMP/serve2.log"; exit 1
}

# A run long enough (~3s on one core) to straddle the worker's death.
LONGREQ="${REQ/5000/30000000}"
curl -sf -X POST "http://127.0.0.1:$PORT2/v1/run" -d "$LONGREQ" >"$TMP/long.json" &
CURLPID=$!
sleep 0.5
kill -9 "$WPID" 2>/dev/null || true
start_worker
trap 'kill -9 $PID $PID2 $WPID 2>/dev/null || true; rm -rf "$TMP"' EXIT

CODE=0
wait $CURLPID || CODE=$?
[ "$CODE" -eq 0 ] || { echo "FAIL: run across worker restart failed"; cat "$TMP/serve2.log" "$TMP/worker.log"; exit 1; }
grep -q '"Availability":' "$TMP/long.json" || { echo "FAIL: no Availability after worker restart"; cat "$TMP/long.json"; exit 1; }
JOINS="$(grep -c "joined" "$TMP/serve2.log" || true)"
[ "$JOINS" -ge 2 ] || { echo "FAIL: expected a rejoin after kill ($JOINS joins)"; cat "$TMP/serve2.log"; exit 1; }

kill -TERM $PID2
CODE=0
wait $PID2 || CODE=$?
[ "$CODE" -eq 0 ] || { echo "FAIL: coordinator exited $CODE after SIGTERM"; cat "$TMP/serve2.log"; exit 1; }
kill "$WPID" 2>/dev/null || true

echo "PASS: availserve smoke"
