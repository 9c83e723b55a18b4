#!/usr/bin/env bash
# End-to-end smoke of spacx-serve under the race detector: concurrent mixed
# /v1 requests with heavy duplication (so the response cache and
# singleflight engage), metric assertions, an async job followed over SSE to
# completion with its trace asserted on /traces/{id}, thermal replays, then
# a SIGTERM drain that must flip /readyz to 503 and exit cleanly within the
# linger window.
#
# Invoked by `make api-smoke` and the CI workflow; run from the repo root.
set -euo pipefail

ADDR="${SPACX_SERVE_ADDR:-127.0.0.1:19801}"
BIN="${TMPDIR:-/tmp}/spacx-serve-race"
OUT="${TMPDIR:-/tmp}/spacx-serve-smoke"

go build -race -o "$BIN" ./cmd/spacx-serve
rm -rf "$OUT"
mkdir -p "$OUT"

"$BIN" -http "$ADDR" -j 4 -queue 128 -http-linger 5s 2>"$OUT/serve.log" &
server=$!
trap 'kill -9 "$server" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  curl -sf "http://$ADDR/healthz" >/dev/null && break
  sleep 0.1
done
curl -sf "http://$ADDR/readyz" >/dev/null
curl -sf "http://$ADDR/v1/models" | grep -q '"alexnet"'
curl -sf "http://$ADDR/v1/accelerators" | grep -q '"spacx"'

# ~50 concurrent requests across a handful of distinct queries: every query
# repeats, so duplicates must coalesce in flight or hit the cache.
bodies=(
  '{"model": "alexnet", "accel": "spacx"}'
  '{"model": "alexnet", "accel": "spacx"}'
  '{"model": "alexnet", "accel": "simba"}'
  '{"model": "mobilenetv2", "accel": "spacx", "mode": "layer"}'
  '{"model": "alexnet", "accel": "popstar", "batch": 4}'
)
pids=()
n=0
for _ in $(seq 1 10); do
  for body in "${bodies[@]}"; do
    n=$((n + 1))
    curl -s -o "$OUT/resp.$n" -w '%{http_code}' -X POST -d "$body" \
      "http://$ADDR/v1/simulate" > "$OUT/code.$n" &
    pids+=($!)
  done
done
for pid in "${pids[@]}"; do
  wait "$pid"
done

for f in "$OUT"/code.*; do
  if ! grep -qx 200 "$f"; then
    echo "non-200 response: $f = $(cat "$f"), body ${f/code/resp}:"
    cat "${f/code/resp}"
    exit 1
  fi
done
# Duplicated queries return byte-identical bodies (resp.1 and resp.2 are the
# same alexnet-on-spacx request).
cmp -s "$OUT/resp.1" "$OUT/resp.2" || { echo "duplicate responses differ"; exit 1; }

# A sweep resolves through the same cache, so every point succeeds.
curl -sf -X POST -d '{"models": ["alexnet"], "accels": ["spacx", "simba"]}' \
  "http://$ADDR/v1/sweep" | grep -q '"exec_sec"'

# Thermal co-simulation: a short feedback-on replay answers with the
# schema-versioned report, and its gauges land on /metrics below.
curl -sf -X POST -d '{"model": "alexnet", "mode": "layer", "profile": "step", "steps": 60}' \
  "http://$ADDR/v1/thermal" > "$OUT/thermal.json"
python3 - "$OUT/thermal.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["Schema"] == "spacx.thermal-replay/v1", r["Schema"]
assert len(r["Series"]) == 60, len(r["Series"])
assert r["Series"][-1]["MaxChipletK"] > r["CalibrationK"], "no temperature rise"
PY

# Duplicates collapsed: the cache-hit counter moved, and far fewer engine
# runs happened than requests were made.
curl -sf "http://$ADDR/metrics" > "$OUT/metrics.prom"
grep -q '^spacx_serve_requests_total' "$OUT/metrics.prom"
hits=$(awk '$1 == "spacx_serve_cache_hits_total" {print $2}' "$OUT/metrics.prom")
awk -v h="${hits:-0}" 'BEGIN { if (h + 0 <= 0) { print "no cache hits recorded"; exit 1 } }'
runs=$(awk '$1 == "spacx_serve_engine_runs_total" {print $2}' "$OUT/metrics.prom")
awk -v r="${runs:-0}" -v n="$n" 'BEGIN { if (r + 0 <= 0 || r + 0 >= n) { printf "engine runs %s out of bounds (0, %d)\n", r, n; exit 1 } }'
# Latency comes from the span histogram: the request root span and the
# simulator run each have a series.
for span in serve:simulate sim:model; do
  grep -q "^spacx_trace_span_seconds_count{span=\"$span\"} [1-9]" "$OUT/metrics.prom" \
    || { echo "no spacx_trace_span_seconds samples for span $span on /metrics"; exit 1; }
done
grep -q '^spacx_thermal_max_chiplet_kelvin' "$OUT/metrics.prom" \
  || { echo "no spacx_thermal_* gauges on /metrics"; exit 1; }
grep -q '^spacx_thermal_steps_total' "$OUT/metrics.prom" \
  || { echo "no spacx_thermal_steps_total counter on /metrics"; exit 1; }

# Every /v1 response carries a trace id whose span tree is retrievable.
trace=$(curl -sf -D - -o /dev/null -X POST -d '{"model": "alexnet", "accel": "spacx"}' \
  "http://$ADDR/v1/simulate" | awk 'tolower($1) == "x-spacx-trace:" {print $2}' | tr -d '\r')
test -n "$trace" || { echo "no X-Spacx-Trace header on /v1/simulate"; exit 1; }
curl -sf "http://$ADDR/traces/$trace" > "$OUT/trace.json"
grep -q '"serve:simulate"' "$OUT/trace.json" || { echo "trace $trace has no serve:simulate span"; exit 1; }
grep -q '"cache:lookup"' "$OUT/trace.json" || { echo "trace $trace has no cache:lookup span"; exit 1; }

# Async job: submit a sweep, follow its SSE stream to the terminal event,
# then fetch the finished result.
job=$(curl -sf -X POST -d '{"models": ["alexnet"], "accels": ["spacx", "simba"]}' \
  "http://$ADDR/v1/jobs" | python3 -c 'import json, sys; print(json.load(sys.stdin)["id"])')
test -n "$job" || { echo "job submission returned no id"; exit 1; }
curl -sf -N --max-time 30 "http://$ADDR/v1/jobs/$job/events" > "$OUT/events.sse" || true
grep -q '^event: progress$' "$OUT/events.sse" || { echo "SSE stream had no progress event"; cat "$OUT/events.sse"; exit 1; }
grep -q '^event: done$' "$OUT/events.sse" || { echo "SSE stream never reached done"; cat "$OUT/events.sse"; exit 1; }
curl -sf "http://$ADDR/v1/jobs/$job" > "$OUT/job.json"
python3 - "$OUT/job.json" <<'PY'
import json, sys
j = json.load(open(sys.argv[1]))
assert j["state"] == "done", j["state"]
assert j["done_points"] == j["total_points"] == 2, (j["done_points"], j["total_points"])
assert j["trace_id"], "job has no trace id"
assert j["result"]["points"], "done job has no result points"
PY
jobtrace=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["trace_id"])' "$OUT/job.json")
curl -sf "http://$ADDR/traces/$jobtrace" | grep -q '"job:sweep"' \
  || { echo "job trace $jobtrace has no job:sweep span"; exit 1; }

# Thermal replay long enough to degrade: a sustained full-load step profile
# must end saturated and throttled, with capacity lost over the replay.
curl -sf -X POST -d '{"model": "alexnet", "mode": "layer", "profile": "step", "steps": 180}' \
  "http://$ADDR/v1/thermal" > "$OUT/thermal-step.json"
python3 - "$OUT/thermal-step.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
last = r["Series"][-1]
assert last["Saturated"] and last["Throttle"] < 1, last
assert r["Summary"]["CapacityLossPct"] > 0, r["Summary"]
PY

# SIGTERM: readiness flips to 503 while the server drains, a final scrape
# releases the linger, and the process exits 0 well inside the window.
kill -TERM "$server"
start=$(date +%s)
ready=0
for _ in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz" || true)
  if [ "$code" = 503 ]; then ready=1; break; fi
  sleep 0.1
done
test "$ready" = 1 || { echo "/readyz never flipped to 503 during drain"; exit 1; }
curl -sf "http://$ADDR/metrics" >/dev/null || true
status=0
wait "$server" || status=$?
elapsed=$(( $(date +%s) - start ))
test "$status" -eq 0 || { echo "spacx-serve exited $status"; exit 1; }
test "$elapsed" -le 10 || { echo "drain took ${elapsed}s, linger window is 5s"; exit 1; }
if grep -q 'DATA RACE' "$OUT/serve.log"; then
  echo "race detected:"; cat "$OUT/serve.log"; exit 1
fi

trap - EXIT
echo "api smoke ok ($n simulate requests, $hits cache hits, $runs engine runs, job $job done, drain ${elapsed}s)"
