#!/usr/bin/env bash
# Chaos smoke test (DESIGN.md §13), driven by `make chaos-smoke` and the
# CI chaos-smoke job: boot `gsim serve` with a deterministic fault plan
# and a deliberately tiny predict budget, drive it at roughly twice
# saturation with the closed-loop `serve_bench` generator, and hold the
# overload contract:
#
#   - every answered request is 200/400/404/429/503/504 — no 500s from
#     overload or injected faults, no hangs, no truncation other than the
#     injected disconnects;
#   - every 429 carries a Retry-After header (serve_bench exits 1 itself
#     if one is missing);
#   - shutdown under load drains within the grace period;
#   - serve_bench's summary, kept in the script's temp dir, is
#     schema-valid.
set -euo pipefail

GSIM=${GSIM:-target/release/gsim}
BENCH=${BENCH:-target/release/serve_bench}
# Deterministic, moderate chaos: enough injected delay/disconnect/panic
# to exercise every recovery path, not so much that nothing completes.
FAULT_PLAN="seed=42,http_delay_p=0.05,http_delay_ms=20,http_disconnect_p=0.02,job_panic_p=0.05,store_read_delay_p=0.1,store_read_delay_ms=5"

WORK=$(mktemp -d)
cleanup() {
    [ -n "${SERVER:-}" ] && kill "$SERVER" 2>/dev/null || true
    [ -n "${HOLD:-}" ] && kill "$HOLD" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# Hold stdin open with a fifo: the server shuts down on stdin EOF.
mkfifo "$WORK/stdin"
sleep 300 > "$WORK/stdin" &
HOLD=$!
# --max-inflight-predicts 2 with 16 closed-loop clients is ~8x the predict
# budget, comfortably past 2x saturation for the whole run.
"$GSIM" serve --addr 127.0.0.1:0 --cache-dir "$WORK/cache" \
    --store "$WORK/store" \
    --max-inflight-predicts 2 --fault-plan "$FAULT_PLAN" \
    < "$WORK/stdin" > "$WORK/serve.log" 2>&1 &
SERVER=$!
for _ in $(seq 1 50); do
    grep -q "listening on" "$WORK/serve.log" && break
    sleep 0.2
done
ADDR=$(grep -oE '[0-9.]+:[0-9]+' "$WORK/serve.log" | head -1)
grep -q "fault injection ACTIVE" "$WORK/serve.log" || {
    echo "fault plan not installed"; cat "$WORK/serve.log"; exit 1
}
echo "server at $ADDR under plan: $FAULT_PLAN"

# serve_bench exits non-zero on a missing Retry-After, so the contract
# check runs even before the validator below.
"$BENCH" --addr "$ADDR" --duration-secs "${DURATION:-10}" \
    --concurrency 16 --seed 42 --deadline-ms 30000 -o "$WORK/summary.json"

# Shutdown under whatever load is left must drain within the grace.
START=$(date +%s)
curl -sf -X POST "http://$ADDR/v1/shutdown" > /dev/null
wait "$SERVER"
SERVER=
ELAPSED=$(( $(date +%s) - START ))
[ "$ELAPSED" -le 7 ] || { echo "drain took ${ELAPSED}s (> grace + slack)"; exit 1; }
echo "drained in ${ELAPSED}s"

python3 - "$WORK/summary.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "gsim-serve-bench-v1", doc["schema"]
for key in ("requests", "answered", "rps", "p50_us", "p99_us", "shed", "shed_rate",
            "by_status", "transport_errors", "retry_after_missing", "seed", "concurrency"):
    assert key in doc, f"missing {key}"
assert doc["requests"] > 0 and doc["answered"] > 0, doc
by_status = {int(k): v for k, v in doc["by_status"].items()}
allowed = {200, 400, 404, 429, 503, 504}
bad = {s: n for s, n in by_status.items() if s not in allowed}
assert not bad, f"disallowed statuses under chaos: {bad}"
assert 500 not in by_status, "a 500 leaked through the overload path"
assert doc["retry_after_missing"] == 0, doc
assert doc["by_status"].get("429", 0) > 0, \
    "2x saturation never shed -- admission gate not engaged?"
assert doc["rps"] > 0 and doc["p99_us"] > 0, doc
print(f"chaos OK: {doc['requests']} requests, {doc['rps']:.1f} rps sustained, "
      f"p99 {doc['p99_us']/1000:.1f}ms, shed rate {doc['shed_rate']:.2%}, "
      f"{doc['transport_errors']} injected disconnects")
EOF
echo "chaos smoke OK"
