#!/usr/bin/env bash
# Trace-ingestion smoke test (DESIGN.md §12), driven by `make trace-smoke`
# and the CI trace-smoke job: record → ingest → info → serve, then a
# predict-from-trace must return the same prediction as the synthetic
# generator path bit for bit, from exactly its own two timing
# simulations, and its repeat must be a byte-identical cache hit.
# `gsim mrc` of the trace must print the curve a full-path predict embeds.
set -euo pipefail

GSIM=${GSIM:-target/release/gsim}
WORK=$(mktemp -d)
cleanup() {
    [ -n "${SERVER:-}" ] && kill "$SERVER" 2>/dev/null || true
    [ -n "${HOLD:-}" ] && kill "$HOLD" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# --- 1. The CLI store workflow.
"$GSIM" trace record gemm -o "$WORK/gemm.gstr"
"$GSIM" trace ingest "$WORK/gemm.gstr" --store "$WORK/store"
"$GSIM" trace info "$WORK/gemm.gstr"
"$GSIM" trace ls --store "$WORK/store"
REF=$("$GSIM" trace ls --store "$WORK/store" | awk '{print $1}')
[ "${#REF}" -eq 16 ] || { echo "bad trace ref: $REF"; exit 1; }

# `gsim mrc` collects the trace's curve, named by file or by its stored
# ref, over the 8..128-SM ladder: the curve a full-path predict to 128
# SMs (the default targets) embeds.
"$GSIM" mrc "$WORK/gemm.gstr" | tee "$WORK/mrc.txt"
"$GSIM" mrc "$REF" --store "$WORK/store" | cmp - "$WORK/mrc.txt"
"$GSIM" predict gemm --path full > "$WORK/predict.json"
python3 - "$WORK/mrc.txt" "$WORK/predict.json" <<'EOF'
import json, sys
# The curve lines read "  <size> SMs  <llc> MB  MPKI <mpki>   <region>".
curve = {int(l.split()[0]): l.split("MPKI")[1].split()[0] for l in open(sys.argv[1]) if "MPKI" in l}
embedded = json.load(open(sys.argv[2]))["mrc"]
assert sorted(curve) == [size for size, _ in embedded], (curve, embedded)
for size, mpki in embedded:
    assert curve[size] == f"{mpki:.2f}", (size, curve[size], mpki)
print("gsim mrc of the trace prints the curve a full-path predict embeds")
EOF

# Broken inputs exit with their distinct codes.
echo "definitely not a trace" > "$WORK/junk.gstr"
set +e
"$GSIM" trace info "$WORK/junk.gstr" 2>/dev/null
CODE=$?
set -e
[ "$CODE" -eq 3 ] || { echo "expected exit 3 for junk, got $CODE"; exit 1; }

# --- 2. The service: synthetic predict, trace upload, trace_ref predict.
mkfifo "$WORK/stdin"
sleep 300 > "$WORK/stdin" &
HOLD=$!
"$GSIM" serve --addr 127.0.0.1:0 --cache-dir "$WORK/cache" \
    --store "$WORK/servestore" < "$WORK/stdin" > "$WORK/serve.log" 2>&1 &
SERVER=$!
for _ in $(seq 1 50); do
    grep -q "listening on" "$WORK/serve.log" && break
    sleep 0.2
done
ADDR=$(grep -oE '[0-9.]+:[0-9]+' "$WORK/serve.log" | head -1)
echo "server at $ADDR"

# Pinned to the full path: this smoke is about the timing simulations,
# which the functional-first fast path skips.
curl -sf -X POST "http://$ADDR/v1/predict" \
    -d '{"workload": "gemm", "targets": [32, 64], "path": "full"}' -o "$WORK/synthetic.json"
SIMS=$(curl -sf "http://$ADDR/metrics" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["timing_sims_started"])')
echo "timing sims after synthetic predict: $SIMS"

curl -sf -X POST "http://$ADDR/v1/traces" \
    --data-binary @"$WORK/gemm.gstr" -o "$WORK/upload.json"
python3 - "$WORK/upload.json" "$REF" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ref"] == sys.argv[2], (doc, sys.argv[2])
assert doc["deduplicated"] is False, doc
print("uploaded:", doc["ref"])
EOF

curl -sf -X POST "http://$ADDR/v1/predict" \
    -d "{\"trace_ref\": \"$REF\", \"targets\": [32, 64], \"path\": \"full\"}" -o "$WORK/traced.json"
curl -sf "http://$ADDR/metrics" -o "$WORK/metrics.json"
python3 - "$WORK/synthetic.json" "$WORK/traced.json" "$WORK/metrics.json" "$SIMS" <<'EOF'
import json, sys
syn = json.load(open(sys.argv[1]))
traced = json.load(open(sys.argv[2]))
m = json.load(open(sys.argv[3]))
sims_before = int(sys.argv[4])
for key in ("scale_models", "mrc", "correction_factor", "cliff_at", "predictions"):
    assert syn[key] == traced[key], (key, syn[key], traced[key])
assert m["timing_sims_started"] == sims_before + 2, m
assert m["predict"]["from_trace"] == 1, m["predict"]
assert m["trace_store"]["ingests"] == 1, m["trace_store"]
print("prediction bit-identical to the synthetic path, from its own 2 timing sims")
EOF

# The same trace predict again is a cache hit: the same bytes, no new
# timing simulation, and still counted as a trace predict.
curl -sf -D "$WORK/again.headers" -X POST "http://$ADDR/v1/predict" \
    -d "{\"trace_ref\": \"$REF\", \"targets\": [32, 64], \"path\": \"full\"}" -o "$WORK/again.json"
grep -qi '^X-Gsim-Cache: hit' "$WORK/again.headers" ||
    { echo "repeat trace predict was not a cache hit"; cat "$WORK/again.headers"; exit 1; }
cmp "$WORK/traced.json" "$WORK/again.json"
curl -sf "http://$ADDR/metrics" -o "$WORK/metrics-again.json"
python3 - "$WORK/metrics.json" "$WORK/metrics-again.json" <<'EOF'
import json, sys
before = json.load(open(sys.argv[1]))
after = json.load(open(sys.argv[2]))
assert after["timing_sims_started"] == before["timing_sims_started"], after
assert after["predict"]["from_trace"] == 2, after["predict"]
print("repeat trace predict: cache hit, byte-identical, no new timing sims")
EOF

curl -sf -X POST "http://$ADDR/v1/shutdown" > /dev/null
wait "$SERVER"
SERVER=
echo "trace smoke OK"
