#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the uuserve daemon: start it,
# create a table, ingest NDJSON observations, query, require a batch with
# a malformed line, and one with a row the schema rejects, to be rejected
# whole, read one live subscription event, then deliver SIGTERM and
# require a graceful drain (clean exit +
# tenant snapshot on disk + restored state on restart).
# Used by `make serve-smoke` locally and by the CI `ci` job.
set -euo pipefail

PORT="${UUSERVE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
SNAPDIR="$WORK/snapshots"
BIN="$WORK/uuserve"
LOG="$WORK/uuserve.log"
SERVER_PID=""

cleanup() {
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -9 "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- uuserve log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

wait_healthy() {
    for _ in $(seq 1 100); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "daemon never became healthy on $BASE"
}

echo "serve-smoke: building uuserve"
go build -o "$BIN" ./cmd/uuserve

echo "serve-smoke: starting daemon on :$PORT (snapshots in $SNAPDIR)"
"$BIN" -addr "127.0.0.1:$PORT" -snapshot-dir "$SNAPDIR" >"$LOG" 2>&1 &
SERVER_PID=$!
wait_healthy

echo "serve-smoke: creating table"
curl -sf -X POST "$BASE/v1/tables" -H 'X-Tenant: smoke' \
    -d '{"name": "obs", "schema": [{"name": "v", "type": "float"}]}' >/dev/null \
    || fail "create table"

echo "serve-smoke: ingesting 200 observations"
{
    for i in $(seq 0 199); do
        printf '{"entity": "e%d", "source": "s%d", "attrs": {"v": %d}}\n' "$i" "$((i % 8))" "$((i % 97))"
    done
} | curl -sf -X POST "$BASE/v1/ingest?table=obs" -H 'X-Tenant: smoke' --data-binary @- >/dev/null \
    || fail "ingest"

echo "serve-smoke: querying"
OBSERVED="$(curl -sf -X POST "$BASE/v1/query" -H 'X-Tenant: smoke' \
    -d '{"sql": "SELECT COUNT(*) FROM obs"}' | jq -r .observed)" || fail "query"
[ "$OBSERVED" = "200" ] || fail "COUNT(*) observed $OBSERVED, want 200"

# 5000 good rows fill several per-shard staging chunks before the bad
# line, so rows staged while decoding would already be applied.
echo "serve-smoke: a batch with a malformed last line applies nothing"
BAD="$WORK/bad.ndjson"
{
    for i in $(seq 200 5199); do
        printf '{"entity": "e%d", "source": "s%d", "attrs": {"v": %d}}\n' "$i" "$((i % 8))" "$((i % 97))"
    done
    printf '{"entity": "e300", "source": "s0", "attrs": {"v": \n'
} >"$BAD"
STATUS="$(curl -s -o "$WORK/bad.out" -w '%{http_code}' -X POST "$BASE/v1/ingest?table=obs" -H 'X-Tenant: smoke' \
    --data-binary @"$BAD")"
[ "$STATUS" = "400" ] || fail "malformed batch: status $STATUS, want 400: $(cat "$WORK/bad.out")"
jq -e '.kind == "bad_request" and (.error | startswith("line 5001:"))' "$WORK/bad.out" >/dev/null \
    || fail "malformed batch: error body $(cat "$WORK/bad.out")"
curl -sf "$BASE/v1/stats" | jq -e '.tenants.smoke.ingested_rows == 200' >/dev/null \
    || fail "malformed batch changed ingested_rows"
OBSERVED="$(curl -sf -X POST "$BASE/v1/query" -H 'X-Tenant: smoke' \
    -d '{"sql": "SELECT COUNT(*) FROM obs"}' | jq -r .observed)" || fail "query after malformed batch"
[ "$OBSERVED" = "200" ] || fail "COUNT(*) after malformed batch observed $OBSERVED, want 200"

# The same rows with a last row the table's schema rejects: it is found
# while decoding, so this batch applies nothing either.
echo "serve-smoke: a batch with an unknown column in its last row applies nothing"
sed '$d' "$BAD" >"$WORK/schema.ndjson"
printf '{"entity": "e300", "source": "s0", "attrs": {"ghost": 1}}\n' >>"$WORK/schema.ndjson"
STATUS="$(curl -s -o "$WORK/bad.out" -w '%{http_code}' -X POST "$BASE/v1/ingest?table=obs" -H 'X-Tenant: smoke' \
    --data-binary @"$WORK/schema.ndjson")"
[ "$STATUS" = "404" ] || fail "unknown-column batch: status $STATUS, want 404: $(cat "$WORK/bad.out")"
jq -e '.kind == "unknown_column" and (.error | startswith("line 5001:"))' "$WORK/bad.out" >/dev/null \
    || fail "unknown-column batch: error body $(cat "$WORK/bad.out")"
OBSERVED="$(curl -sf -X POST "$BASE/v1/query" -H 'X-Tenant: smoke' \
    -d '{"sql": "SELECT COUNT(*) FROM obs"}' | jq -r .observed)" || fail "query after unknown-column batch"
[ "$OBSERVED" = "200" ] || fail "COUNT(*) after unknown-column batch observed $OBSERVED, want 200"

echo "serve-smoke: second tenant is isolated"
STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/query" -H 'X-Tenant: other' \
    -d '{"sql": "SELECT COUNT(*) FROM obs"}')"
[ "$STATUS" = "404" ] || fail "other tenant saw smoke's table (status $STATUS)"

echo "serve-smoke: subscribing (one live event)"
SSE="$(curl -sf -N --max-time 10 "$BASE/v1/subscribe?tenant=smoke&sql=SELECT%20COUNT(*)%20FROM%20obs" | head -n 2)" \
    || true
echo "$SSE" | grep -q "event: estimate" || fail "subscription emitted no estimate event: $SSE"

echo "serve-smoke: stats"
curl -sf "$BASE/v1/stats" | jq -e '.tenants.smoke.ingested_rows == 200' >/dev/null \
    || fail "stats did not report 200 ingested rows"

echo "serve-smoke: SIGTERM -> graceful drain"
kill -TERM "$SERVER_PID"
DRAIN_OK=0
for _ in $(seq 1 100); do
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        DRAIN_OK=1
        break
    fi
    sleep 0.1
done
[ "$DRAIN_OK" = "1" ] || fail "daemon did not exit within 10s of SIGTERM"
wait "$SERVER_PID" || fail "daemon exited non-zero after SIGTERM"
SERVER_PID=""
grep -q "drained cleanly" "$LOG" || fail "daemon log missing 'drained cleanly'"
[ -f "$SNAPDIR/smoke.json" ] || fail "tenant snapshot not written on shutdown"

echo "serve-smoke: restart restores the tenant"
"$BIN" -addr "127.0.0.1:$PORT" -snapshot-dir "$SNAPDIR" >"$LOG" 2>&1 &
SERVER_PID=$!
wait_healthy
OBSERVED="$(curl -sf -X POST "$BASE/v1/query" -H 'X-Tenant: smoke' \
    -d '{"sql": "SELECT COUNT(*) FROM obs"}' | jq -r .observed)" || fail "restored query"
[ "$OBSERVED" = "200" ] || fail "restored COUNT(*) observed $OBSERVED, want 200"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
SERVER_PID=""

echo "serve-smoke: OK"
