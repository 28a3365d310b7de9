#!/bin/sh
# shard-smoke.sh — end-to-end smoke test of peer mode.
#
# Builds the real cmd/experiments binary and boots a fleet of three
# replicas (r0, r1, r2) that share ONE trace-cache directory — so
# their build leases, named by their peer ids, coordinate the spill
# builds — plus a coordinator-only observer whose id is on
# nobody's hash ring, so it owns zero sweep points and must assemble
# its whole answer from peer shards. Then:
#   1. fetches figure4 as CSV from a solo daemon (its own cache dir),
#   2. fetches the same exhibit through the observer,
#   3. diffs the two byte-for-byte,
#   4. asserts the observer's /metrics prove points were fetched from
#      peers with zero fetch errors (no silent local fallback),
#   5. SIGTERMs all four daemons and asserts clean drains.
set -eu

GO="${GO:-go}"
EXHIBIT="${EXHIBIT:-figure4}"
WARMUP="${WARMUP:-20000}"
MEASURE="${MEASURE:-60000}"

tmp="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "shard-smoke: building cmd/experiments"
"$GO" build -o "$tmp/experiments" ./cmd/experiments

# The fleet list must be complete before any replica starts, so the
# ports cannot be ephemeral; ask the OS for four free ones up front.
if command -v python3 >/dev/null 2>&1; then
    ports="$(python3 -c '
import socket
socks = [socket.socket() for _ in range(4)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks:
    s.close()
')"
else
    ports="28471 28472 28473 28474"
fi
set -- $ports
p0=$1 p1=$2 p2=$3 p3=$4
peers="r0=http://127.0.0.1:$p0,r1=http://127.0.0.1:$p1,r2=http://127.0.0.1:$p2"

echo "shard-smoke: starting solo daemon"
"$tmp/experiments" -serve 127.0.0.1:0 \
    -warmup "$WARMUP" -measure "$MEASURE" \
    -trace-cache-dir "$tmp/solo-atrace" >"$tmp/solo.log" 2>&1 &
pids="$pids $!"

echo "shard-smoke: starting 3 replicas sharing $tmp/atrace plus a non-owner observer"
for member in "r0=$p0" "r1=$p1" "r2=$p2" "obs=$p3"; do
    id="${member%%=*}"
    port="${member#*=}"
    "$tmp/experiments" -serve "127.0.0.1:$port" \
        -peer-id "$id" -peers "$peers" -lease-ttl 5s \
        -warmup "$WARMUP" -measure "$MEASURE" \
        -trace-cache-dir "$tmp/atrace" >"$tmp/$id.log" 2>&1 &
    pids="$pids $!"
done

wait_up() { # $1 = log file; prints the announced base URL
    _i=0
    while [ $_i -lt 100 ]; do
        _base="$(sed -n 's/^experiments: serving on //p' "$1" | head -n1)"
        if [ -n "$_base" ]; then printf '%s\n' "$_base"; return 0; fi
        sleep 0.1
        _i=$((_i + 1))
    done
    echo "shard-smoke: FAIL daemon behind $1 never announced its address" >&2
    cat "$1" >&2
    exit 1
}

solo_base="$(wait_up "$tmp/solo.log")"
for id in r0 r1 r2 obs; do
    wait_up "$tmp/$id.log" >/dev/null
done
obs_base="http://127.0.0.1:$p3"
echo "shard-smoke: solo at $solo_base, fleet at $peers, observer at $obs_base"

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

echo "shard-smoke: fetching $EXHIBIT from the solo daemon"
fetch "$solo_base/v1/exhibits/$EXHIBIT?format=csv" >"$tmp/solo.csv"

echo "shard-smoke: fetching $EXHIBIT through the non-owner observer"
fetch "$obs_base/v1/exhibits/$EXHIBIT?format=csv" >"$tmp/fleet.csv"

if ! diff -u "$tmp/solo.csv" "$tmp/fleet.csv"; then
    echo "shard-smoke: FAIL observer CSV differs from solo CSV" >&2
    exit 1
fi
echo "shard-smoke: observer and solo CSV are byte-identical"

fetch "$obs_base/metrics" >"$tmp/obs.metrics"
fetched="$(sed -n 's/^mlpsim_peer_points_fetched_total //p' "$tmp/obs.metrics")"
errors="$(sed -n 's/^mlpsim_peer_fetch_errors_total //p' "$tmp/obs.metrics")"
if [ -z "$fetched" ] || [ "$fetched" -eq 0 ]; then
    echo "shard-smoke: FAIL observer fetched 0 peer points; nothing was offloaded" >&2
    cat "$tmp/obs.metrics" >&2
    exit 1
fi
if [ -n "$errors" ] && [ "$errors" -ne 0 ]; then
    echo "shard-smoke: FAIL observer hit $errors peer fetch errors against a healthy fleet" >&2
    exit 1
fi
echo "shard-smoke: observer fetched $fetched points from its peers, 0 errors"

echo "shard-smoke: draining all daemons"
for p in $pids; do kill -TERM "$p" 2>/dev/null || true; done
for p in $pids; do
    if ! wait "$p"; then
        echo "shard-smoke: FAIL a daemon exited non-zero after SIGTERM" >&2
        tail -n 20 "$tmp"/*.log >&2
        exit 1
    fi
done
pids=""
for id in solo r0 r1 r2 obs; do
    if ! grep -q "drained" "$tmp/$id.log"; then
        echo "shard-smoke: FAIL $id never reported a clean drain" >&2
        cat "$tmp/$id.log" >&2
        exit 1
    fi
done
echo "shard-smoke: PASS (byte-identical shard answer, clean drains)"
