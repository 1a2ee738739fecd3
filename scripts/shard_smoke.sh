#!/bin/sh
# Shard smoke test (make shard-smoke / make ci): the core-sharded detail
# schedule (the only detail schedule, always on) must be invisible in
# every result. jasrun must emit a quick-scale markdown report
# byte-identical to the pinned golden, a real jasd must serve the same
# bytes, and /metrics must
# surface the shard gauge and the per-shard merge-stall counters. On
# multi-core hosts this exercises the concurrent merge end to end; on
# 1-vCPU hosts the auto mode collapses to the fused loop and the smoke
# verifies exactly that collapse (gauge 0, identical bytes).
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}
tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# Standalone: the sharded report must match the golden byte for byte.
$GO run ./cmd/jasrun -scale quick -markdown >"$tmp/report_cli.md"
if ! diff -u testdata/golden_report_quick.md "$tmp/report_cli.md"; then
    echo "shard-smoke: jasrun report drifted from golden" >&2
    exit 1
fi

$GO build -o "$tmp/jasd" ./cmd/jasd
$GO build -o "$tmp/jasctl" ./cmd/jasctl

"$tmp/jasd" -addr 127.0.0.1:0 -addrfile "$tmp/addr" -workers 2 2>"$tmp/jasd.log" &
pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "shard-smoke: jasd did not start" >&2
        cat "$tmp/jasd.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr="http://$(cat "$tmp/addr")"

"$tmp/jasctl" -addr "$addr" submit -scale quick -seed 1 -wait -format md >"$tmp/report_srv.md"
if ! diff -u testdata/golden_report_quick.md "$tmp/report_srv.md"; then
    echo "shard-smoke: served sharded report drifted from golden" >&2
    exit 1
fi

# The shard observability series must be present: the gauge always, and
# one merge-stall counter series per shard the gauge advertises (a 1-vCPU
# host advertises 0 shards and may legitimately expose no stall series).
"$tmp/jasctl" -addr "$addr" metrics >"$tmp/metrics.txt"
if ! grep -q '^jasd_detail_shards ' "$tmp/metrics.txt"; then
    echo "shard-smoke: /metrics missing jasd_detail_shards" >&2
    cat "$tmp/metrics.txt" >&2
    exit 1
fi
shards=$(awk '$1 == "jasd_detail_shards" { print int($2) }' "$tmp/metrics.txt")
stall_series=$(grep -c '^jasd_shard_merge_stalls_total{' "$tmp/metrics.txt" || true)
if [ "$stall_series" -lt "$shards" ]; then
    echo "shard-smoke: $shards shards advertised but only $stall_series merge-stall series" >&2
    cat "$tmp/metrics.txt" >&2
    exit 1
fi

kill -TERM "$pid"
wait "$pid"
pid=""
echo "shard-smoke: ok (shards=$shards)"
