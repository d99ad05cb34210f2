#!/usr/bin/env bash
# heap_by_owner.sh — what a default-flag somad's memory is holding, by owner.
#
# Builds somad, somabench and somactl from the tree, starts somad with no
# flags but its listen address, drives it with `somabench pub` (wide trees of
# HEAP_PATHS series, one sample each per round — `somabench load` boots its
# own in-process service and cannot be pointed at this one), and mid-run
# pulls a live heap profile over soma.profile, prints the service's own
# occupancy line (soma.stats) and then the in-use bytes by allocating
# function — the by-owner table ROADMAP item 3's remaining byte caps (series,
# pending, trace store) are read against.
#
#   HEAP_PATHS   series per publish (default 8192, the per-namespace cap)
#   HEAP_ROUNDS  publishes, 100 ms apart (default 80; the profile is taken
#                about half-way)
#   HEAP_ROWS    rows of the pprof table (default 25)
set -euo pipefail

cd "$(dirname "$0")/.."

paths=${HEAP_PATHS:-8192}
rounds=${HEAP_ROUNDS:-80}
rows=${HEAP_ROWS:-25}

workdir=$(mktemp -d)
SOMAD_PID=""
PUB_PID=""
cleanup() {
    for pid in "$PUB_PID" "$SOMAD_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "heap: building somad, somabench, somactl" >&2
go build -o "$workdir/" ./cmd/somad ./cmd/somabench ./cmd/somactl

"$workdir/somad" -listen tcp://127.0.0.1:0 >"$workdir/somad.addr" 2>"$workdir/somad.log" &
SOMAD_PID=$!
for _ in $(seq 1 50); do
    [ -s "$workdir/somad.addr" ] && break
    sleep 0.1
done
addr=$(head -n1 "$workdir/somad.addr")
[ -n "$addr" ] || { echo "heap: somad did not print its address" >&2; cat "$workdir/somad.log" >&2; exit 1; }
ctl=("$workdir/somactl" -addr "$addr")

"$workdir/somabench" pub -addr "$addr" -paths "$paths" -rounds "$rounds" -every 100ms >"$workdir/pub.json" &
PUB_PID=$!

# Half-way through: one read, so the snapshot tree and its encoded frame are
# resident as they are under any monitor, then the profile.
sleep "$(awk -v r="$rounds" 'BEGIN { printf "%.1f", r * 0.1 / 2 }')"
"${ctl[@]}" query hardware PROC >/dev/null
"${ctl[@]}" profile -kind heap >"$workdir/heap.pb.gz"
echo "heap: soma.stats mid-run ($paths series, $rounds rounds):"
"${ctl[@]}" stats | grep -v 'publishes=0 '
echo
go tool pprof -sample_index=inuse_space -top -nodecount="$rows" "$workdir/somad" "$workdir/heap.pb.gz"

wait "$PUB_PID" || { echo "heap: somabench pub failed" >&2; cat "$workdir/pub.json" >&2; exit 1; }
PUB_PID=""
