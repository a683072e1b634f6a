#!/usr/bin/env bash
# Smoke test for the simd cluster, run by CI and usable locally:
#   ./scripts/smoke_cluster.sh
# Boots three workers plus a coordinator over them, drives a Zipf-shaped
# load with cmd/simdload, and asserts:
#   - every request succeeds and repeats hit the content-addressed cache
#   - exactly one worker simulated each distinct spec (sharding works)
#   - a worker asked directly for another shard's key answers from peer
#     cache fill without re-simulating
#   - an async job handle outlives its coordinator: after the coordinator
#     is killed and a new one started on the same -peers, the handle
#     still polls to "done" and its event stream ends with "done"
#   - a node added via POST /v1/members mid-sweep joins the ring while
#     the sweep keeps succeeding
#   - a worker killed with SIGKILL is routed around: the fleet keeps
#     answering and the coordinator marks the node dead
#   - after the membership change and the primary's death, a repeat
#     sweep re-simulates nothing on the live workers and its cache-hit
#     ratio does not regress (peer fill reaches old holders from new
#     primaries, and replication keeps a copy of the dead node's keys)
#   - the load summaries pass the checkbench -load gate
set -euo pipefail
cd "$(dirname "$0")/.."

PORT_BASE="${CLUSTER_PORT_BASE:-18972}"
BINDIR="$(mktemp -d)"
CACHE_ROOT="$(mktemp -d)"
LOAD_JSON="$BINDIR/load.json"
go build -o "$BINDIR/simd" ./cmd/simd
go build -o "$BINDIR/simdload" ./cmd/simdload
go build -o "$BINDIR/checkbench" ./cmd/checkbench

W0="http://127.0.0.1:$PORT_BASE"
W1="http://127.0.0.1:$((PORT_BASE + 1))"
W2="http://127.0.0.1:$((PORT_BASE + 2))"
PEERS="$W0,$W1,$W2"

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "==> boot 3 workers ($PEERS)"
for i in 0 1 2; do
  "$BINDIR/simd" -addr "127.0.0.1:$((PORT_BASE + i))" -cache-dir "$CACHE_ROOT/w$i" \
    -workers 2 -peers "$PEERS" >"$BINDIR/worker$i.log" 2>&1 &
  PIDS+=($!)
  eval "WPID$i=$!"
done

# boot_coordinator NAME starts a coordinator over $PEERS on a free port
# and sets COORD to its URL and CPID to its pid.
boot_coordinator() {
  local out="$BINDIR/$1.out"
  # -hedge-min is cranked up so slow-CI latency can't fire hedges and
  # double-simulate specs: this smoke asserts exact simulation counts.
  "$BINDIR/simd" -coordinator -peers "$PEERS" -addr 127.0.0.1:0 -replicas 3 \
    -hedge-min 30s -hedge-max 30s >"$out" 2>"$BINDIR/$1.log" &
  CPID=$!
  PIDS+=($CPID)
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$out" 2>/dev/null && break
    sleep 0.1
  done
  COORD="http://$(awk '/listening on/ {print $NF; exit}' "$out")"
}

echo "==> boot coordinator (:0, scraped from stdout)"
boot_coordinator coord

for url in "$W0" "$W1" "$W2" "$COORD"; do
  for _ in $(seq 1 50); do
    curl -fsS "$url/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fsS "$url/healthz" >/dev/null
done

echo "==> zipf load through the coordinator"
"$BINDIR/simdload" -url "$COORD" -n 120 -c 16 -tenants 4 -specs 8 -budget 3000 -json "$LOAD_JSON"

echo "==> load summary passes the checkbench gate"
"$BINDIR/checkbench" -load -min-rps 1 "$LOAD_JSON"

echo "==> cache hits dominate (8 distinct specs, 120 requests)"
# Concurrent duplicates that coalesce onto an in-flight job report
# "miss" too, so the floor is loose; the exact dedup invariant is the
# fleet-wide simulation count below.
HITS=$(jq .cache_hits "$LOAD_JSON")
[ "$HITS" -ge 60 ] || { echo "only $HITS cache hits"; cat "$LOAD_JSON"; exit 1; }

echo "==> sharding: fleet-wide simulations == distinct specs"
FLEET=$(curl -fsS "$COORD/v1/fleet")
SIMS=$(echo "$FLEET" | jq .totals.simulations)
[ "$SIMS" -eq 8 ] || { echo "fleet simulated $SIMS times for 8 specs"; echo "$FLEET" | jq .; exit 1; }

echo "==> peer cache fill: every worker serves shard 0's key without re-simulating"
# cmd/simdload derives spec seeds as loadgen_seed*1000003 + i; spec 0 of
# the default seed is therefore reproducible here.
SPEC0='{"scheme":"rrob","mixes":["Mix 1"],"budget":3000,"seed":1000003}'
for url in "$W0" "$W1" "$W2"; do
  R=$(curl -fsS -X POST "$url/v1/runs?wait=1" -d "$SPEC0")
  echo "$R" | jq -e '.cache == "hit"' >/dev/null \
    || { echo "direct submit to $url was not served from cache: $R"; exit 1; }
done
SIMS=$(curl -fsS "$COORD/v1/fleet" | jq .totals.simulations)
[ "$SIMS" -eq 8 ] || { echo "peer fill re-simulated: fleet total now $SIMS"; exit 1; }
FILLS=$(curl -fsS "$COORD/v1/fleet" | jq '[.nodes[].stats.PeerFillHits] | add')
[ "$FILLS" -ge 1 ] || { echo "no peer fill recorded"; exit 1; }

echo "==> async handle survives a coordinator restart"
R=$(curl -fsS -X POST "$COORD/v1/runs" \
  -d '{"scheme":"rrob","mixes":["Mix 1"],"budget":20000,"seed":4242}')
HANDLE=$(echo "$R" | jq -r .id)
[ -n "$HANDLE" ] && [ "$HANDLE" != null ] || { echo "async submit gave no handle: $R"; exit 1; }
kill -9 "$CPID"
boot_coordinator coord2
curl -fsS "$COORD/healthz" >/dev/null
for _ in $(seq 1 300); do
  STATUS=$(curl -fsS "$COORD/v1/runs/$HANDLE" | jq -r .status) || STATUS="unreachable"
  [ "$STATUS" = done ] && break
  sleep 0.1
done
[ "$STATUS" = done ] || { echo "handle $HANDLE through the new coordinator: status $STATUS"; exit 1; }
LAST=$(curl -fsS "$COORD/v1/runs/$HANDLE/events" | tail -n 1)
echo "$LAST" | grep -q '"type":"done"' \
  || { echo "event stream of $HANDLE ends with $LAST"; exit 1; }

echo "==> membership: add a 4th worker mid-sweep"
W3="http://127.0.0.1:$((PORT_BASE + 3))"
"$BINDIR/simd" -addr "127.0.0.1:$((PORT_BASE + 3))" -cache-dir "$CACHE_ROOT/w3" \
  -workers 2 -peers "$PEERS,$W3" >"$BINDIR/worker3.log" 2>&1 &
PIDS+=($!)
for _ in $(seq 1 50); do
  curl -fsS "$W3/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$W3/healthz" >/dev/null
# The add lands while this sweep is in flight: requests must keep
# succeeding across the ring change.
LOAD2_JSON="$BINDIR/load2.json"
"$BINDIR/simdload" -url "$COORD" -n 120 -c 16 -tenants 4 -specs 8 -budget 3000 -json "$LOAD2_JSON" &
SWEEP2=$!
R=$(curl -fsS -X POST "$COORD/v1/members" -d "{\"action\":\"add\",\"node\":\"$W3\"}")
echo "$R" | jq -e '.changed == true' >/dev/null \
  || { echo "member add did not change the ring: $R"; exit 1; }
wait "$SWEEP2"
"$BINDIR/checkbench" -load -min-rps 1 "$LOAD2_JSON"
N_MEMBERS=$(curl -fsS "$COORD/v1/members" | jq '.members | length')
[ "$N_MEMBERS" -eq 4 ] || { echo "coordinator reports $N_MEMBERS members, want 4"; exit 1; }

echo "==> chaos: SIGKILL an old primary, fleet keeps answering"
kill -9 "$WPID0"
for seed in 99 101 102 103; do
  R=$(curl -fsS -X POST "$COORD/v1/runs?wait=1" \
    -d "{\"scheme\":\"rrob\",\"mixes\":[\"Mix 2\"],\"budget\":3000,\"seed\":$seed}")
  echo "$R" | jq -e '.status == "done"' >/dev/null \
    || { echo "post-kill submission failed: $R"; exit 1; }
done
# The health prober needs a cycle or two to notice the corpse.
for _ in $(seq 1 100); do
  ALIVE=$(curl -fsS "$COORD/metrics" | awk '/^simd_cluster_nodes_alive/ {print $2}')
  [ "${ALIVE:-4}" -le 3 ] && break
  sleep 0.2
done
[ "${ALIVE:-4}" -le 3 ] || { echo "dead node still counted alive ($ALIVE)"; exit 1; }

echo "==> no re-simulation after the membership change + primary death"
# No keys moved when W3 joined: a key's new primary fills it from an old
# holder, and replication (R=2) keeps a live copy of every key the dead
# worker held. A repeat of the original sweep must therefore simulate
# nothing on the live workers, and hit the cache at least as often as
# the first pass did.
live_sims() {
  local total=0 n
  for url in "$W1" "$W2" "$W3"; do
    n=$(curl -fsS "$url/metrics" | awk '/^simd_simulations_total/ {print $2}')
    total=$((total + n))
  done
  echo "$total"
}
SIMS_BEFORE=$(live_sims)
RATE1=$(jq .cache_hit_rate "$LOAD_JSON")
LOAD3_JSON="$BINDIR/load3.json"
"$BINDIR/simdload" -url "$COORD" -n 120 -c 16 -tenants 4 -specs 8 -budget 3000 -json "$LOAD3_JSON"
SIMS_AFTER=$(live_sims)
[ "$SIMS_AFTER" -eq "$SIMS_BEFORE" ] \
  || { echo "repeat sweep re-simulated: live workers $SIMS_BEFORE -> $SIMS_AFTER"; exit 1; }
"$BINDIR/checkbench" -load -min-rps 1 -min-hit-rate "$RATE1" "$LOAD3_JSON"

echo "OK"
