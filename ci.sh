#!/usr/bin/env bash
# Workspace CI gate: build, test, lint. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> benchmark tests"
# perfbench is a package of its own (outside the workspace): its tests
# check that corrupted solver outputs are caught and that the traced
# per-layer spans add up. Cargo rewrites the package's stale lock file
# while resolving it; put the committed copy back afterwards so a green
# run leaves the tree clean.
PERF_LOCK="$(mktemp)"
cp perfbench/Cargo.lock "$PERF_LOCK"
status=0
cargo test --offline --release --manifest-path perfbench/Cargo.toml || status=$?
cp "$PERF_LOCK" perfbench/Cargo.lock
rm -f "$PERF_LOCK"
[ "$status" -eq 0 ] || { echo "benchmark tests failed"; exit "$status"; }

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Every intra-doc link must resolve, so no doc names a deleted or private
# item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> metrics smoke"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
./target/release/kmatch batch --kind gs --n 16 --count 50 --seed 1 \
    --metrics-out "$SMOKE_DIR/report.json"
./target/release/kmatch report validate --input "$SMOKE_DIR/report.json"
for key in '"schema": "kmatch.run_report/v1"' '"solves"' '"proposals"' \
    '"histograms"' '"p99_ns"'; do
  grep -qF "$key" "$SMOKE_DIR/report.json" \
    || { echo "metrics smoke: missing $key in report.json"; exit 1; }
done

echo "==> incremental smoke"
cat > "$SMOKE_DIR/inst.json" <<'EOF'
{"n": 4,
 "proposers": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
 "responders": [[1, 0, 3, 2], [2, 1, 0, 3], [3, 2, 1, 0], [0, 3, 2, 1]]}
EOF
# The first delta rewrites the head of proposer 0's row, so it must solve
# cold. The third swaps the tail of proposer 1's row, which is dead by
# construction: proposer 1 holds its first choice in every state here (no
# other proposer ever reaches responder 1), so it must replay. The last
# two exercise the windowed responder patch of the session's arena: the
# swap reorders two proposers responder 3 compares (live, solved cold),
# the splice moves responder 0's last choice up (dead, replayed).
# `kmatch delta` checks every delta's matching against a cold reload of
# the edited instance.
cat > "$SMOKE_DIR/deltas.json" <<'EOF'
[{"op": "swap", "side": "proposer", "row": 0, "prefs": [],
  "a": 0, "b": 3, "from": 0, "to": 0},
 {"op": "set_row", "side": "responder", "row": 2, "prefs": [0, 1, 2, 3],
  "a": 0, "b": 0, "from": 0, "to": 0},
 {"op": "swap", "side": "proposer", "row": 1, "prefs": [],
  "a": 2, "b": 3, "from": 0, "to": 0},
 {"op": "swap", "side": "responder", "row": 3, "prefs": [],
  "a": 0, "b": 1, "from": 0, "to": 0},
 {"op": "splice", "side": "responder", "row": 0, "prefs": [],
  "a": 0, "b": 0, "from": 3, "to": 1}]
EOF
./target/release/kmatch delta --input "$SMOKE_DIR/inst.json" \
    --deltas "$SMOKE_DIR/deltas.json" --metrics-out "$SMOKE_DIR/delta_report.json"
./target/release/kmatch report validate --input "$SMOKE_DIR/delta_report.json"
for key in '"cache_hits"' '"cache_misses"' '"edges_dirty"' '"warm_solves"'; do
  grep -qF "$key" "$SMOKE_DIR/delta_report.json" \
    || { echo "incremental smoke: missing $key in delta_report.json"; exit 1; }
done
python3 - "$SMOKE_DIR/delta_report.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["metrics"]["counters"]
assert c["warm_solves"] >= 1, f"no delta replayed: {c}"
# The baseline solve is one cold start; the live first delta adds another.
assert c["warm_fallbacks"] >= 2, f"no delta solved cold: {c}"
EOF
printf '[%s]' "$(cat "$SMOKE_DIR/inst.json")" > "$SMOKE_DIR/batch.json"
# Capture, don't pipe into grep -q: an early-exiting grep would EPIPE
# the CLI mid-print and pipefail would misreport that as a failure.
CACHE_OUT="$(./target/release/kmatch batch --input "$SMOKE_DIR/batch.json" \
    --input "$SMOKE_DIR/batch.json" --cache on)"
echo "$CACHE_OUT" | grep -qF '1 hits / 1 misses' \
    || { echo "incremental smoke: cached batch hit rate wrong"; exit 1; }

echo "==> hostile input smoke"
# A hostile --input file must give a typed error that names the file:
# exit 1 from the CLI's error path, never a panic (101) or the abort of a
# stack overflow (134) that deep nesting caused before the reader's depth
# limit.
python3 -c 'import sys; sys.stdout.write("[" * 100000)' > "$SMOKE_DIR/deep.json"
./target/release/kmatch gen kpartite --k 3 --n 12 --seed 7 \
    --out "$SMOKE_DIR/whole.json"
head -c "$(( $(wc -c < "$SMOKE_DIR/whole.json") / 2 ))" "$SMOKE_DIR/whole.json" \
    > "$SMOKE_DIR/truncated.json"
for bad in deep truncated; do
  status=0
  ./target/release/kmatch solve kary --input "$SMOKE_DIR/$bad.json" \
      > /dev/null 2> "$SMOKE_DIR/$bad.err" || status=$?
  [ "$status" -eq 1 ] \
      || { echo "hostile smoke: $bad.json exited $status, expected 1"; exit 1; }
  ! grep -q 'panicked' "$SMOKE_DIR/$bad.err" \
      || { echo "hostile smoke: $bad.json panicked"; exit 1; }
  grep -qF "error: $SMOKE_DIR/$bad.json: " "$SMOKE_DIR/$bad.err" \
      || { echo "hostile smoke: error for $bad.json does not name the file"; exit 1; }
done
# A hostile --matching file for `verify kary` (the wrong family count, or
# a member index past n) is the same one error line naming the file, not
# a panic in the matching's constructor.
./target/release/kmatch gen kpartite --k 3 --n 4 --seed 7 --out "$SMOKE_DIR/k3n4.json"
printf '%s' '[[0,0,0],[1,1,1]]' > "$SMOKE_DIR/families.json"
printf '%s' '[[0,0,0],[1,1,1],[2,2,2],[3,9,3]]' > "$SMOKE_DIR/member.json"
for bad in families member; do
  status=0
  ./target/release/kmatch verify kary --input "$SMOKE_DIR/k3n4.json" \
      --matching "$SMOKE_DIR/$bad.json" > /dev/null 2> "$SMOKE_DIR/$bad.err" || status=$?
  [ "$status" -eq 1 ] \
      || { echo "hostile smoke: $bad.json exited $status, expected 1"; exit 1; }
  grep -qF "error: $SMOKE_DIR/$bad.json: " "$SMOKE_DIR/$bad.err" \
      || { echo "hostile smoke: error for $bad.json does not name the file"; exit 1; }
done
# An out-of-range element inside an integer run (a compact list of plain
# integers, read in one loop) must be the element's per-index range
# error, not a syntax error at the token after it.
printf '%s' '[{"n":2,"proposers":[[0,1],[1,0]],"responders":[[0,1],[1,0]]},' \
    '{"n":2,"proposers":[[0,1],[1,4294967296]],"responders":[[0,1],[1,0]]}]' \
    > "$SMOKE_DIR/range.json"
status=0
./target/release/kmatch batch --input "$SMOKE_DIR/range.json" \
    > /dev/null 2> "$SMOKE_DIR/range.err" || status=$?
[ "$status" -eq 1 ] \
    || { echo "hostile smoke: range.json exited $status, expected 1"; exit 1; }
grep -qF 'index 1: field `proposers` of BipartiteDto: number 4294967296 out of range for u32' \
    "$SMOKE_DIR/range.err" \
    || { echo "hostile smoke: range.json did not report index 1's range error"; exit 1; }
# n above the 65 536 cap of the half-width rank tables must be a typed
# error raised before any n^2 table is allocated: 65 537 empty rows per
# side would otherwise ask for tens of gigabytes.
python3 -c 'import sys; rows = ",".join(["[]"] * 65537)
sys.stdout.write("[{\"n\":65537,\"proposers\":[%s],\"responders\":[%s]}]" % (rows, rows))' \
    > "$SMOKE_DIR/huge.json"
status=0
./target/release/kmatch batch --input "$SMOKE_DIR/huge.json" \
    > /dev/null 2> "$SMOKE_DIR/huge.err" || status=$?
[ "$status" -eq 1 ] \
    || { echo "hostile smoke: huge.json exited $status, expected 1"; exit 1; }
! grep -q 'panicked' "$SMOKE_DIR/huge.err" \
    || { echo "hostile smoke: huge.json panicked"; exit 1; }
grep -qF 'index 0: instance too large: n exceeds 65536 members per side' \
    "$SMOKE_DIR/huge.err" \
    || { echo "hostile smoke: huge.json did not report the size cap"; exit 1; }
# Degenerate generator sizes (no agents, fewer than two roommates or
# genders) must be a typed error naming the bound, not a generator panic;
# so must an empty flight recorder, which would write an empty trace.
while read -r name cmd; do
  status=0
  # shellcheck disable=SC2086
  ./target/release/kmatch $cmd > /dev/null 2> "$SMOKE_DIR/$name.err" || status=$?
  [ "$status" -eq 1 ] \
      || { echo "hostile smoke: '$cmd' exited $status, expected 1"; exit 1; }
  grep -qE '^error: need --([nk]|flight-recorder) >= [12]$' "$SMOKE_DIR/$name.err" \
      || { echo "hostile smoke: '$cmd' gave no size error"; exit 1; }
done <<'EOF'
kp_n0 gen kpartite --k 3 --n 0
kp_k0 gen kpartite --k 0 --n 3
kp_k1 gen kpartite --k 1 --n 3
smp_n0 solve smp --n 0
gs_n0 batch --kind gs --n 0
rm_n1 batch --kind roommates --n 1
serve_n1 serve --listen 127.0.0.1:0 --kind roommates --n 1
fr0 batch --kind gs --n 4 --count 3 --trace-out /dev/null --flight-recorder 0
EOF
# A data error is the one error line; usage follows argument errors only.
for bad in deep families member range huge kp_n0 kp_k0 kp_k1 smp_n0 gs_n0 rm_n1 serve_n1 \
    fr0; do
  [ "$(wc -l < "$SMOKE_DIR/$bad.err")" -eq 1 ] \
      || { echo "hostile smoke: $bad.err is not one line"; exit 1; }
done

echo "==> trace smoke"
# A single-solve trace keeps full fidelity: the chrome export must be
# JSON that Perfetto would load and must carry the round-level spans.
./target/release/kmatch solve smp --n 64 --seed 5 \
    --trace-out "$SMOKE_DIR/solve.trace.json" --trace-format chrome
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
    "$SMOKE_DIR/solve.trace.json" \
    || { echo "trace smoke: solve trace is not valid JSON"; exit 1; }
for name in '"gs.solve"' '"gs.round"'; do
  grep -qF "$name" "$SMOKE_DIR/solve.trace.json" \
    || { echo "trace smoke: missing $name in solve trace"; exit 1; }
done
# Batch timelines go through per-chunk flight recorders (phase-level,
# worker track per chunk); a tiny ring must wrap without corrupting the
# export.
./target/release/kmatch batch --kind roommates --n 24 --count 40 --seed 6 \
    --trace-out "$SMOKE_DIR/batch.trace.json" --flight-recorder 128
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
    "$SMOKE_DIR/batch.trace.json" \
    || { echo "trace smoke: batch trace is not valid JSON"; exit 1; }
for name in '"batch.chunk"' '"irving.phase1"' '"irving.phase2"' '"worker-0"'; do
  grep -qF "$name" "$SMOKE_DIR/batch.trace.json" \
    || { echo "trace smoke: missing $name in batch trace"; exit 1; }
done
# Binding traces carry one span per tree edge.
./target/release/kmatch gen kpartite --k 3 --n 12 --seed 7 \
    --out "$SMOKE_DIR/k3.json"
./target/release/kmatch bind --input "$SMOKE_DIR/k3.json" --tree path \
    --trace-out "$SMOKE_DIR/bind.trace.json"
grep -qF '"bind.edge"' "$SMOKE_DIR/bind.trace.json" \
    || { echo "trace smoke: missing bind.edge in bind trace"; exit 1; }
# The paper's §III-B event dialogue: the left lists end in a stable
# matching, the right lists in an emptied reduced list.
cat > "$SMOKE_DIR/rm_left.json" <<'EOF'
{"n": 6, "lists": [[5, 2, 3, 4], [5, 2, 4, 3], [0, 1, 5, 4],
                   [1, 0, 4, 5], [0, 1, 3, 2], [0, 2, 3, 1]]}
EOF
cat > "$SMOKE_DIR/rm_right.json" <<'EOF'
{"n": 6, "lists": [[3, 5, 4, 2], [3, 2, 4, 5], [1, 0, 4, 5],
                   [0, 1, 4, 5], [0, 1, 2, 3], [0, 3, 2, 1]]}
EOF
./target/release/kmatch trace --input "$SMOKE_DIR/rm_left.json" > "$SMOKE_DIR/rm_left.out"
grep -q '^stable matching: ' "$SMOKE_DIR/rm_left.out" \
    || { echo "trace smoke: left lists printed no stable matching"; exit 1; }
./target/release/kmatch trace --input "$SMOKE_DIR/rm_right.json" > "$SMOKE_DIR/rm_right.out"
grep -qF 'reduced list is empty — no stable matching' "$SMOKE_DIR/rm_right.out" \
    || { echo "trace smoke: right lists printed no empty-list certificate"; exit 1; }

echo "==> lazy oracle smoke"
# A 10^5-agent seeded random instance must solve through the lazy
# PrefOracle path in O(n) memory and interactive time. Bounds are
# generous (the reference VM does ~90 ms / ~30 MB): 10 s wall rules out
# an accidental O(n^2) proposal loop, 512 MB peak RSS rules out an
# accidental materialization (the CSR table alone would be ~80 GB).
LAZY_OUT="$(./target/release/kmatch solve smp --prefs random --n 100000 --seed 42)"
echo "$LAZY_OUT" | grep -qF 'backend        : random' \
    || { echo "lazy smoke: unexpected output"; exit 1; }
LAZY_MS="$(echo "$LAZY_OUT" | awk '/wall time/ { print int($4) }')"
LAZY_RSS="$(echo "$LAZY_OUT" | awk '/peak rss bytes/ { print $5 }')"
[ -n "$LAZY_MS" ] && [ "$LAZY_MS" -lt 10000 ] \
    || { echo "lazy smoke: n=1e5 solve took ${LAZY_MS:-?} ms (>= 10 s)"; exit 1; }
[ -n "$LAZY_RSS" ] && [ "$LAZY_RSS" -lt $((512 * 1024 * 1024)) ] \
    || { echo "lazy smoke: peak RSS ${LAZY_RSS:-?} bytes (>= 512 MB)"; exit 1; }
./target/release/kmatch solve smp --prefs truncated --keep 8 --n 10000 \
    > "$SMOKE_DIR/trunc.out"
grep -qF 'matched' "$SMOKE_DIR/trunc.out" \
    || { echo "lazy smoke: truncated backend failed"; exit 1; }
./target/release/kmatch batch --prefs random --n 4096 --count 8 \
    > "$SMOKE_DIR/lazy_batch.out"
grep -qF 'random oracle' "$SMOKE_DIR/lazy_batch.out" \
    || { echo "lazy smoke: lazy batch failed"; exit 1; }

echo "==> roommates escalating smoke"
# A 10^5-agent roommates instance must settle through the escalating
# truncated driver with a completeness certificate, in O(n·K) time and
# memory. Bounds are generous (the reference VM does ~13 s / ~15 MB):
# 60 s wall rules out the Θ(n²) complete-list path (~270 s there), and
# 256 MB peak RSS rules out a full-width phase-2 arena (~0.9 GB).
RM_OUT="$(./target/release/kmatch solve roommates --n 100000 \
    --seed 42 --metrics-out "$SMOKE_DIR/rm_report.json")"
echo "$RM_OUT" | grep -qE 'certificate +: (stable \(self-certified\)|stable partition \(verified\))' \
    || { echo "roommates smoke: no certificate in output"; exit 1; }
RM_MS="$(echo "$RM_OUT" | awk '/wall time/ { print int($4) }')"
RM_RSS="$(echo "$RM_OUT" | awk '/peak rss bytes/ { print $5 }')"
[ -n "$RM_MS" ] && [ "$RM_MS" -lt 60000 ] \
    || { echo "roommates smoke: n=1e5 solve took ${RM_MS:-?} ms (>= 60 s)"; exit 1; }
[ -n "$RM_RSS" ] && [ "$RM_RSS" -lt $((256 * 1024 * 1024)) ] \
    || { echo "roommates smoke: peak RSS ${RM_RSS:-?} bytes (>= 256 MB)"; exit 1; }
# The arena build and the partition check split across the host's
# threads; under `taskset -c 0` the host has one, so the same solve takes
# the serial path. Everything but the timings and the peak RSS must match.
RM_SERIAL="$(taskset -c 0 ./target/release/kmatch solve roommates \
    --n 100000 --seed 42)"
rm_lines() { echo "$1" | grep -E '^(verdict|certificate|escalation|partition|arena) '; }
[ "$(rm_lines "$RM_OUT" | wc -l)" -ge 4 ] \
    || { echo "roommates smoke: verdict lines missing"; exit 1; }
[ "$(rm_lines "$RM_OUT")" = "$(rm_lines "$RM_SERIAL")" ] \
    || { echo "roommates smoke: the one-core run differs:"; \
         diff <(rm_lines "$RM_OUT") <(rm_lines "$RM_SERIAL"); exit 1; }
./target/release/kmatch report validate --input "$SMOKE_DIR/rm_report.json"
for key in '"escalation_attempts"' '"certified_stable"' '"certified_unsolvable"' \
    '"escalation_cuts"'; do
  grep -qF "$key" "$SMOKE_DIR/rm_report.json" \
      || { echo "roommates smoke: missing $key in rm_report.json"; exit 1; }
done
# The deciding attempt must actually have been truncated (no full-width
# fallback for this seed), pinning the subquadratic path rather than a
# silent degrade — and it must be the first attempt: the default cut
# (5060 at this n) decides without a discarded attempt. The attempt runs
# the engine core, so its proposals and threshold stores reach the
# counters, while the solve reports one verdict.
python3 - "$SMOKE_DIR/rm_report.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["metrics"]["counters"]
assert c["escalation_attempts"] == 1, c
assert c["certified_stable"] + c["certified_unsolvable"] == 1, c
assert c["escalation_fullwidth"] == 0, c
assert c["proposals"] > 0, c
assert c["phase1_truncations"] > 0, c
assert c["solves"] == 1, c
EOF
# Lazy roommates batches tally per-instance certificates.
./target/release/kmatch batch --kind roommates --prefs random --n 1000 \
    --count 4 --seed 13 > "$SMOKE_DIR/rm_batch.out"
grep -qE 'certificates +: [0-9]+ truncated' "$SMOKE_DIR/rm_batch.out" \
    || { echo "roommates smoke: lazy batch missing certificate tally"; exit 1; }

echo "==> executor determinism smoke"
# The work-stealing batch executor must produce byte-identical outputs
# and metrics for any steal schedule: two runs differing only in
# KMATCH_STEAL_SEED (adversarially different victim orders) must write
# byte-identical RunReports modulo wall-clock timing. Compare the
# schedule-independent fields directly.
cargo test -q -p kmatch-parallel --release \
    || { echo "executor smoke: kmatch-parallel release tests failed"; exit 1; }
for kind in gs roommates; do
for seed in 0 99; do
  KMATCH_STEAL_SEED="$seed" ./target/release/kmatch batch --kind "$kind" \
      --n 32 --count 64 --seed 9 --threads 4 \
      --metrics-out "$SMOKE_DIR/steal_${kind}_$seed.json"
  python3 - "$SMOKE_DIR/steal_${kind}_$seed.json" "$SMOKE_DIR/steal_${kind}_$seed.stable" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
hists = {k: v for k, v in r["metrics"]["histograms"].items()
         if not k.endswith("_ns")}  # wall-clock buckets vary run to run
# Workspace fresh/reuse accounting is executor telemetry (how many
# workers woke before the queue drained), not solver output — excluded
# from the determinism contract like steal_count.
counters = {k: v for k, v in r["metrics"]["counters"].items()
            if k not in ("workspace_fresh", "workspace_reused")}
stable = {k: r[k] for k in ("schema", "kind", "n", "instances", "threads")}
stable["counters"] = counters
stable["histograms"] = hists
with open(sys.argv[2], "w") as f:
    json.dump(stable, f, sort_keys=True)
EOF
done
cmp -s "$SMOKE_DIR/steal_${kind}_0.stable" "$SMOKE_DIR/steal_${kind}_99.stable" \
    || { echo "executor smoke: $kind outputs differ across steal schedules"; exit 1; }
grep -qF '"executor"' "$SMOKE_DIR/steal_${kind}_0.json" \
    || { echo "executor smoke: missing executor section in $kind report"; exit 1; }
done
# Every batch front-end takes a thread count: the traced and the cached
# batch run on the same executor as the plain one.
./target/release/kmatch batch --kind gs --n 16 --count 40 --seed 3 --threads 2 \
    --trace-out "$SMOKE_DIR/threads.trace.json" > "$SMOKE_DIR/threads_trace.out"
grep -qF 'executor       : stealing (2 threads' "$SMOKE_DIR/threads_trace.out" \
    || { echo "executor smoke: traced batch did not run on 2 threads"; exit 1; }
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
    "$SMOKE_DIR/threads.trace.json" \
    || { echo "executor smoke: traced batch trace is not valid JSON"; exit 1; }
THREADS_CACHE_OUT="$(./target/release/kmatch batch --input "$SMOKE_DIR/batch.json" \
    --input "$SMOKE_DIR/batch.json" --cache on --threads 2)"
echo "$THREADS_CACHE_OUT" | grep -qF '1 hits / 1 misses' \
    || { echo "executor smoke: cached batch with --threads failed"; exit 1; }

echo "==> ops smoke"
# A live `kmatch serve` on an ephemeral port must expose every required
# metric family over HTTP, report healthy, publish a valid run report,
# and shut down cleanly on SIGINT.
./target/release/kmatch serve --listen 127.0.0.1:0 --kind gs --n 32 \
    --count 8 --seed 11 --interval-ms 50 \
    > "$SMOKE_DIR/serve.out" 2> "$SMOKE_DIR/serve.err" &
SERVE_PID=$!
OPS_ADDR=""
for _ in $(seq 1 100); do
  OPS_ADDR="$(sed -n 's#^ops listening on http://\(.*\)/#\1#p' "$SMOKE_DIR/serve.err")"
  [ -n "$OPS_ADDR" ] && break
  sleep 0.1
done
[ -n "$OPS_ADDR" ] \
    || { echo "ops smoke: server never announced an address"; \
         kill "$SERVE_PID" 2>/dev/null; exit 1; }
sleep 1  # let a few waves land so windowed rates are live
ops_get() {
  python3 -c 'import sys, urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1], timeout=5).read().decode())' "$1"
}
ops_get "http://$OPS_ADDR/metrics" > "$SMOKE_DIR/ops_metrics.txt" \
    || { echo "ops smoke: /metrics scrape failed"; kill "$SERVE_PID"; exit 1; }
for fam in kmatch_proposals_total kmatch_solve_wall_ns_bucket \
    kmatch_peak_rss_bytes kmatch_executor_threads \
    kmatch_window_proposals_per_second kmatch_watchdog_stalled_workers \
    kmatch_uptime_seconds; do
  grep -q "^$fam" "$SMOKE_DIR/ops_metrics.txt" \
      || { echo "ops smoke: /metrics missing $fam family"; \
           kill "$SERVE_PID"; exit 1; }
done
ops_get "http://$OPS_ADDR/healthz" | grep -qF '"status":"ok"' \
    || { echo "ops smoke: /healthz not ok"; kill "$SERVE_PID"; exit 1; }
ops_get "http://$OPS_ADDR/report" > "$SMOKE_DIR/ops_report.json" \
    || { echo "ops smoke: /report fetch failed"; kill "$SERVE_PID"; exit 1; }
./target/release/kmatch report validate --input "$SMOKE_DIR/ops_report.json" \
    || { echo "ops smoke: /report is not a valid run report"; \
         kill "$SERVE_PID"; exit 1; }
kill -INT "$SERVE_PID"
wait "$SERVE_PID" \
    || { echo "ops smoke: serve exited nonzero after SIGINT"; exit 1; }
grep -qF 'shutdown: SIGINT' "$SMOKE_DIR/serve.out" \
    || { echo "ops smoke: serve did not report a SIGINT shutdown"; exit 1; }
# A materialized roommates serve runs its waves on probed workers, like
# gs: the probes' generations are the watchdog's one heartbeat source, so
# /progress must show a lane whose generation moved.
./target/release/kmatch serve --listen 127.0.0.1:0 --kind roommates --prefs csr \
    --n 24 --count 16 --seed 5 --interval-ms 50 \
    > "$SMOKE_DIR/serve_rm.out" 2> "$SMOKE_DIR/serve_rm.err" &
RM_SERVE_PID=$!
RM_ADDR=""
for _ in $(seq 1 100); do
  RM_ADDR="$(sed -n 's#^ops listening on http://\(.*\)/#\1#p' "$SMOKE_DIR/serve_rm.err")"
  [ -n "$RM_ADDR" ] && break
  sleep 0.1
done
[ -n "$RM_ADDR" ] \
    || { echo "ops smoke: roommates serve never announced an address"; \
         kill "$RM_SERVE_PID" 2>/dev/null; exit 1; }
PROGRESS_SEEN=""
for _ in $(seq 1 50); do
  ops_get "http://$RM_ADDR/progress" > "$SMOKE_DIR/rm_progress.json" 2>/dev/null || true
  if python3 - "$SMOKE_DIR/rm_progress.json" <<'EOF' 2>/dev/null
import json, sys
workers = json.load(open(sys.argv[1]))["workers"]
assert max(w["generation"] for w in workers) > 0, workers
EOF
  then PROGRESS_SEEN=yes; break; fi
  sleep 0.1
done
kill -INT "$RM_SERVE_PID"
wait "$RM_SERVE_PID" \
    || { echo "ops smoke: roommates serve exited nonzero after SIGINT"; exit 1; }
[ -n "$PROGRESS_SEEN" ] \
    || { echo "ops smoke: roommates serve published no probe generation"; exit 1; }

echo "==> forensics smoke"
# A deliberately stalled escalating-roommates serve must (a) name the
# stalled lane's phase and current cut on GET /progress, (b) answer
# GET /profile while stalled, and (c) write a postmortem
# bundle that `kmatch postmortem validate` accepts once the watchdog
# fires. --inject-stall-ms freezes the first wave mid-escalation; the
# 250 ms watchdog threshold trips well inside the 4 s freeze, leaving a
# wide window to scrape the stalled snapshot.
mkdir -p "$SMOKE_DIR/postmortem"
./target/release/kmatch serve --listen 127.0.0.1:0 --kind roommates \
    --prefs random --n 5000 --count 1 --iterations 2 --seed 23 \
    --interval-ms 10 --stall-ms 250 --inject-stall-ms 4000 \
    --sample-hz 200 --postmortem-dir "$SMOKE_DIR/postmortem" \
    > "$SMOKE_DIR/forensics.out" 2> "$SMOKE_DIR/forensics.err" &
FORENSICS_PID=$!
FOR_ADDR=""
for _ in $(seq 1 100); do
  FOR_ADDR="$(sed -n 's#^ops listening on http://\(.*\)/#\1#p' "$SMOKE_DIR/forensics.err")"
  [ -n "$FOR_ADDR" ] && break
  sleep 0.1
done
[ -n "$FOR_ADDR" ] \
    || { echo "forensics smoke: server never announced an address"; \
         kill "$FORENSICS_PID" 2>/dev/null; exit 1; }
STALL_SEEN=""
for _ in $(seq 1 60); do
  ops_get "http://$FOR_ADDR/progress" > "$SMOKE_DIR/progress.json" 2>/dev/null || true
  if python3 - "$SMOKE_DIR/progress.json" <<'EOF' 2>/dev/null
import json, sys
doc = json.load(open(sys.argv[1]))
stalled = [w for w in doc["workers"] if w["stalled"]]
assert stalled, "no stalled lane yet"
lane = stalled[0]
# The stalled snapshot must name the escalation phase and a live cut —
# the whole point of the probe plane.
assert lane["phase_name"] == "escalate", lane
assert lane["cut"] >= 1, lane
assert doc["stalled_workers"] == [lane["worker"]], doc
EOF
  then STALL_SEEN=yes; break; fi
  sleep 0.1
done
[ -n "$STALL_SEEN" ] \
    || { echo "forensics smoke: /progress never named a stalled escalate lane"; \
         kill "$FORENSICS_PID" 2>/dev/null; exit 1; }
ops_get "http://$FOR_ADDR/profile" > "$SMOKE_DIR/profile.txt" \
    || { echo "forensics smoke: /profile scrape failed"; \
         kill "$FORENSICS_PID" 2>/dev/null; exit 1; }
wait "$FORENSICS_PID" \
    || { echo "forensics smoke: serve exited nonzero"; exit 1; }
BUNDLE="$(ls "$SMOKE_DIR/postmortem"/postmortem-*-stall.json 2>/dev/null | head -1)"
[ -n "$BUNDLE" ] \
    || { echo "forensics smoke: watchdog stall wrote no postmortem bundle"; exit 1; }
./target/release/kmatch postmortem validate --input "$BUNDLE" \
    || { echo "forensics smoke: bundle failed validation"; exit 1; }
./target/release/kmatch postmortem inspect --input "$BUNDLE" \
    | grep -qF 'trigger' \
    || { echo "forensics smoke: bundle inspect said nothing"; exit 1; }
# The sampling profiler sees the escalating driver's own spans: a
# stall-free n = 2*10^4 serve spends most of each solve inside the Irving
# phases, so GET /profile must show an irving.* frame on the one lane the
# driver solves on, not only the idle bucket.
./target/release/kmatch serve --listen 127.0.0.1:0 --kind roommates \
    --prefs random --n 20000 --count 2 --iterations 0 --interval-ms 0 \
    --sample-hz 200 > "$SMOKE_DIR/profile_rm.out" 2> "$SMOKE_DIR/profile_rm.err" &
PROFILE_PID=$!
PROF_ADDR=""
for _ in $(seq 1 100); do
  PROF_ADDR="$(sed -n 's#^ops listening on http://\(.*\)/#\1#p' "$SMOKE_DIR/profile_rm.err")"
  [ -n "$PROF_ADDR" ] && break
  sleep 0.1
done
[ -n "$PROF_ADDR" ] \
    || { echo "forensics smoke: profiled serve never announced an address"; \
         kill "$PROFILE_PID" 2>/dev/null; exit 1; }
IRVING_SEEN=""
for _ in $(seq 1 100); do
  ops_get "http://$PROF_ADDR/profile" > "$SMOKE_DIR/profile_rm.txt" 2>/dev/null || true
  if grep -qE '(^|;)irving\.' "$SMOKE_DIR/profile_rm.txt"; then IRVING_SEEN=yes; break; fi
  sleep 0.1
done
kill -INT "$PROFILE_PID"
wait "$PROFILE_PID" \
    || { echo "forensics smoke: profiled serve exited nonzero after SIGINT"; exit 1; }
[ -n "$IRVING_SEEN" ] \
    || { echo "forensics smoke: /profile never showed an irving.* frame:"; \
         cat "$SMOKE_DIR/profile_rm.txt"; exit 1; }

echo "==> code size"
# Non-blank, non-comment lines per crate. results/SIZE.json holds the
# committed counts, so every change commits its own size change.
scripts/loc.sh
scripts/loc.sh --json | diff -u results/SIZE.json - \
    || { echo "code size: results/SIZE.json is stale;" \
              "run scripts/loc.sh --json > results/SIZE.json"; exit 1; }

echo "==> bench regression gate"
# Committed baselines must pass against themselves: the gate's exact
# rules (counters, row shapes) hold trivially, and its tolerance rules
# prove the committed files are internally consistent. Injected
# regressions are exercised by crates/bench/tests/bench_diff_cli.rs.
./target/release/bench_diff --baseline results --fresh results --check
# The committed profiler row must sit inside the 5% always-on budget —
# bench_diff's pct rule only catches *growth*, so pin the absolute bound.
python3 - results/BENCH_gs.json <<'EOF'
import json, sys
row = json.load(open(sys.argv[1]))["profiler_overhead"]
assert row["overhead_pct"] < 5.0, f"profiler overhead {row['overhead_pct']:.2f}% >= 5%"
EOF

echo "CI OK"
