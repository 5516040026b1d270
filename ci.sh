#!/usr/bin/env bash
# Local CI: everything a PR must pass. Runs fully offline (external
# crates are vendored under compat/).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> allocation guards (compile_hot: warm unparse, one-pass DCE, candidate evaluation on both measurement paths, per-kernel program tune)"
cargo bench -q --offline -p lgen-bench --bench compile_hot

echo "==> pruning economics (static_cost: analysis >=50x cheaper than one evaluation)"
cargo bench -q --offline -p lgen-bench --bench static_cost

echo "==> benchmark self-tests (release; staged and one-shot compiles emit the same C)"
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline \
    --manifest-path benchmark/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> examples under LGEN_VERIFY=paranoid (verify between every pass)"
cargo build --release --examples
for ex in quickstart autotuning_tour graphics_transform kalman_update mediator_farm; do
    echo "    -> $ex"
    LGEN_VERIFY=paranoid "./target/release/examples/$ex" > /dev/null
done

echo "==> lgenc under a non-default pass schedule (paranoid verify)"
blacfile=$(mktemp --suffix=.blac)
trap 'rm -f "$blacfile"' EXIT
cat > "$blacfile" <<'EOF'
alpha = scalar
A = matrix(4, 8)
x = vector(8)
y = vector(4)
y = alpha * (A * x) + y
EOF
paranoid_out=$(./target/release/lgenc "$blacfile" --verify=paranoid \
    --passes "unroll,scalrep,repeat(copyprop,dce),align" --cache-stats 2>&1 >/dev/null)
# The subtree-memo row is part of the --cache-stats contract (verifying
# configs bypass the memo, so both counters are zero here — but the row
# must render).
if ! grep -q "memo: .* hits / .* misses" <<<"$paranoid_out"; then
    echo "error: --cache-stats output missing the compile-memo row" >&2
    echo "$paranoid_out" >&2
    exit 1
fi
# The same schedule observed: the between-pass verifier and the IR trace
# see the arena after every pass, `repeat` rounds included.
if ! paranoid_trace=$(./target/release/lgenc "$blacfile" --verify=paranoid \
    --passes "unroll,scalrep,repeat(copyprop,dce),align" --print-after-all 2>&1 >/dev/null); then
    echo "error: observed paranoid lgenc run failed" >&2
    echo "$paranoid_trace" >&2
    exit 1
fi
stages=$(sed -n 's/^== IR after \(.*\) ==$/\1/p' <<<"$paranoid_trace" | paste -sd, -)
if ! grep -Eq '^codegen,unroll,scalrep,(copyprop,dce,)+align$' <<<"$stages"; then
    echo "error: --print-after-all stages \"$stages\" are not codegen..align with repeat rounds" >&2
    exit 1
fi

echo "==> lgenc --peel / --version-align under paranoid verify, and the versioning limit"
for flag in --peel --version-align; do
    if ! whole_kernel_out=$(./target/release/lgenc "$blacfile" "$flag" --verify=paranoid 2>&1 >/dev/null); then
        echo "error: lgenc $flag --verify=paranoid failed" >&2
        echo "$whole_kernel_out" >&2
        exit 1
    fi
done
# y = A*x + B*z has five vector-sized arrays, past the three versioning
# accepts: the kernel compiles unversioned and lgenc says so.
fivefile=$(mktemp --suffix=.blac)
printf 'A = matrix(4, 8)\nx = vector(8)\nB = matrix(4, 8)\nz = vector(8)\ny = vector(4)\ny = A * x + B * z\n' > "$fivefile"
if ! five_out=$(./target/release/lgenc "$fivefile" --version-align 2>&1 >/dev/null); then
    echo "error: lgenc --version-align on a five-array BLAC failed" >&2
    echo "$five_out" >&2
    exit 1
fi
rm -f "$fivefile"
if ! grep -q "^lgenc: --version-align: 5 vector-sized arrays exceed the limit of 3; compiled unversioned$" <<<"$five_out"; then
    echo "error: no unversioned-compile note for the five-array BLAC" >&2
    echo "$five_out" >&2
    exit 1
fi

echo "==> fault-injection suite under LGEN_VERIFY=paranoid"
LGEN_VERIFY=paranoid cargo test -q --release --test fault_tolerance

# y = A*x + y with A 9x23: the 18 unroll policies collapse onto 4 kernels,
# the tuner's candidates.
widthfile=$(mktemp --suffix=.blac)
printf 'A = matrix(9, 23)\nx = vector(23)\ny = vector(9)\ny = A * x + y\n' > "$widthfile"

echo "==> lgenc degrades gracefully under injected faults"
# Fault indices name candidates, so each of the three names one of the
# 4 kernels.
summary=$(LGEN_FAULTS="panic@1,corrupt@2,hang@3:300ms" \
    ./target/release/lgenc "$widthfile" --tune --tune-deadline 100ms \
    --cache-stats 2>&1 >/dev/null)
if ! grep -q "candidate(s) failed: [1-9][0-9]* verify-rejected, [1-9][0-9]* panicked, [1-9][0-9]* timed out" <<<"$summary"; then
    echo "error: lgenc failure summary missing or short of a failure mode under LGEN_FAULTS" >&2
    echo "$summary" >&2
    exit 1
fi
if ! grep -q "autotuned to" <<<"$summary"; then
    echo "error: faulted tune did not return a surviving kernel" >&2
    echo "$summary" >&2
    exit 1
fi

echo "==> width parity: every tuning width compiles and evaluates each distinct kernel once"
width_rows=""
for j in 1 2 4; do
    rows=$(./target/release/lgenc "$widthfile" --tune -j "$j" --cache-stats 2>&1 >/dev/null \
        | grep -E '^lgenc: (memo: |cache: .* evaluations)' \
        | sed -E 's/^lgenc: cache: .* ([0-9]+ evaluations).*/\1/')
    echo "    -j $j: $(paste -sd';' <<<"$rows")"
    if [ -z "$width_rows" ]; then
        width_rows=$rows
    elif [ "$rows" != "$width_rows" ]; then
        echo "error: -j $j memo row / evaluation count differ from -j 1" >&2
        exit 1
    fi
done
rm -f "$widthfile"
misses=$(sed -nE 's/^lgenc: memo: [0-9]+ hits \/ ([0-9]+) misses$/\1/p' <<<"$width_rows")
if ! grep -q evaluations <<<"$width_rows" || [ "${misses:-0}" -lt 3 ]; then
    echo "error: expected an evaluation count and >= 3 distinct kernels, got: $width_rows" >&2
    exit 1
fi

echo "==> telemetry smoke: --trace-out/--metrics give a valid trace and metrics dump"
tracefile=$(mktemp --suffix=.json)
trap 'rm -f "$blacfile" "$tracefile"' EXIT
# 8 sweeps: the first is cold, the rest replay against the warm kernel
# cache, so the tune/compile histograms capture the steady-state
# (memoized) throughput the subtree memo is for.
metrics=$(./target/release/lgenc "$blacfile" --tune --tune-deadline 30s \
    --tune-sweeps 8 --trace-out "$tracefile" --metrics 2>&1 >/dev/null)
python3 - "$tracefile" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
names = [e["name"] for e in events]
for stage in ["compile", "codegen", "ll_tiling", "sigma_ll_rewrite",
              "unroll", "scalrep", "copyprop", "dce", "align",
              "candidate", "tune"]:
    assert stage in names, f"no `{stage}` span in the trace"
EOF
if ! grep -q "lgen.cache.hits" <<<"$metrics"; then
    echo "error: metrics dump missing the cache hit counter" >&2
    echo "$metrics" >&2
    exit 1
fi
# The 18 unroll policies collapse onto a handful of distinct kernels,
# which are the tuner's candidates: a cold sweep has fewer candidates than
# policies, and compiles, optimizes (memo misses) and evaluates each of
# them once.
stats=$(./target/release/lgenc "$blacfile" --tune --cache-stats 2>&1 >/dev/null)
candidates=$(sed -nE 's/^lgenc: autotuned to .* over ([0-9]+) candidates\)$/\1/p' <<<"$stats")
evaluations=$(sed -nE 's/^lgenc: cache: .* ([0-9]+) evaluations.*/\1/p' <<<"$stats")
compiles=$(sed -nE 's/^lgenc: compiles: ([0-9]+)$/\1/p' <<<"$stats")
misses=$(sed -nE 's/^lgenc: memo: [0-9]+ hits \/ ([0-9]+) misses$/\1/p' <<<"$stats")
if [ -z "$candidates" ] || [ "$candidates" -ge 18 ] || [ "$evaluations" != "$candidates" ] \
    || [ "$evaluations" != "$misses" ] || [ "$compiles" != "$misses" ]; then
    echo "error: expected one candidate, compile, memo miss and evaluation per" \
        "distinct kernel, fewer than the 18 policies (got: candidates=${candidates:-missing}" \
        "evaluations=${evaluations:-missing} compiles=${compiles:-missing}" \
        "memo misses=${misses:-missing})" >&2
    echo "$stats" >&2
    exit 1
fi

echo "==> BENCH_compile.json from the telemetry metrics dump"
python3 - <<EOF > BENCH_compile.json
import json
metrics = {}
for line in """$metrics""".splitlines():
    parts = line.split()
    if len(parts) == 2 and parts[0].startswith("lgen."):
        try:
            metrics[parts[0]] = float(parts[1])
        except ValueError:
            pass
out = {
    "compile_count": metrics.get("lgen.compile.count"),
    "compile_wall_us": {
        k: metrics.get(f"lgen.compile.wall_us.{k}")
        for k in ("count", "sum", "mean", "p50", "p95", "p99", "max")
    },
    "compile_p99_us": metrics.get("lgen.compile.wall_us.p99"),
    "tune_wall_us": {
        k: metrics.get(f"lgen.tune.wall_us.{k}")
        for k in ("count", "sum", "mean", "p50", "p95", "p99", "max")
    },
    "tune_candidates": metrics.get("lgen.tune.candidates"),
}
tune_us = out["tune_wall_us"]["sum"]
out["tune_candidates_per_sec"] = (
    round(out["tune_candidates"] / (tune_us / 1e6), 1)
    if out["tune_candidates"] and tune_us else None
)
assert out["compile_wall_us"]["count"], "no compile wall-time histogram in dump"
assert out["tune_wall_us"]["count"], "no tune wall-time histogram in dump"
print(json.dumps(out, indent=2))
EOF

echo "==> pruned vs full tuning: winner parity and model correlation floor"
# A larger GEMV, so candidates measure *distinct* cycle counts and the
# predicted-vs-measured rank correlation is well-defined.
prunefile=$(mktemp --suffix=.blac)
trap 'rm -f "$blacfile" "$tracefile" "$prunefile"' EXIT
cat > "$prunefile" <<'EOF'
alpha = scalar
A = matrix(4, 256)
x = vector(256)
y = vector(4)
y = alpha * (A * x) + y
EOF
full_out=$(./target/release/lgenc "$prunefile" --tune --prune=off 2>&1 >/dev/null)
# The 18 policies make 4 kernels here: topk:3 simulates 3 of them.
pruned_out=$(./target/release/lgenc "$prunefile" --tune --prune=topk:3 \
    --metrics 2>&1 >/dev/null)
cycles_of() { sed -n 's/.*autotuned to .*(\([0-9][0-9]*\) cycles.*/\1/p' <<<"$1"; }
full_cycles=$(cycles_of "$full_out")
pruned_cycles=$(cycles_of "$pruned_out")
if [ -z "$full_cycles" ] || [ -z "$pruned_cycles" ] \
    || [ "$full_cycles" -ne "$pruned_cycles" ]; then
    echo "error: pruned winner (${pruned_cycles:-?} cycles) does not match" \
        "the full search (${full_cycles:-?} cycles)" >&2
    echo "$pruned_out" >&2
    exit 1
fi
rank_milli=$(awk '$1 == "lgen.tune.rank_correlation_milli" { print $2 }' <<<"$pruned_out")
candidates_pruned=$(awk '$1 == "lgen.tune.candidates_pruned" { print $2 }' <<<"$pruned_out")
if [ -z "$rank_milli" ] || [ "$rank_milli" -lt 700 ]; then
    echo "error: predicted-vs-measured rank correlation" \
        "${rank_milli:-missing} (milli) below the 0.7 correlation floor" >&2
    echo "$pruned_out" >&2
    exit 1
fi
if [ -z "$candidates_pruned" ] || [ "$candidates_pruned" -eq 0 ]; then
    echo "error: topk:3 tune pruned no candidates" >&2
    echo "$pruned_out" >&2
    exit 1
fi
winner_of() { grep 'autotuned to' <<<"$1"; }
# Static scoring runs on the worker pool: the cut must not depend on its
# width, so one and two workers print the same winner, cut and ranking.
for j in 1 2; do
    width_out=$(./target/release/lgenc "$prunefile" --tune --prune=topk:3 -j "$j" \
        --metrics 2>&1 >/dev/null)
    width_rank=$(awk '$1 == "lgen.tune.rank_correlation_milli" { print $2 }' <<<"$width_out")
    width_pruned=$(awk '$1 == "lgen.tune.candidates_pruned" { print $2 }' <<<"$width_out")
    if [ "$(winner_of "$width_out")" != "$(winner_of "$pruned_out")" ] \
        || [ "$width_pruned" != "$candidates_pruned" ] || [ "$width_rank" != "$rank_milli" ]; then
        echo "error: topk:3 at -j $j differs from the default width" \
            "(pruned ${width_pruned:-?} vs $candidates_pruned," \
            "rank ${width_rank:-?}m vs ${rank_milli}m)" >&2
        echo "$width_out" >&2
        exit 1
    fi
done
# topk:inf keeps every kernel, so it cuts nothing: the unpruned search.
inf_out=$(./target/release/lgenc "$prunefile" --tune --prune=topk:inf 2>&1 >/dev/null)
if [ "$(winner_of "$inf_out")" != "$(winner_of "$full_out")" ] \
    || ! grep -q '0 candidate(s) skipped' <<<"$inf_out"; then
    echo "error: --prune=topk:inf is not the unpruned search" >&2
    echo "$inf_out" >&2
    exit 1
fi
echo "    winner parity at ${pruned_cycles} cycles," \
    "${candidates_pruned} candidate(s) pruned, rank correlation ${rank_milli}m" \
    "at -j 1, 2 and the default; topk:inf = off"
python3 - "$rank_milli" "$candidates_pruned" <<EOF > BENCH_compile.json.tmp
import json, sys
metrics = {}
for line in """$pruned_out""".splitlines():
    parts = line.split()
    if len(parts) == 2 and parts[0].startswith("lgen."):
        try:
            metrics[parts[0]] = float(parts[1])
        except ValueError:
            pass
out = json.load(open("BENCH_compile.json"))
out["rank_correlation"] = float(sys.argv[1]) / 1000.0
out["candidates_pruned"] = int(sys.argv[2])
tune_us = metrics.get("lgen.tune.wall_us.sum")
measured = metrics.get("lgen.tune.candidates")
out["pruned_tune_candidates_per_sec"] = (
    round(measured / (tune_us / 1e6), 1) if measured and tune_us else None
)
assert out["pruned_tune_candidates_per_sec"], "no pruned tuning throughput"
print(json.dumps(out, indent=2))
EOF
mv BENCH_compile.json.tmp BENCH_compile.json

echo "==> compile p50 regression guard (fresh, unmemoized compile)"
budget_us=$(cat ci/compile_p50_budget_us)
fresh=$(./target/release/lgenc "$blacfile" --metrics 2>&1 >/dev/null)
fresh_p50=$(awk '$1 == "lgen.compile.wall_us.p50" { print $2 }' <<<"$fresh")
if [ -z "$fresh_p50" ]; then
    echo "error: fresh compile produced no p50 metric" >&2
    echo "$fresh" >&2
    exit 1
fi
if [ "$fresh_p50" -gt $((budget_us * 2)) ]; then
    echo "error: fresh compile p50 ${fresh_p50}us exceeds 2x the budget" \
        "of ${budget_us}us (ci/compile_p50_budget_us)" >&2
    exit 1
fi
echo "    fresh compile p50 ${fresh_p50}us (budget ${budget_us}us)"

echo "==> program suite: Kalman predict + triangular apply (BENCH_programs.json)"
# The example prints machine-readable BENCH lines: per-arch fused vs
# unfused (statement-by-statement) cycles plus a joint-tune record.
prog_out=$(./target/release/examples/kalman_update)
if ! grep -q "BENCH program=kalman_predict" <<<"$prog_out"; then
    echo "error: kalman_update example printed no BENCH lines" >&2
    echo "$prog_out" >&2
    exit 1
fi
# Triangular apply as a two-statement program (y = LᵀLx, L lower
# triangular): exercises structured operands, cross-statement fusion, and
# program tuning through the lgenc front end.
trifile=$(mktemp --suffix=.blac)
trap 'rm -f "$blacfile" "$tracefile" "$prunefile" "$trifile"' EXIT
cat > "$trifile" <<'EOF'
L = matrix(8, 8) triangular(lower)
x = vector(8)
y = vector(8)
t = L * x;
y = L' * t;
EOF
tri_out=$(./target/release/lgenc "$trifile" --target atom --tune --metrics 2>&1 >/dev/null)
if ! grep -q "cross-statement fusion" <<<"$tri_out"; then
    echo "error: triangular-apply program did not report fusion" >&2
    echo "$tri_out" >&2
    exit 1
fi

echo "==> lgenc on a two-statement program (paranoid verify, --print-after-all)"
# Programs compile on the same path as single BLACs, so between-pass
# verification and the per-pass IR trace must cover them too.
twofile=$(mktemp --suffix=.blac)
trap 'rm -f "$blacfile" "$tracefile" "$prunefile" "$trifile" "$twofile"' EXIT
cat > "$twofile" <<'EOF'
A = matrix(4, 4)
x = vector(4)
y = vector(4)
z = vector(4)
y = A * x;
z = A * y;
EOF
two_out=$(./target/release/lgenc "$twofile" --verify=paranoid --print-after-all 2>&1 >/dev/null)
blocks=$(sed -n 's/^== IR after \(.*\) ==$/\1/p' <<<"$two_out" | paste -sd, -)
if [ "$blocks" != "codegen,unroll,scalrep,copyprop,dce,align" ]; then
    echo "error: two-statement program traced passes '$blocks'" >&2
    echo "$two_out" >&2
    exit 1
fi
python3 - <<EOF > BENCH_programs.json
import json, re, sys

# One serializer for every program record: the two suites used to emit
# different shapes (kalman had {arch, cycles, candidates, tune_ms},
# triangular had {tuned_cycles, measured_candidates, tune_wall_us, ...});
# everything now goes through tune_record/program_record so downstream
# tooling can treat BENCH_programs.json entries uniformly.
def tune_record(arch, tuned_cycles, measured_candidates, tune_wall_us):
    return {
        "arch": arch,
        "tuned_cycles": int(tuned_cycles),
        "measured_candidates": int(measured_candidates),
        "tune_wall_us": float(tune_wall_us) if tune_wall_us else None,
        "tune_candidates_per_sec":
            round(measured_candidates / (tune_wall_us / 1e6), 1)
            if measured_candidates and tune_wall_us else None,
    }

def program_record(name, tune, **extras):
    rec = {"program": name, "tune": tune}
    rec.update(extras)
    return rec

per_arch, tuned = {}, None
for line in """$prog_out""".splitlines():
    if not line.startswith("BENCH "):
        continue
    kv = dict(p.split("=", 1) for p in line.split()[1:])
    if "fused_cycles" in kv:
        per_arch[kv["arch"]] = {
            "statements": int(kv["statements"]),
            "fusions": int(kv["fusions"]),
            "fused_cycles": int(kv["fused_cycles"]),
            "unfused_cycles": int(kv["unfused_cycles"]),
        }
    elif "tuned_cycles" in kv:
        tuned = tune_record(
            kv["arch"], kv["tuned_cycles"], int(kv["candidates"]),
            int(kv["tune_ms"]) * 1000.0)
assert per_arch, "no per-arch BENCH lines from kalman_update"
assert tuned, "no joint-tune BENCH line from kalman_update"
assert any(a["fused_cycles"] < a["unfused_cycles"] for a in per_arch.values()), \
    "fused kernel not faster than statement-by-statement on any core"

metrics = {}
for line in """$tri_out""".splitlines():
    parts = line.split()
    if len(parts) == 2:
        try:
            metrics[parts[0]] = float(parts[1])
        except ValueError:
            pass
m = re.search(r"autotuned to .*\((\d+) cycles over (\d+) candidates\)", """$tri_out""")
assert m, "no autotuned line from the triangular-apply tune"
tri = tune_record(
    "atom", m.group(1), int(m.group(2)),
    metrics.get("lgen.tune.wall_us.sum"))
assert tri["tune_candidates_per_sec"], "no program tune throughput"
print(json.dumps({
    "kalman_predict": program_record("kalman_predict", tuned, per_arch=per_arch),
    "triangular_apply": program_record(
        "triangular_apply", tri,
        genome_candidates=metrics.get("lgen.tune.candidates")),
}, indent=2))
EOF
echo "    $(python3 -c "
import json
d = json.load(open('BENCH_programs.json'))
pa = d['kalman_predict']['per_arch']
wins = sum(a['fused_cycles'] < a['unfused_cycles'] for a in pa.values())
print(f'fused beats unfused on {wins}/{len(pa)} cores,',
      f'{d[\"triangular_apply\"][\"tune\"][\"tune_candidates_per_sec\"]} program candidates/s')")"

echo "==> compile service: lgend + 1000-request replay (BENCH_serve.json)"
servedir=$(mktemp -d)
trap 'rm -f "$blacfile" "$tracefile" "$prunefile" "$trifile"; rm -rf "$servedir"' EXIT
serve_sock="$servedir/lgend.sock"
serve_cache="$servedir/cache"

# Cold leg: fresh daemon, empty cache. Mixed tenants, >=20% duplicate
# fingerprints, a sliver of malformed traffic on throwaway connections.
./target/release/lgend --socket "$serve_sock" --cache-dir "$serve_cache" \
    --workers 4 2> "$servedir/lgend.log" &
lgend_pid=$!
./target/release/lgen-cli replay --socket "$serve_sock" \
    --requests 1000 --connections 4 --tenants 3 \
    --duplicate-pct 30 --malformed-pct 2 --seed 7 \
    --json "$servedir/cold.json" > /dev/null 2> "$servedir/replay-cold.log"
./target/release/lgen-cli stats --json --socket "$serve_sock" > "$servedir/stats.json"
./target/release/lgen-cli shutdown --socket "$serve_sock" > /dev/null
if ! wait "$lgend_pid"; then
    echo "error: lgend did not exit cleanly after the cold leg" >&2
    cat "$servedir/lgend.log" >&2
    exit 1
fi

# The daemon's own view, via the structured stats document (the replay
# harness has already audited that per-tenant counts sum to the total):
# per-tenant latency quantiles present, the admission gauge back to
# zero, and — satellite invariant — not a single span dropped from the
# trace ring during the whole leg.
python3 - "$servedir/stats.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
svc = d["service"]
assert svc["requests_total"] >= 1000, f"daemon saw only {svc['requests_total']}"
assert svc["queue_depth"] == 0, "admission gauge did not return to zero"
tenants = svc["by_tenant"]
assert sum(t["requests"] for t in tenants.values()) == svc["requests_total"], \
    "per-tenant requests do not sum to the total"
for t in ("tenant-0", "tenant-1", "tenant-2"):
    assert t in tenants, f"{t} missing from by_tenant"
    assert tenants[t]["service_us"]["p99"] > 0, f"{t} has no service p99"
    assert tenants[t]["queue_wait_us"]["count"] > 0, f"{t} has no queue-wait data"
assert svc["by_outcome"].get("compiled", 0) > 0, "no compiled outcomes recorded"
assert d["telemetry"]["spans_dropped"] == 0, \
    f"span ring dropped {d['telemetry']['spans_dropped']} spans"
assert d["telemetry"]["registry_size"] > 0
assert d["recorder"]["recorded"] > 0, "flight recorder saw no requests"
assert d["metrics"]["histograms"]["lgen.serve.request_wall_us"]["p99"] > 0
EOF

# Warm leg: restart on the same cache directory; the same seed replays
# the same schedule, so first arrivals now hit the persistent tier.
./target/release/lgend --socket "$serve_sock" --cache-dir "$serve_cache" \
    --workers 4 2>> "$servedir/lgend.log" &
lgend_pid=$!
./target/release/lgen-cli replay --socket "$serve_sock" \
    --requests 300 --connections 4 --tenants 3 \
    --duplicate-pct 30 --malformed-pct 0 --seed 7 \
    --json "$servedir/warm.json" > /dev/null 2> "$servedir/replay-warm.log"
./target/release/lgen-cli shutdown --socket "$serve_sock" > /dev/null
if ! wait "$lgend_pid"; then
    echo "error: lgend did not exit cleanly after the warm leg" >&2
    cat "$servedir/lgend.log" >&2
    exit 1
fi

# Fault leg: one injected panic and one injected mid-request hang, slow
# tracing armed below the hang. The panic (seq 3) must be contained by
# the release binary: answered `error internal`, counted once, recorded
# as `internal` in the flight recorder and snapshotted to the flight
# dump. Exactly the hung request (seq 5) must cross the threshold — one
# chrome-trace chunk in the slow-trace log, one slow_trace count in
# stats, and the request visible in the flight recorder via `lgen-cli
# tail`.
fault_sock="$servedir/fault.sock"
LGEN_FAULTS="panic@3,hang@5:900ms" ./target/release/lgend --socket "$fault_sock" \
    --workers 2 --slow-ms 400 --recorder-cap 32 2>> "$servedir/lgend.log" &
lgend_pid=$!
for i in $(seq 0 7); do
    status=0
    ./target/release/lgen-cli compile "$blacfile" --socket "$fault_sock" \
        --name "fault_k$i" --tenant t0 > /dev/null 2> "$servedir/fault-$i.err" || status=$?
    if [ "$i" -eq 3 ]; then
        if [ "$status" -eq 0 ] || ! grep -q 'internal: request panicked' "$servedir/fault-3.err"; then
            echo "error: the injected panic (seq 3) was not answered error internal" >&2
            cat "$servedir/fault-3.err" >&2
            exit 1
        fi
    elif [ "$status" -ne 0 ]; then
        echo "error: request seq $i failed:" >&2
        cat "$servedir/fault-$i.err" >&2
        exit 1
    fi
done
fault_tail=$(./target/release/lgen-cli tail --json --socket "$fault_sock")
fault_stats=$(./target/release/lgen-cli stats --json --socket "$fault_sock")
./target/release/lgen-cli shutdown --socket "$fault_sock" > /dev/null
wait "$lgend_pid" || true
slow_log="$fault_sock.slow-trace.jsonl"
chunks=$(wc -l < "$slow_log" 2>/dev/null || echo 0)
if [ "$chunks" -ne 1 ]; then
    echo "error: expected exactly 1 slow-trace chunk, got $chunks" >&2
    cat "$slow_log" 2>/dev/null >&2
    exit 1
fi
if ! grep -q '"slow_trace":{"enabled":true,"threshold_ms":400,"chunks":1}' <<<"$fault_stats"; then
    echo "error: stats --json does not count the one slow trace" >&2
    echo "$fault_stats" >&2
    exit 1
fi
if ! grep -q '"lgen.serve.panics_contained":1[,}]' <<<"$fault_stats"; then
    echo "error: stats --json does not count the one contained panic" >&2
    echo "$fault_stats" >&2
    exit 1
fi
if ! grep -q '"seq":5,' <<<"$fault_tail"; then
    echo "error: flight recorder dump is missing the hung request (seq 5)" >&2
    echo "$fault_tail" >&2
    exit 1
fi
if ! grep -Eq '"seq":3,[^}]*"outcome":"internal"' <<<"$fault_tail"; then
    echo "error: flight recorder does not show seq 3 answered internal" >&2
    echo "$fault_tail" >&2
    exit 1
fi
if ! grep -q '"seq":3,' "$fault_sock.flight-dump.json" 2>/dev/null; then
    echo "error: the contained panic left no flight dump holding seq 3" >&2
    exit 1
fi
echo "    fault leg: panic contained (seq 3), 1 slow-trace chunk, hung request in the flight recorder"

python3 - "$servedir/cold.json" "$servedir/warm.json" <<'EOF' > BENCH_serve.json
import json, sys
cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
assert cold["requests"] >= 1000, f"cold leg replayed only {cold['requests']}"
assert cold["ok"] == cold["requests"], \
    f"{cold['requests'] - cold['ok']} well-formed requests failed"
assert cold["compiled"] < cold["requests"], \
    "every request compiled — coalescing/caching never engaged"
assert cold["hit_rate"] > 0, "cold leg saw no cache or coalescing hits"
assert 0 < cold["p99_us"] < 10_000_000, f"implausible p99 {cold['p99_us']}us"
assert cold["p50_us"] <= cold["p99_us"], "quantiles out of order"
assert warm["disk_hits"] > 0, "restarted daemon never hit the disk tier"
assert warm["errors"] == 0, f"warm leg had {warm['errors']} errors"
per_tenant_p99 = {
    t: v["service_p99_us"] for t, v in cold["tenants"].items()
    if t.startswith("tenant-")
}
assert per_tenant_p99 and all(per_tenant_p99.values()), \
    f"missing per-tenant service p99: {cold.get('tenants')}"
print(json.dumps({
    "requests": cold["requests"] + warm["requests"],
    "p50_us": cold["p50_us"],
    "p99_us": cold["p99_us"],
    "hit_rate": cold["hit_rate"],
    "coalesce_rate": cold["coalesce_rate"],
    "per_tenant_service_p99_us": per_tenant_p99,
    "warm_restart_hit_rate": warm["hit_rate"],
    "cold": cold,
    "warm": warm,
}, indent=2))
EOF
echo "    $(python3 -c "
import json
d = json.load(open('BENCH_serve.json'))
print(f'{d[\"requests\"]} requests: p50 {d[\"p50_us\"]}us, p99 {d[\"p99_us\"]}us,',
      f'hit rate {d[\"hit_rate\"]:.0%}, warm-restart hit rate',
      f'{d[\"warm_restart_hit_rate\"]:.0%},',
      f'{d[\"cold\"][\"coalesced\"]} coalesced')")"

echo "==> no build artifacts tracked by git"
tracked=$(git ls-files 'target/*' | wc -l)
if [ "$tracked" -ne 0 ]; then
    echo "error: $tracked file(s) under target/ are tracked by git" >&2
    exit 1
fi

echo "==> ci.sh: all checks passed"
