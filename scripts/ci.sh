#!/usr/bin/env bash
# Tier-1 CI gate: release build, full test suite, clippy with warnings
# denied, and a pipeline-benchmark smoke check against the committed
# baseline. Run from anywhere; operates on the workspace root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release
# `crates/bench` is outside default-members; build its repro binaries
# explicitly so the smoke checks below run current code, not a stale
# artifact.
cargo build --release -p simc-bench

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q -p simc-bench"
# `crates/bench` is outside default-members, so the plain `cargo test`
# above skips its unit tests (the BENCH_pipeline.json emitter and the
# fuzz-coverage sweep).
cargo test -q --offline -p simc-bench

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> simc fuzz --seed 0xDAC94 --iters 200"
# Fixed-seed differential-fuzzing smoke: exits nonzero on any oracle
# disagreement or any injected netlist fault the verifier misses.
./target/release/simc fuzz --seed 0xDAC94 --iters 200

echo "==> simc fuzz --campaign: fixed-seed 2-shard mini-campaign"
# Coverage-guided campaign smoke. Each run gets its own fresh corpus
# directory — a shared corpus would warm-start the second run and change
# its output. The merged summary must be byte-identical across repeated
# runs and across shard counts (the campaign's determinism contract),
# and the covered-edge count must meet the committed floor (48 cases at
# seed 0xDAC94 reach 324 quotiented edges; the floor leaves headroom
# for deliberate generator changes, not for coverage regressions).
fuzz_dir="$(mktemp -d)"
trap 'rm -rf "$fuzz_dir"' EXIT
for run in a b; do
    ./target/release/simc fuzz --campaign --seed 0xDAC94 --iters 48 --shards 2 \
        --corpus "$fuzz_dir/corpus_$run" --out "$fuzz_dir/run_$run.json"
done
./target/release/simc fuzz --campaign --seed 0xDAC94 --iters 48 --shards 1 \
    --corpus "$fuzz_dir/corpus_c" --out "$fuzz_dir/run_c.json"
cmp "$fuzz_dir/run_a.json" "$fuzz_dir/run_b.json" \
    || { echo "error: campaign summary differs between identical runs" >&2; exit 1; }
cmp "$fuzz_dir/run_a.json" "$fuzz_dir/run_c.json" \
    || { echo "error: campaign summary differs across shard counts" >&2; exit 1; }
edges="$(grep -o '"coverage": {"edges": [0-9]*' "$fuzz_dir/run_a.json" | grep -o '[0-9]*$')"
[ -n "$edges" ] && [ "$edges" -ge 300 ] \
    || { echo "error: campaign covered ${edges:-0} edges, floor is 300" >&2; exit 1; }

echo "==> repro_pipeline --smoke --check BENCH_pipeline.json"
# 3-benchmark smoke sweep (duplicator, berkel3, ganesh_8); fails on
# malformed JSON or on counters / structural columns diverging from the
# committed baseline, on totals regressing more than 10% (+50ms grace),
# or on the state-assignment phase (`assign_s`) regressing more than 20%
# (+20ms grace) — the ganesh_8 assign gate. Without `--out` a check run
# writes nothing, so the committed baseline must come out byte-identical.
baseline_copy="$(mktemp)"
trap 'rm -f "$baseline_copy"; rm -rf "$fuzz_dir"' EXIT
cp BENCH_pipeline.json "$baseline_copy"
./target/release/repro_pipeline --smoke --check BENCH_pipeline.json
cmp BENCH_pipeline.json "$baseline_copy" \
    || { echo "error: repro_pipeline --check modified BENCH_pipeline.json" >&2; exit 1; }

echo "==> scale-family smoke: synthesize + verify scale-ring-16"
# Bounded symbolic-engine smoke: a 131 072-state spec must synthesize
# and verify hazard-free within the CI budget — tractable only with the
# arena-based reachability and stubborn-set reduction. Byte-identical
# output across thread counts guards the parallel determinism contract.
scale_dir="$(mktemp -d)"
trap 'rm -f "$baseline_copy"; rm -rf "$fuzz_dir" "$scale_dir"' EXIT
for t in 1 2 8; do
    ./target/release/simc synth benchmarks/scale-ring-16 --threads "$t" \
        > "$scale_dir/synth_$t.out"
    ./target/release/simc verify benchmarks/scale-ring-16 --threads "$t" \
        > "$scale_dir/verify_$t.out"
    grep -q 'hazard-free' "$scale_dir/verify_$t.out" \
        || { echo "error: scale-ring-16 failed to verify with $t thread(s)" >&2; exit 1; }
done
cmp "$scale_dir/synth_1.out" "$scale_dir/synth_2.out" \
    && cmp "$scale_dir/synth_1.out" "$scale_dir/synth_8.out" \
    || { echo "error: scale netlists differ across thread counts" >&2; exit 1; }
cmp "$scale_dir/verify_1.out" "$scale_dir/verify_2.out" \
    && cmp "$scale_dir/verify_1.out" "$scale_dir/verify_8.out" \
    || { echo "error: scale verification differs across thread counts" >&2; exit 1; }

echo "==> beam determinism: simc synth ganesh_8 and berkel3 at 1/2/8 threads"
# scale-ring-16 inserts nothing, so it never reaches the threaded beam
# search; these two rows insert four signals each through batches of
# several beam nodes.
for row in ganesh_8 berkel3; do
    for t in 1 2 8; do
        ./target/release/simc synth "benchmarks/$row" --threads "$t" \
            > "$scale_dir/${row}_$t.out"
    done
    cmp "$scale_dir/${row}_1.out" "$scale_dir/${row}_2.out" \
        && cmp "$scale_dir/${row}_1.out" "$scale_dir/${row}_8.out" \
        || { echo "error: $row netlists differ across thread counts" >&2; exit 1; }
done

echo "==> loadgen --smoke --contract: simc serve daemon smoke"
# Daemon smoke on an ephemeral port: loadgen spawns the real binary,
# probes the status contract (400/429/404/405), replays the smoke
# benchmarks with concurrent duplicates, and exits nonzero unless
# single-flight shows joins (serve.inflight_joined > 0), the warm pass
# revives from the shared cache at >= 90% hit-rate, and the daemon
# drains cleanly on POST /shutdown.
./target/release/loadgen --server ./target/release/simc --smoke --contract

echo "==> simc batch cold/warm over the built-in suite"
# Batch smoke with a shared on-disk artifact cache: the warm second pass
# must be byte-identical to the cold first pass and must actually hit
# the cache (no recomputation).
batch_dir="$(mktemp -d)"
trap 'rm -f "$baseline_copy"; rm -rf "$fuzz_dir" "$scale_dir" "$batch_dir"' EXIT
printf 'benchmarks/*\n' > "$batch_dir/manifest.txt"
./target/release/simc batch "$batch_dir/manifest.txt" \
    --cache-dir "$batch_dir/cache" > "$batch_dir/cold.json"
./target/release/simc batch "$batch_dir/manifest.txt" \
    --cache-dir "$batch_dir/cache" \
    --stats-json "$batch_dir/warm_stats.json" > "$batch_dir/warm.json"
cmp "$batch_dir/cold.json" "$batch_dir/warm.json" \
    || { echo "error: warm batch output differs from cold" >&2; exit 1; }
grep -q '"jobs_failed": 0' "$batch_dir/cold.json" \
    || { echo "error: batch jobs failed" >&2; exit 1; }
grep -q '"cache.misses": 0' "$batch_dir/warm_stats.json" \
    || { echo "error: warm batch pass missed the cache" >&2; exit 1; }

echo "==> simc convert: EDIF round trip + warm-cache smoke"
# Interchange smoke over two suite benchmarks: emit EDIF, SPICE and DOT,
# feed the emitted EDIF back through the reader (re-emission must be
# byte-identical — the canonical-form round-trip contract), require the
# Verilog conversion to equal `simc synth --verilog` byte for byte, and
# require the warm second conversion to be answered from the shared cache.
conv_dir="$(mktemp -d)"
trap 'rm -f "$baseline_copy"; rm -rf "$fuzz_dir" "$scale_dir" "$batch_dir" "$conv_dir"' EXIT
for bench in Delement berkel3; do
    ./target/release/simc convert "benchmarks/$bench" --to edif \
        --cache-dir "$conv_dir/cache" > "$conv_dir/$bench.edif"
    ./target/release/simc convert "$conv_dir/$bench.edif" --to edif \
        > "$conv_dir/$bench.reread.edif"
    cmp "$conv_dir/$bench.edif" "$conv_dir/$bench.reread.edif" \
        || { echo "error: $bench EDIF round trip not byte-identical" >&2; exit 1; }
    ./target/release/simc convert "benchmarks/$bench" --to spice > /dev/null
    ./target/release/simc convert "benchmarks/$bench" --to dot > /dev/null
    ./target/release/simc convert "benchmarks/$bench" --to verilog > "$conv_dir/$bench.convert.v"
    ./target/release/simc synth "benchmarks/$bench" --verilog \
        > "$conv_dir/$bench.synth.v" 2> /dev/null
    cmp "$conv_dir/$bench.convert.v" "$conv_dir/$bench.synth.v" \
        || { echo "error: $bench convert --to verilog differs from synth --verilog" >&2; exit 1; }
done
./target/release/simc convert benchmarks/Delement --to edif \
    --cache-dir "$conv_dir/cache" \
    --stats-json "$conv_dir/warm_stats.json" > "$conv_dir/warm.edif"
cmp "$conv_dir/Delement.edif" "$conv_dir/warm.edif" \
    || { echo "error: warm conversion differs from cold" >&2; exit 1; }
grep -q '"cache.misses": 0' "$conv_dir/warm_stats.json" \
    || { echo "error: warm conversion missed the cache" >&2; exit 1; }
grep -q '"convert.emits": 0' "$conv_dir/warm_stats.json" \
    || { echo "error: warm conversion re-emitted instead of hitting the cache" >&2; exit 1; }

echo "==> perfbench smoke: table1, scale-ring and serve-mix"
# The benchmark command of BENCHMARK.json, briefly: each workload must
# build, pass its output checks (exit 0) and report no failed operation
# on its last line. serve-mix's checker requires every verify repeat to
# equal its priming response byte for byte, so it guards the daemon's
# response memo end to end.
for workload in table1 scale-ring serve-mix; do
    last="$(CARGO_TARGET_DIR=.bench_build cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)"
    case "$last" in
        *'"failed": 0'*) ;;
        *) echo "error: perfbench $workload: $last" >&2; exit 1 ;;
    esac
    # Quality pin: speed work must not change which signals the search
    # inserts or which covers it picks. A deliberate quality change
    # updates these two values in the same change.
    if [ "$workload" = table1 ]; then
        case "$last" in
            *'"literals": {"value": 191,'*'"circuit_signals": {"value": 60,'*) ;;
            *) echo "error: perfbench table1 must report literals 191 and" \
                    "circuit_signals 60: $last" >&2
               exit 1 ;;
        esac
    fi
done

echo "==> perfbench tests: the independent checker's rejection tests"
# The benchmark's output checker derives excitation, reachability and the
# latch function from the graph's edges on its own, apart from the
# program's verifier; its tests must accept the synthesized circuit and
# reject each corrupted one (dropped cube, flipped literal, CSC conflict).
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml

echo "==> ci: all green"
