#!/usr/bin/env bash
# Compile-checks and tests the workspace WITHOUT network access by
# temporarily patching the external crates (serde, serde_json, rand,
# proptest, criterion) with the minimal stubs in tools/offline-stubs/.
#
# Use this in sandboxes where the crates-io registry is unreachable. The
# stubs mimic only the API surface this workspace uses; property tests
# compile away (the proptest stub swallows `proptest!` bodies) and benches
# smoke-run once instead of being measured. CI and any networked checkout
# should keep using the real crates — this script never leaves the patch
# in place (the manifest is restored on exit) and removes the Cargo.lock
# it generates unless one already existed.
#
# Usage: tools/offline-check.sh [cargo-subcommand args...]
#   tools/offline-check.sh                 # cargo check --workspace --all-targets
#   tools/offline-check.sh test -q         # cargo test -q (offline, stubbed)
#   tools/offline-check.sh clippy -- -D warnings
#   tools/offline-check.sh ci              # the gating steps of
#                                          # .github/workflows/ci.yml, offline
#   tools/offline-check.sh serve           # the sweep-server acceptance test
#                                          # (mirrors CI's `serve` job)
#   tools/offline-check.sh cluster         # the fixed-seed cluster scenario
#                                          # vs its golden fixture (mirrors
#                                          # CI's `cluster` job)
set -euo pipefail

cd "$(dirname "$0")/.."
repo_root=$(pwd)

manifest="$repo_root/Cargo.toml"
backup=$(mktemp)
cp "$manifest" "$backup"
had_lock=0
[ -f "$repo_root/Cargo.lock" ] && had_lock=1

restore() {
    cp "$backup" "$manifest"
    rm -f "$backup"
    if [ "$had_lock" -eq 0 ]; then
        rm -f "$repo_root/Cargo.lock"
    fi
}
trap restore EXIT

if grep -q "offline-stubs" "$manifest"; then
    echo "offline-check: Cargo.toml already patched; refusing to double-patch" >&2
    exit 1
fi

cat >>"$manifest" <<'EOF'

# --- appended by tools/offline-check.sh (removed on exit) ---
[patch.crates-io]
serde = { path = "tools/offline-stubs/serde" }
serde_json = { path = "tools/offline-stubs/serde_json" }
rand = { path = "tools/offline-stubs/rand" }
proptest = { path = "tools/offline-stubs/proptest" }
criterion = { path = "tools/offline-stubs/criterion" }
EOF

if [ "$#" -eq 0 ]; then
    set -- check --workspace --all-targets
fi

# `ci` runs the gating steps of .github/workflows/ci.yml job by job —
# lint, build-test, verify, serve, cluster — so a green local run
# predicts a green CI run instead of drifting from it. Left out: the MSRV
# matrix and the aarch64/cross legs (second toolchain or host), the
# non-gating perf job, artifact uploads, and the repeat runs whose check
# another step here already makes (verify's second campaign run is
# covered by the shard/merge byte-diff).
if [ "$1" = "ci" ]; then
    run() { echo "offline-check: $*" >&2; "$@"; }
    run cargo --offline fmt --all --check
    run tools/one-path-guard.sh
    # -A unused: the proptest stub swallows property-test bodies, so
    # items used only inside them look unused offline (they are not in
    # CI, which compiles the real proptest).
    run cargo clippy --offline --workspace --all-targets -- -D warnings -A unused
    run env RUSTDOCFLAGS="-D warnings" cargo --offline doc --no-deps --workspace
    run cargo --offline build --release --workspace
    run cargo --offline test -q --workspace --no-fail-fast
    run cargo --offline test --release -p stonne-verify --test golden_fixtures
    # The verify job's timing-only gate: the cache-interchange test and
    # the `timing_only_equals_full` oracle's own unit test.
    run cargo --offline test --release -p stonne-nn --test timing_only
    run cargo --offline test --release -p stonne-verify --lib timing_only_oracle
    run cargo --offline run --release -p stonne-verify -- --samples 200 --seed 7
    # The nightly shard/merge protocol, at PR scale: two CLI shards of
    # the seed-7 campaign must merge to the byte-identical report the
    # single-process run above just wrote (minus wall_time_ms).
    shard_dir=$(mktemp -d)
    run cargo --offline run --release -p stonne-verify -- \
        --samples 200 --seed 7 --shard 0/2 --out "$shard_dir/shard-0.json"
    run cargo --offline run --release -p stonne-verify -- \
        --samples 200 --seed 7 --shard 1/2 --out "$shard_dir/shard-1.json"
    run cargo --offline run --release -p stonne-verify -- merge \
        --out "$shard_dir/merged.json" "$shard_dir"/shard-*.json
    jq 'del(.wall_time_ms)' verify_report.json >"$shard_dir/a.json"
    jq 'del(.wall_time_ms)' "$shard_dir/merged.json" >"$shard_dir/b.json"
    run diff -u "$shard_dir/a.json" "$shard_dir/b.json"
    rm -rf "$shard_dir"
    run cargo --offline test --release -p stonne-serve --test server_roundtrip
    run cargo --offline test --release -p stonne-serve --lib killed_server_resumes
    run cargo --offline test --release -p stonne-cluster
    exit 0
fi

# `serve` mirrors the CI `serve` job: the end-to-end sweep-server
# acceptance test (cold sweep, warm store-served sweep, restart replay,
# corruption healing) in release mode.
if [ "$1" = "serve" ]; then
    cargo --offline test --release -p stonne-serve --test server_roundtrip
    exit 0
fi

# `cluster` mirrors the CI `cluster` job: the multi-accelerator serving
# scenario tests in release mode, including the fixed-seed acceptance
# scenario diffed against its committed golden fixture
# (crates/cluster/tests/golden/cluster_scenario.json). Re-bless after an
# intentional timing change with:
#   UPDATE_GOLDEN=1 tools/offline-check.sh cluster
if [ "$1" = "cluster" ]; then
    cargo --offline test --release -p stonne-cluster
    exit 0
fi

# `perf` builds and runs the tracked benchmark basket (the `perf` bin of
# crates/bench), writing results/BENCH.json. Extra args pass through:
#   tools/offline-check.sh perf --quick
#   tools/offline-check.sh perf --baseline results/BENCH_baseline.json
# CI's perf job also runs the end-to-end benchmark once,
#   crates/sysbench/run.sh --runs 1      # writes target/sysbench/results.json
# Run that directly, not through this wrapper: run.sh patches the stubs
# in itself when the registry is unreachable.
if [ "$1" = "perf" ]; then
    shift
    cargo --offline run --release -p stonne-bench --bin perf -- \
        --out results/BENCH.json "$@"
    exit 0
fi

cargo --offline "$@"
