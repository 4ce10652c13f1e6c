#!/usr/bin/env bash
# The one command: builds `sysbench` + `stonne-serve` in release and runs
# the benchmark. Arguments pass through to the binary:
#
#   crates/sysbench/run.sh                      # all four workloads, untraced
#   crates/sysbench/run.sh --trace              # the traced run
#   crates/sysbench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               # the /BENCHMARK.json protocol
#   crates/sysbench/run.sh compare A.json B.json
#
# Dependencies: the real serde/serde_json when cargo can resolve them
# without the network (a warmed registry cache, as on CI), else the
# workspace's offline stubs (tools/offline-stubs), patched in on the
# command line so no manifest is edited. The choice is recorded as `deps`
# in the results header and `sysbench compare` refuses to mix the two.
# (`cargo fetch` on a networked machine warms the cache.)
#
# Writes only under the cargo target directory (`target/`, or
# $CARGO_TARGET_DIR) and, for stores, a tmpfs directory it removes again
# (see README.md, "Where the store lives").
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ] || [ ! -d tools/offline-stubs ]; then
    echo "sysbench: $root is not the stonne-rs workspace (nothing to build or measure)" >&2
    exit 2
fi

packages=(-p stonne-sysbench -p stonne-serve)
stubs=()
for crate in serde serde_json rand proptest criterion; do
    stubs+=(--config "patch.crates-io.$crate.path=\"tools/offline-stubs/$crate\"")
done

# Cargo writes a Cargo.lock beside the root manifest; the repository
# tracks none, so one that was not there before is removed again.
had_lock=0
[ -f Cargo.lock ] && had_lock=1
cleanup() { [ "$had_lock" -eq 1 ] || rm -f Cargo.lock; }
trap cleanup EXIT

# Cargo's own progress goes to stderr; stdout is the benchmark's.
if cargo build --release --offline "${packages[@]}" >&2 2>/dev/null; then
    deps=real
elif cargo build --release --offline "${stubs[@]}" "${packages[@]}" >&2; then
    deps=stub
else
    echo "sysbench: build failed" >&2
    exit 2
fi
cleanup

target=${CARGO_TARGET_DIR:-target}
SYSBENCH_DEPS=$deps exec "$target/release/sysbench" "$@"
