#!/usr/bin/env bash
# "One path, no knob": grep-level guards for two structural rules of the
# lower -> account -> (optionally) compute layer path (docs/ARCHITECTURE.md,
# "Data flow of one operation"). Run by the `lint` job of ci.yml and by
# `tools/offline-check.sh ci`; needs no toolchain.
#
#   1. `Stonne::accounting` is the only caller of an engine's `accounting`
#      half: each of the four engines is named exactly once outside
#      `crates/core/src/engine/`, in `accelerator.rs`, next to exactly four
#      `self.accounting(` call sites.
#   2. Nothing in `stonne-serve` or `stonne-cluster` reads an output
#      tensor, so every `RunOptions::new()` there asks for none: it is
#      followed (same or next line) by `.timing_only()`.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() { echo "one-path-guard: $*" >&2; exit 1; }
# Non-test source: everything before a file's trailing `#[cfg(test)]` module.
src() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$1"; }

acc=crates/core/src/accelerator.rs
for engine in systolic flexible sparse pool; do
    calls=$(src "$acc" | grep -c "${engine}::accounting(" || true)
    [ "$calls" -eq 1 ] || fail "$acc names ${engine}::accounting( $calls times (expected 1)"
done
sites=$(src "$acc" | grep -c 'self\.accounting(' || true)
[ "$sites" -eq 4 ] || fail "$acc has $sites self.accounting( call sites (expected 4)"
strays=$(grep -rnE '(systolic|flexible|sparse|pool)::accounting\(' crates --include='*.rs' \
    | grep -v "^$acc:" | grep -v '^crates/core/src/engine/' || true)
[ -z "$strays" ] || fail "engine accounting called outside Stonne::accounting:"$'\n'"$strays"

for file in crates/serve/src/*.rs crates/cluster/src/*.rs; do
    bad=$(awk '/RunOptions::new\(\)/ && !/timing_only\(\)/ { pending = FNR; next }
               pending { if ($0 !~ /\.timing_only\(\)/) print FILENAME ":" pending; pending = 0 }' "$file")
    [ -z "$bad" ] || fail "RunOptions::new() without .timing_only(): $bad"
done
echo "one-path-guard: ok" >&2
