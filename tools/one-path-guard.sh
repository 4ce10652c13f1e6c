#!/usr/bin/env bash
# "One path, no knob": grep-level guards for six structural rules of the
# lower -> account -> (optionally) compute layer path and of the model walk
# above it (docs/ARCHITECTURE.md, "Data flow of one operation" and "One
# walk per run"). Run by the `lint` job of ci.yml and by
# `tools/offline-check.sh ci`; needs no toolchain.
#
#   1. `Stonne::accounting` is the only caller of an engine's `accounting`
#      half: each of the four engines is named exactly once outside
#      `crates/core/src/engine/`, in `accelerator.rs`, next to exactly four
#      `self.accounting(` call sites.
#   2. Nothing in `stonne-serve` or `stonne-cluster` reads an output
#      tensor, so every `RunOptions::new()` there asks for none: it is
#      followed (same or next line) by `.timing_only()`.
#   3. A model run is one sequential walk around one simulator instance:
#      the non-test code of `crates/nn/src/runner.rs` names `Stonne::new(`
#      once, `run_model_simulated_with` calls `execute_graph(` once — the
#      walk the reference run uses — and the runner neither steps nodes
#      itself (`execute_node(`) nor fans layers over the worker pool
#      (`run_parallel(`).
#   4. Every MAC engine's `functional` half is the one order-preserving
#      kernel of `stonne-tensor`: the non-test code of
#      `crates/core/src/engine/{flexible,systolic}.rs` names `fold_gemm(`
#      once each, the old per-engine loops (`compute_chunk_output`, a
#      `.transposed()` copy of the streaming operand in `systolic.rs`, a
#      second one in `sparse.rs` beside the activation-sparsity
#      accounting's) exist only as test oracles, and neither crate holds
#      `unsafe`, a `target_feature` or a `target_arch` (one source, every
#      CPU, bit for bit).
#   5. One fidelity: every cycle count is an engine's `accounting` walk or
#      a layer-cache entry of one. No file of the simulator, the runner,
#      the serving layers, the CLI, the verifier or the facade (tests and
#      examples included) names the learned predictor's seams —
#      `CyclePredictor`, `with_predictor`, `LayerFeatures`,
#      `parse_fidelity` — or `ws_metadata_cycles`, through which an
#      accounting walk once ran outside `Stonne::accounting` without
#      tripping rule 1.
#   6. One way to resume: an interrupted run or sweep gets its work back
#      from the `DiskStore` (layer entries, per-point blobs). No file of
#      the workspace outside `sysbench`, no example, test, tool or
#      workflow names the in-run checkpoint seams — `checkpoint_every`,
#      `resume_from`, `CHECKPOINT_SCHEMA`, `stonne-checkpoint/`,
#      `CheckpointResume`, `resume_vs_straight`, `SimCache::export_json` /
#      `import_json`. The prose word "checkpoint" stays legal (serve uses
#      it for per-point blobs); `docs/` is not scanned because
#      PERFORMANCE.md names what it measured.
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
runner=crates/nn/src/runner.rs
n=$(src "$runner" | grep -cF 'Stonne::new(' || true)
[ "$n" -eq 1 ] || fail "$runner names Stonne::new( $n times (expected 1)"
# The function's body: from its signature to the first `}` in column 0
# (`src` prefixes every line with `file:line: `).
n=$(src "$runner" | awk '/pub fn run_model_simulated_with\(/,/: }$/' | grep -cF 'execute_graph(' || true)
[ "$n" -eq 1 ] || fail "run_model_simulated_with calls execute_graph( $n times (expected 1)"
if grep -nE 'execute_node\(|run_parallel\(' "$runner"; then
    fail "$runner steps nodes or fans work over the pool: a run is one execute_graph walk"
fi
engines=crates/core/src/engine
for engine in flexible systolic; do
    n=$(src "$engines/$engine.rs" | grep -cF 'fold_gemm(' || true)
    [ "$n" -eq 1 ] || fail "$engines/$engine.rs names fold_gemm( $n times (expected 1)"
done
old_loops=$(for f in crates/core/src/*.rs "$engines"/*.rs crates/tensor/src/*.rs; do src "$f"; done \
    | grep -F 'compute_chunk_output' || true)
[ -z "$old_loops" ] || fail "compute_chunk_output outside a test oracle:"$'\n'"$old_loops"
transposes() { # <engine> <expected count>
    n=$(src "$engines/$1.rs" | grep -cF '.transposed()' || true)
    [ "$n" -eq "$2" ] || fail "$engines/$1.rs calls .transposed() $n times (expected $2)"
}
transposes systolic 0
transposes sparse 1
if grep -rnE 'unsafe|target_feature|target_arch' crates/tensor/src crates/core/src; then
    fail "the functional kernel is safe, portable Rust: no unsafe, no per-CPU code"
fi
if grep -rnE 'CyclePredictor|with_predictor|LayerFeatures|parse_fidelity|ws_metadata_cycles' \
    crates/{core,nn,serve,cluster,cli,verify,stonne} examples tests; then
    fail "one fidelity: cycle counts come from engine accounting walks only"
fi
if grep -rnE 'checkpoint_every|resume_from|CHECKPOINT_SCHEMA|stonne-checkpoint/|CheckpointResume|resume_vs_straight|export_json|import_json' \
    crates/{core,nn,serve,cluster,cli,verify,stonne,bench} examples tests tools .github \
    --exclude=one-path-guard.sh; then
    fail "one way to resume: the DiskStore-backed layer cache, not in-run checkpoints"
fi
echo "one-path-guard: ok" >&2
