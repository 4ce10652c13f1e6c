//! Failure shrinking: reduce a failing workload to a minimal reproducer.
//!
//! The shrinker greedily halves one dimension at a time (and steps array
//! sizes down through the generator's allowed values), keeping a
//! candidate only when the *same oracle* still fails on it with the same
//! sample seed. The result is printed as a ready-to-paste integration
//! test so a red campaign turns into a committed regression test in one
//! copy-paste.

use crate::gen::Workload;
use crate::oracle::check_workload;

fn halved(x: usize, min: usize) -> Option<usize> {
    if x > min {
        Some((x / 2).max(min))
    } else {
        None
    }
}

fn stepped_down(x: usize, steps: &[usize]) -> Option<usize> {
    steps.iter().rev().find(|&&s| s < x).copied()
}

/// All one-step reductions of a workload, in a deterministic order.
pub fn candidates(w: &Workload) -> Vec<Workload> {
    let mut out = Vec::new();
    match *w {
        Workload::SystolicGemm { dim, m, n, k } => {
            if let Some(d) = stepped_down(dim, &[4, 8, 16]) {
                out.push(Workload::SystolicGemm { dim: d, m, n, k });
            }
            if let Some(v) = halved(m, 1) {
                out.push(Workload::SystolicGemm { dim, m: v, n, k });
            }
            if let Some(v) = halved(n, 1) {
                out.push(Workload::SystolicGemm { dim, m, n: v, k });
            }
            if let Some(v) = halved(k, 1) {
                out.push(Workload::SystolicGemm { dim, m, n, k: v });
            }
        }
        Workload::FlexibleGemm { ms, m, n, k } => {
            if let Some(s) = stepped_down(ms, &[16, 32, 64, 128]) {
                out.push(Workload::FlexibleGemm { ms: s, m, n, k });
            }
            if let Some(v) = halved(m, 1) {
                out.push(Workload::FlexibleGemm { ms, m: v, n, k });
            }
            if let Some(v) = halved(n, 1) {
                out.push(Workload::FlexibleGemm { ms, m, n: v, k });
            }
            if let Some(v) = halved(k, 1) {
                out.push(Workload::FlexibleGemm { ms, m, n, k: v });
            }
        }
        Workload::SparseSpmm {
            ms,
            m,
            n,
            k,
            sparsity_pct,
        } => {
            if let Some(s) = stepped_down(ms, &[32, 64, 128]) {
                out.push(Workload::SparseSpmm {
                    ms: s,
                    m,
                    n,
                    k,
                    sparsity_pct,
                });
            }
            if let Some(v) = halved(m, 2) {
                out.push(Workload::SparseSpmm {
                    ms,
                    m: v,
                    n,
                    k,
                    sparsity_pct,
                });
            }
            if let Some(v) = halved(n, 2) {
                out.push(Workload::SparseSpmm {
                    ms,
                    m,
                    n: v,
                    k,
                    sparsity_pct,
                });
            }
            if let Some(v) = halved(k, 8) {
                out.push(Workload::SparseSpmm {
                    ms,
                    m,
                    n,
                    k: v,
                    sparsity_pct,
                });
            }
        }
        Workload::SparseDenseEquiv { ms, m, n, k } => {
            if let Some(s) = stepped_down(ms, &[32, 64, 128]) {
                out.push(Workload::SparseDenseEquiv { ms: s, m, n, k });
            }
            if let Some(v) = halved(m, 2) {
                out.push(Workload::SparseDenseEquiv { ms, m: v, n, k });
            }
            if let Some(v) = halved(n, 2) {
                out.push(Workload::SparseDenseEquiv { ms, m, n: v, k });
            }
            if let Some(v) = halved(k, 4) {
                out.push(Workload::SparseDenseEquiv { ms, m, n, k: v });
            }
        }
        Workload::CacheReplay { arch, m, n, k } => {
            if let Some(v) = halved(m, 1) {
                out.push(Workload::CacheReplay { arch, m: v, n, k });
            }
            if let Some(v) = halved(n, 1) {
                out.push(Workload::CacheReplay { arch, m, n: v, k });
            }
            if let Some(v) = halved(k, 1) {
                out.push(Workload::CacheReplay { arch, m, n, k: v });
            }
        }
        Workload::TileCacheBitwise { arch, m, n, k } => {
            if let Some(v) = halved(m, 1) {
                out.push(Workload::TileCacheBitwise { arch, m: v, n, k });
            }
            if let Some(v) = halved(n, 1) {
                out.push(Workload::TileCacheBitwise { arch, m, n: v, k });
            }
            if let Some(v) = halved(k, 1) {
                out.push(Workload::TileCacheBitwise { arch, m, n, k: v });
            }
        }
        Workload::Pool {
            c,
            hw,
            window,
            stride,
        } => {
            if let Some(v) = halved(c, 1) {
                out.push(Workload::Pool {
                    c: v,
                    hw,
                    window,
                    stride,
                });
            }
            if let Some(v) = halved(hw, window + 1) {
                out.push(Workload::Pool {
                    c,
                    hw: v,
                    window,
                    stride,
                });
            }
        }
        Workload::IntraLayerParallel {
            ms,
            m,
            n,
            k,
            workers,
        } => {
            if let Some(s) = stepped_down(ms, &[32, 64]) {
                out.push(Workload::IntraLayerParallel {
                    ms: s,
                    m,
                    n,
                    k,
                    workers,
                });
            }
            if let Some(v) = halved(m, 2) {
                out.push(Workload::IntraLayerParallel {
                    ms,
                    m: v,
                    n,
                    k,
                    workers,
                });
            }
            if let Some(v) = halved(n, 1) {
                out.push(Workload::IntraLayerParallel {
                    ms,
                    m,
                    n: v,
                    k,
                    workers,
                });
            }
            if let Some(v) = halved(k, 2) {
                out.push(Workload::IntraLayerParallel {
                    ms,
                    m,
                    n,
                    k: v,
                    workers,
                });
            }
            if let Some(w2) = halved(workers, 2) {
                out.push(Workload::IntraLayerParallel {
                    ms,
                    m,
                    n,
                    k,
                    workers: w2,
                });
            }
        }
        // A model run has no smaller version of itself.
        Workload::ModelRun { .. } => {}
        Workload::ShardMerge {
            samples,
            seed_offset,
            shards,
        } => {
            // Keep at least one sample per shard so every shard stays
            // non-trivially populated while shrinking.
            if let Some(v) = halved(samples as usize, shards as usize) {
                out.push(Workload::ShardMerge {
                    samples: v as u64,
                    seed_offset,
                    shards,
                });
            }
            if let Some(v) = halved(shards as usize, 2) {
                out.push(Workload::ShardMerge {
                    samples,
                    seed_offset,
                    shards: v as u64,
                });
            }
        }
        Workload::ClusterScenario {
            arch_a,
            arch_b,
            model,
            requests,
            batch,
            priority_policy,
            rate_deci,
        } => {
            if let Some(v) = halved(requests, 2) {
                out.push(Workload::ClusterScenario {
                    arch_a,
                    arch_b,
                    model,
                    requests: v,
                    batch,
                    priority_policy,
                    rate_deci,
                });
            }
            if let Some(v) = halved(batch, 1) {
                out.push(Workload::ClusterScenario {
                    arch_a,
                    arch_b,
                    model,
                    requests,
                    batch: v,
                    priority_policy,
                    rate_deci,
                });
            }
            // Homogenize the pair: one fewer distinct profile to eyeball.
            if arch_b != arch_a {
                out.push(Workload::ClusterScenario {
                    arch_a,
                    arch_b: arch_a,
                    model,
                    requests,
                    batch,
                    priority_policy,
                    rate_deci,
                });
            }
        }
    }
    out
}

/// Whether `oracle` fails on `w` with `seed`.
fn still_fails(w: &Workload, seed: u64, oracle: &str) -> bool {
    check_workload(w, seed)
        .outcomes
        .iter()
        .any(|o| o.oracle == oracle && !o.passed)
}

/// Core greedy descent against an arbitrary failure predicate: returns
/// a locally minimal workload on which `fails` still holds, or the
/// input unchanged when it does not fail to begin with (the shrinker
/// never invents failures).
///
/// The real campaign instantiates `fails` with "this oracle rejects the
/// workload"; the self-check tests instantiate it with synthetic
/// predicates per fuzz class to prove the descent preserves failure.
pub fn shrink_with(w: &Workload, fails: impl Fn(&Workload) -> bool) -> Workload {
    let mut current = w.clone();
    if !fails(&current) {
        return current;
    }
    // Greedy descent; bounded to keep a pathological failure from
    // stalling the campaign.
    for _ in 0..64 {
        let Some(next) = candidates(&current).into_iter().find(|c| fails(c)) else {
            break;
        };
        current = next;
    }
    current
}

/// Shrinks a failing workload to a locally minimal one on which `oracle`
/// still fails, returning it with the oracle's evidence there.
pub fn shrink(w: &Workload, seed: u64, oracle: &str) -> (Workload, String) {
    let current = shrink_with(w, |c| still_fails(c, seed, oracle));
    let detail = check_workload(&current, seed)
        .outcomes
        .into_iter()
        .find(|o| o.oracle == oracle && !o.passed)
        .map(|o| o.detail)
        .unwrap_or_default();
    (current, detail)
}

/// Renders a ready-to-paste regression test for a shrunk failure.
pub fn repro_test(w: &Workload, seed: u64, oracle: &str) -> String {
    format!(
        "#[test]\n\
         fn shrunk_fuzz_reproducer() {{\n\
         \x20   // oracle: {oracle}\n\
         \x20   use stonne_verify::gen::Workload;\n\
         \x20   let w = Workload::{w:?};\n\
         \x20   let r = stonne_verify::oracle::check_workload(&w, {seed:#x});\n\
         \x20   for o in &r.outcomes {{\n\
         \x20       assert!(o.passed, \"{{}}: {{}}\", o.oracle, o.detail);\n\
         \x20   }}\n\
         }}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_strictly_reduce() {
        let w = Workload::SystolicGemm {
            dim: 16,
            m: 40,
            n: 30,
            k: 50,
        };
        let cs = candidates(&w);
        assert_eq!(cs.len(), 4);
        assert!(cs.iter().all(|c| c != &w));
    }

    #[test]
    fn passing_workload_is_returned_unchanged() {
        let w = Workload::SystolicGemm {
            dim: 8,
            m: 10,
            n: 10,
            k: 10,
        };
        let (s, detail) = shrink(&w, 1, "systolic_exact_cycles");
        assert_eq!(s, w);
        assert!(detail.is_empty());
    }

    /// Satellite self-check: for every fuzz class, a shrunk reproducer
    /// must still fail its originating predicate, and be locally minimal
    /// (no one-step reduction of it fails). The synthetic predicates
    /// stand in for failing oracles — every real oracle is green on the
    /// engine, so this is the only way to exercise the descent.
    #[test]
    fn shrunk_reproducers_still_fail_and_are_locally_minimal() {
        type Predicate = fn(&Workload) -> bool;
        let starts: Vec<(Workload, Predicate)> = vec![
            (
                Workload::SystolicGemm {
                    dim: 16,
                    m: 48,
                    n: 40,
                    k: 64,
                },
                |w| matches!(w, Workload::SystolicGemm { k, .. } if *k >= 9),
            ),
            (
                Workload::FlexibleGemm {
                    ms: 128,
                    m: 40,
                    n: 32,
                    k: 48,
                },
                |w| matches!(w, Workload::FlexibleGemm { ms, m, .. } if *ms >= 32 && *m >= 5),
            ),
            (
                Workload::SparseSpmm {
                    ms: 128,
                    m: 30,
                    n: 28,
                    k: 56,
                    sparsity_pct: 60,
                },
                |w| matches!(w, Workload::SparseSpmm { n, .. } if *n >= 7),
            ),
            (
                Workload::SparseDenseEquiv {
                    ms: 128,
                    m: 30,
                    n: 28,
                    k: 40,
                },
                |w| matches!(w, Workload::SparseDenseEquiv { k, .. } if *k >= 10),
            ),
            (
                Workload::CacheReplay {
                    arch: 2,
                    m: 30,
                    n: 28,
                    k: 40,
                },
                |w| matches!(w, Workload::CacheReplay { m, n, .. } if *m + *n >= 12),
            ),
            (
                Workload::TileCacheBitwise {
                    arch: 1,
                    m: 28,
                    n: 24,
                    k: 36,
                },
                |w| matches!(w, Workload::TileCacheBitwise { m, k, .. } if *m >= 4 && *k >= 9),
            ),
            (
                Workload::Pool {
                    c: 8,
                    hw: 15,
                    window: 2,
                    stride: 1,
                },
                |w| matches!(w, Workload::Pool { hw, .. } if *hw >= 5),
            ),
            (
                Workload::IntraLayerParallel {
                    ms: 64,
                    m: 36,
                    n: 24,
                    k: 48,
                    workers: 8,
                },
                |w| matches!(w, Workload::IntraLayerParallel { workers, .. } if *workers >= 3),
            ),
            (
                Workload::ModelRun {
                    model: stonne::models::ModelId::AlexNet,
                    arch: 1,
                },
                |w| matches!(w, Workload::ModelRun { .. }),
            ),
            (
                Workload::ShardMerge {
                    samples: 11,
                    seed_offset: 3,
                    shards: 4,
                },
                |w| matches!(w, Workload::ShardMerge { samples, .. } if *samples >= 5),
            ),
            (
                Workload::ClusterScenario {
                    arch_a: 2,
                    arch_b: 0,
                    model: 1,
                    requests: 14,
                    batch: 3,
                    priority_policy: true,
                    rate_deci: 20,
                },
                |w| matches!(w, Workload::ClusterScenario { requests, .. } if *requests >= 4),
            ),
        ];
        let classes: std::collections::BTreeSet<&str> =
            starts.iter().map(|(w, _)| w.class()).collect();
        assert_eq!(classes.len(), starts.len(), "one start per fuzz class");
        for (start, fails) in starts {
            assert!(fails(&start), "predicate must fail the start: {start:?}");
            let shrunk = shrink_with(&start, fails);
            assert!(
                fails(&shrunk),
                "shrinking lost the failure: {start:?} -> {shrunk:?}"
            );
            assert!(
                candidates(&shrunk).iter().all(|c| !fails(c)),
                "not locally minimal: {shrunk:?}"
            );
        }
    }

    /// A predicate that never fails leaves the workload untouched, for
    /// the new classes too.
    #[test]
    fn new_classes_pass_through_unchanged_when_green() {
        let w = Workload::ShardMerge {
            samples: 8,
            seed_offset: 1,
            shards: 2,
        };
        assert_eq!(shrink_with(&w, |_| false), w);
    }

    #[test]
    fn repro_test_is_pasteable() {
        let w = Workload::CacheReplay {
            arch: 1,
            m: 4,
            n: 4,
            k: 4,
        };
        let t = repro_test(&w, 0x2a, "cache_replay_bitwise");
        assert!(t.contains("fn shrunk_fuzz_reproducer"));
        assert!(t.contains("CacheReplay"));
        assert!(t.contains("0x2a"));
    }
}
