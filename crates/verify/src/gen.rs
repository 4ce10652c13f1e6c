//! Seeded generators for fuzz workloads.
//!
//! Every sample of a campaign is fully determined by `(campaign seed,
//! sample index)`: the index is mixed into the seed with a SplitMix64
//! round, the mixed seed drives a [`SeededRng`], and the rng picks a
//! workload class and its dimensions. Re-running a campaign with the same
//! seed therefore regenerates the identical sample sequence — the
//! property the byte-identical `verify_report.json` guarantee rests on.

use stonne::models::ModelId;
use stonne::tensor::SeededRng;

/// One generated fuzz sample: a workload class plus its dimensions.
///
/// The `Debug` representation of a workload is a valid Rust expression
/// (all fields are named), which is what the shrinker pastes into the
/// ready-to-run reproducer test.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Dense GEMM on the TPU-like systolic composition.
    SystolicGemm {
        /// PE-array side length.
        dim: usize,
        /// GEMM M.
        m: usize,
        /// GEMM N.
        n: usize,
        /// GEMM K.
        k: usize,
    },
    /// Dense GEMM on the MAERI-like flexible composition at full
    /// bandwidth (`bw == ms`), compared against the MAERI analytical
    /// model.
    FlexibleGemm {
        /// Multiplier-switch count.
        ms: usize,
        /// GEMM M.
        m: usize,
        /// GEMM N.
        n: usize,
        /// GEMM K.
        k: usize,
    },
    /// SpMM on the SIGMA-like sparse composition, compared against the
    /// SIGMA analytical model (dense band at 0 % sparsity).
    SparseSpmm {
        /// Multiplier-switch count (bandwidth equals it).
        ms: usize,
        /// GEMM M.
        m: usize,
        /// GEMM N.
        n: usize,
        /// GEMM K.
        k: usize,
        /// Target zero fraction of the stationary operand, in percent.
        sparsity_pct: u32,
    },
    /// Sparse engine at 0 % sparsity vs the dense flexible engine on the
    /// same substrate (outputs must agree, cycles stay in an envelope).
    SparseDenseEquiv {
        /// Multiplier-switch count for both engines.
        ms: usize,
        /// GEMM M.
        m: usize,
        /// GEMM N.
        n: usize,
        /// GEMM K.
        k: usize,
    },
    /// Cached-vs-uncached replay of one operation on one architecture.
    CacheReplay {
        /// Architecture selector: 0 = TPU-like, 1 = MAERI-like,
        /// 2 = SIGMA-like.
        arch: u8,
        /// GEMM M.
        m: usize,
        /// GEMM N.
        n: usize,
        /// GEMM K.
        k: usize,
    },
    /// Width-class collapse ON vs OFF on one architecture: outputs,
    /// statistics (class bookkeeping stripped), cycle breakdown, and the
    /// cycle-level trace must be byte-identical.
    TileCacheBitwise {
        /// Architecture selector, as in [`Workload::CacheReplay`].
        arch: u8,
        /// GEMM M.
        m: usize,
        /// GEMM N.
        n: usize,
        /// GEMM K.
        k: usize,
    },
    /// Max-pooling on the streaming pool engine vs the CPU reference.
    Pool {
        /// Input channels.
        c: usize,
        /// Input height and width.
        hw: usize,
        /// Pooling window side.
        window: usize,
        /// Window stride.
        stride: usize,
    },
    /// Full-model run at `ModelScale::Tiny`: serial vs
    /// `RunOptions::parallel` equivalence.
    ModelRun {
        /// DNN model to run.
        model: ModelId,
        /// Architecture selector, as in [`Workload::CacheReplay`].
        arch: u8,
    },
    /// Multi-accelerator serving scenario (`stonne-cluster`): serial vs
    /// worker-pool profiling must yield byte-identical reports and equal
    /// per-request cycle counts.
    ClusterScenario {
        /// Architecture selector of instance 0 (0 = TPU, 1 = MAERI,
        /// 2 = SIGMA).
        arch_a: u8,
        /// Architecture selector of instance 1.
        arch_b: u8,
        /// Model selector into the cheap fuzz-model roster.
        model: u8,
        /// Requests generated for the scenario.
        requests: usize,
        /// Batching window.
        batch: usize,
        /// `true` → priority DRAM arbitration, else round-robin.
        priority_policy: bool,
        /// Poisson arrival rate in tenths of a request per million
        /// cycles (integer keeps the workload `Eq`-comparable).
        rate_deci: u32,
    },
    /// Dense GEMM on the flexible composition, run serially and with the
    /// intra-layer tile fan-out ([`stonne::core::Stonne::with_intra_tiles`]):
    /// outputs and statistics must be bitwise equal.
    IntraLayerParallel {
        /// Multiplier-switch count.
        ms: usize,
        /// GEMM M.
        m: usize,
        /// GEMM N.
        n: usize,
        /// GEMM K.
        k: usize,
        /// Worker budget handed to the engine.
        workers: usize,
    },
    /// A nested cheap-space campaign run monolithically and as
    /// `shards` deterministic shards merged back together: the merged
    /// report must be byte-identical to the monolithic one.
    ShardMerge {
        /// Samples of the nested campaign.
        samples: u64,
        /// Mixed into the sample seed to decorrelate nested campaigns.
        seed_offset: u64,
        /// Number of shards to split into.
        shards: u64,
    },
}

impl Workload {
    /// Short class tag used to group oracle statistics in the report.
    pub fn class(&self) -> &'static str {
        match self {
            Workload::SystolicGemm { .. } => "systolic_gemm",
            Workload::FlexibleGemm { .. } => "flexible_gemm",
            Workload::SparseSpmm { .. } => "sparse_spmm",
            Workload::SparseDenseEquiv { .. } => "sparse_dense_equiv",
            Workload::CacheReplay { .. } => "cache_replay",
            Workload::TileCacheBitwise { .. } => "tile_cache_bitwise",
            Workload::Pool { .. } => "pool",
            Workload::ModelRun { .. } => "model_run",
            Workload::ClusterScenario { .. } => "cluster_scenario",
            Workload::IntraLayerParallel { .. } => "intra_tile_parallel",
            Workload::ShardMerge { .. } => "shard_merge",
        }
    }
}

/// SplitMix64 round: mixes the sample index into the campaign seed so
/// neighbouring samples get decorrelated rng streams.
pub fn sample_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z =
        campaign_seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The cheap models used for full-model fuzz samples (Tiny scale keeps a
/// run in the tens of milliseconds; the heavyweights are covered by the
/// golden fixtures instead).
const FUZZ_MODELS: [ModelId; 4] = [
    ModelId::MobileNetV1,
    ModelId::SqueezeNet,
    ModelId::AlexNet,
    ModelId::Bert,
];

/// Generates the workload of sample `index` of the campaign.
pub fn generate(campaign_seed: u64, index: u64) -> Workload {
    let mut rng = SeededRng::new(sample_seed(campaign_seed, index));
    // Class weights (out of 100). Full-model runs are the most expensive
    // class by two orders of magnitude, so they are deliberately rare.
    let roll = rng.index(100);
    if roll < 20 {
        let dims = [4, 8, 16];
        Workload::SystolicGemm {
            dim: dims[rng.index(dims.len())],
            m: 1 + rng.index(64),
            n: 1 + rng.index(64),
            k: 1 + rng.index(96),
        }
    } else if roll < 38 {
        let sizes = [16, 32, 64, 128];
        Workload::FlexibleGemm {
            ms: sizes[rng.index(sizes.len())],
            m: 1 + rng.index(48),
            n: 1 + rng.index(48),
            k: 1 + rng.index(64),
        }
    } else if roll < 54 {
        let sizes = [32, 64, 128];
        let sparsities = [0, 0, 30, 60, 90];
        let ms = sizes[rng.index(sizes.len())];
        let m = 2 + rng.index(32);
        let n = 2 + rng.index(32);
        let k = 8 + rng.index(56);
        let sparsity_pct = sparsities[rng.index(sparsities.len())];
        // The SIGMA analytical model assumes rows pack the multiplier
        // array without fragmentation, which only holds when K divides
        // ms. Dense samples snap K to a divisor of every generated ms so
        // the sharp `sigma_dense_band` oracle applies to all of them;
        // sparse samples keep the full K range (their rows fragment
        // anyway and no band is asserted).
        let k = if sparsity_pct == 0 {
            [8, 16, 32][k % 3]
        } else {
            k
        };
        Workload::SparseSpmm {
            ms,
            m,
            n,
            k,
            sparsity_pct,
        }
    } else if roll < 66 {
        let sizes = [32, 64, 128];
        Workload::SparseDenseEquiv {
            ms: sizes[rng.index(sizes.len())],
            m: 2 + rng.index(32),
            n: 2 + rng.index(32),
            k: 4 + rng.index(48),
        }
    } else if roll < 70 {
        Workload::CacheReplay {
            arch: rng.index(3) as u8,
            m: 1 + rng.index(32),
            n: 1 + rng.index(32),
            k: 1 + rng.index(48),
        }
    } else if roll < 74 {
        // Sized like the cache-replay band: the tile cache must be
        // invisible on every architecture at every small shape.
        Workload::TileCacheBitwise {
            arch: rng.index(3) as u8,
            m: 1 + rng.index(32),
            n: 1 + rng.index(32),
            k: 1 + rng.index(48),
        }
    } else if roll < 80 {
        // Sized so the auto tile yields several filter chunks — the
        // serial-vs-fanned comparison is vacuous on a single chunk.
        let sizes = [32, 64];
        let worker_counts = [2, 3, 4, 8];
        Workload::IntraLayerParallel {
            ms: sizes[rng.index(sizes.len())],
            m: 8 + rng.index(32),
            n: 2 + rng.index(24),
            k: 8 + rng.index(48),
            workers: worker_counts[rng.index(worker_counts.len())],
        }
    } else if roll < 92 {
        let window = 2 + rng.index(2);
        let stride = 1 + rng.index(2);
        Workload::Pool {
            c: 1 + rng.index(8),
            hw: window + 2 + rng.index(14),
            window,
            stride,
        }
    } else if roll < 96 {
        Workload::ModelRun {
            model: FUZZ_MODELS[rng.index(FUZZ_MODELS.len())],
            arch: rng.index(3) as u8,
        }
    } else if roll < 98 {
        Workload::ShardMerge {
            samples: 4 + rng.index(8) as u64,
            seed_offset: rng.index(1 << 16) as u64,
            shards: 2 + rng.index(3) as u64,
        }
    } else {
        Workload::ClusterScenario {
            arch_a: rng.index(3) as u8,
            arch_b: rng.index(3) as u8,
            model: rng.index(4) as u8,
            requests: 4 + rng.index(12),
            batch: 1 + rng.index(3),
            priority_policy: rng.chance(0.5),
            rate_deci: 5 + rng.index(25) as u32,
        }
    }
}

/// Generates the workload of sample `index` from the **cheap** sample
/// space: single-operation classes only, no full-model runs and no
/// recursive campaign classes. This is what the nested campaigns of
/// [`Workload::ShardMerge`] draw from, so a shard-merge sample stays in
/// the same cost band as a handful of GEMMs and can never recurse.
pub fn generate_cheap(campaign_seed: u64, index: u64) -> Workload {
    let mut rng = SeededRng::new(sample_seed(campaign_seed, index));
    match rng.index(4) {
        0 => {
            let dims = [4, 8];
            Workload::SystolicGemm {
                dim: dims[rng.index(dims.len())],
                m: 1 + rng.index(16),
                n: 1 + rng.index(16),
                k: 1 + rng.index(24),
            }
        }
        1 => {
            let sizes = [16, 32];
            Workload::FlexibleGemm {
                ms: sizes[rng.index(sizes.len())],
                m: 1 + rng.index(16),
                n: 1 + rng.index(16),
                k: 1 + rng.index(24),
            }
        }
        2 => Workload::CacheReplay {
            arch: rng.index(3) as u8,
            m: 1 + rng.index(12),
            n: 1 + rng.index(12),
            k: 1 + rng.index(16),
        },
        _ => {
            let window = 2 + rng.index(2);
            let stride = 1 + rng.index(2);
            Workload::Pool {
                c: 1 + rng.index(4),
                hw: window + 2 + rng.index(8),
                window,
                stride,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for i in 0..50 {
            assert_eq!(generate(7, i), generate(7, i));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a: Vec<Workload> = (0..20).map(|i| generate(1, i)).collect();
        let b: Vec<Workload> = (0..20).map(|i| generate(2, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn every_class_appears_in_a_modest_campaign() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..300 {
            seen.insert(generate(7, i).class());
        }
        for class in [
            "systolic_gemm",
            "flexible_gemm",
            "sparse_spmm",
            "sparse_dense_equiv",
            "cache_replay",
            "tile_cache_bitwise",
            "pool",
            "model_run",
            "cluster_scenario",
            "intra_tile_parallel",
            "shard_merge",
        ] {
            assert!(seen.contains(class), "class {class} never generated");
        }
    }

    /// The class roll is a sample's first draw, so handing the rolls
    /// 86..92 to the pool class moves no sample outside that band: these
    /// seed-7 samples are the ones the campaign generated before.
    #[test]
    fn samples_outside_the_reassigned_band_are_unchanged() {
        let pinned = [
            (1, "SparseDenseEquiv { ms: 64, m: 17, n: 29, k: 44 }"),
            (3, "SystolicGemm { dim: 4, m: 19, n: 28, k: 66 }"),
            (4, "ModelRun { model: Bert, arch: 2 }"),
            (5, "TileCacheBitwise { arch: 1, m: 20, n: 32, k: 36 }"),
            (7, "FlexibleGemm { ms: 32, m: 3, n: 12, k: 39 }"),
            (10, "Pool { c: 5, hw: 14, window: 2, stride: 1 }"),
            (
                12,
                "SparseSpmm { ms: 64, m: 22, n: 30, k: 30, sparsity_pct: 90 }",
            ),
            (14, "CacheReplay { arch: 1, m: 29, n: 16, k: 4 }"),
            (
                15,
                "ShardMerge { samples: 5, seed_offset: 14477, shards: 4 }",
            ),
            (
                18,
                "IntraLayerParallel { ms: 64, m: 34, n: 9, k: 42, workers: 8 }",
            ),
        ];
        for (index, workload) in pinned {
            assert_eq!(
                format!("{:?}", generate(7, index)),
                workload,
                "sample {index}"
            );
        }
        // Rolls 90, 91, 88 and 88: inside the band.
        for index in [0, 24, 42, 57] {
            assert_eq!(generate(7, index).class(), "pool", "sample {index}");
        }
        // Rolls 94..96 went to the model-run class, whose two draws are the
        // first two its former neighbour made: these samples run the model
        // on the architecture they always ran.
        for (index, workload) in [
            (82, "ModelRun { model: SqueezeNet, arch: 2 }"),
            (239, "ModelRun { model: MobileNetV1, arch: 0 }"),
        ] {
            assert_eq!(
                format!("{:?}", generate(7, index)),
                workload,
                "sample {index}"
            );
        }
    }

    #[test]
    fn cheap_space_stays_cheap_and_covers_its_classes() {
        let cheap = ["systolic_gemm", "flexible_gemm", "cache_replay", "pool"];
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64 {
            let w = generate_cheap(11, i);
            assert!(cheap.contains(&w.class()), "expensive class {:?}", w);
            assert_eq!(w, generate_cheap(11, i), "cheap space deterministic");
            seen.insert(w.class());
        }
        for class in cheap {
            assert!(seen.contains(class), "class {class} never generated");
        }
    }

    #[test]
    fn debug_form_is_a_rust_expression() {
        let w = generate(7, 0);
        let s = format!("{w:?}");
        assert!(s.contains('{') && s.contains('}'), "{s}");
    }
}
