//! The machine-readable campaign report (`verify_report.json`).
//!
//! CI uploads this file as an artifact and gates on `total_failures`.
//! Every field except `wall_time_ms` is deterministic for a fixed
//! `(seed, samples)` pair — divergences are stored as integer
//! centi-percent precisely so no float formatting can leak
//! nondeterminism into the bytes. [`VerifyReport::canonical_json`]
//! zeroes the wall time, which is what "byte-identical minus wall-time"
//! means operationally: `jq 'del(.wall_time_ms)'` on two reports from the
//! same seed must agree byte-for-byte.

use serde::{Deserialize, Serialize};

/// Aggregate of one oracle over the whole campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleSummary {
    /// Oracle name (see [`crate::oracle::ORACLES`]).
    pub name: String,
    /// How many samples this oracle judged.
    pub runs: u64,
    /// How many of them failed.
    pub failures: u64,
    /// Worst |divergence| this oracle measured, in centi-percent
    /// (0 when the oracle measures no divergence).
    pub worst_divergence_cpct: i64,
}

/// One campaign-level aggregate check (claims about averages, e.g. the
/// Fig. 1b "1.03 % average at full bandwidth" band).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignCheck {
    /// Check name.
    pub name: String,
    /// Number of samples that fed the aggregate.
    pub samples: u64,
    /// Measured aggregate, in centi-percent.
    pub value_cpct: i64,
    /// Admissible bound, in centi-percent.
    pub limit_cpct: i64,
    /// Whether the aggregate satisfies the bound (vacuously true when no
    /// sample fed it).
    pub pass: bool,
}

/// One failing sample, shrunk to its minimal reproducer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Index of the failing sample within the campaign.
    pub sample_index: u64,
    /// Oracle that rejected it.
    pub oracle: String,
    /// The originally generated workload (Rust literal).
    pub workload: String,
    /// The shrunk minimal workload (Rust literal).
    pub shrunk: String,
    /// Sample seed to reproduce with.
    pub seed: u64,
    /// The oracle's evidence on the shrunk workload.
    pub detail: String,
    /// Ready-to-paste regression test reproducing the failure.
    pub repro_test: String,
}

/// The whole campaign report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Campaign seed.
    pub seed: u64,
    /// Number of samples generated and checked.
    pub samples: u64,
    /// Per-oracle aggregates, in roster order.
    pub oracles: Vec<OracleSummary>,
    /// Campaign-level aggregate checks.
    pub campaign: Vec<CampaignCheck>,
    /// Shrunk failures (empty on a passing campaign).
    pub failures: Vec<FailureRecord>,
    /// Total failing (sample, oracle) pairs plus failing campaign checks.
    pub total_failures: u64,
    /// Wall time of the campaign in milliseconds — the only
    /// nondeterministic field.
    pub wall_time_ms: u64,
}

/// Schema tag of [`ShardReport`] files, bumped on layout changes so a
/// merge never silently combines incompatible shards.
pub const SHARD_SCHEMA: &str = "stonne-verify-shard/3";

/// The intermediate artifact of `verify --shard i/n`: everything the
/// merge needs to rebuild the monolithic [`VerifyReport`] byte for byte.
///
/// Divergences travel as `(sample_index, f64::to_bits)` pairs rather
/// than rounded aggregates: the merge replays the monolithic float
/// accumulation in sample-index order, so the campaign-average checks
/// of the merged report reproduce the exact same f64 sum — no
/// re-association, no formatting round-trip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Always [`SHARD_SCHEMA`].
    pub schema: String,
    /// Campaign seed (shared by every shard of a campaign).
    pub seed: u64,
    /// Total campaign samples (not this shard's share).
    pub samples: u64,
    /// This shard's index in `0..shard_count`.
    pub shard_index: u64,
    /// Number of shards the campaign was split into.
    pub shard_count: u64,
    /// Oracle roster the counters are indexed by, for merge validation.
    pub oracles: Vec<String>,
    /// Per-oracle run counts, in roster order.
    pub runs: Vec<u64>,
    /// Per-oracle failure counts, in roster order.
    pub failures: Vec<u64>,
    /// Per-oracle worst |divergence| in centi-percent, in roster order.
    pub worst_divergence_cpct: Vec<i64>,
    /// `(sample_index, f64 bits)` of each MAERI full-bandwidth
    /// divergence this shard measured.
    pub maeri_divergence_bits: Vec<(u64, u64)>,
    /// `(sample_index, f64 bits)` of each SIGMA dense divergence.
    pub sigma_divergence_bits: Vec<(u64, u64)>,
    /// Shrunk failures found by this shard.
    pub failure_records: Vec<FailureRecord>,
    /// Wall time of this shard in milliseconds (nondeterministic).
    pub wall_time_ms: u64,
}

impl ShardReport {
    /// Pretty JSON of the shard artifact.
    ///
    /// # Panics
    ///
    /// Never panics in practice (all fields serialize).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("shard report serializes");
        s.push('\n');
        s
    }

    /// Parses a shard artifact, rejecting unknown schemas.
    ///
    /// # Errors
    ///
    /// Returns a description when the JSON is malformed or the schema
    /// tag is not [`SHARD_SCHEMA`].
    pub fn from_json(json: &str) -> Result<ShardReport, String> {
        let shard: ShardReport =
            serde_json::from_str(json).map_err(|e| format!("malformed shard report: {e}"))?;
        if shard.schema != SHARD_SCHEMA {
            return Err(format!(
                "unsupported shard schema {:?} (expected {SHARD_SCHEMA:?})",
                shard.schema
            ));
        }
        Ok(shard)
    }

    /// Total failing (sample, oracle) pairs this shard saw.
    pub fn total_failures(&self) -> u64 {
        self.failures.iter().sum()
    }
}

impl VerifyReport {
    /// Pretty JSON including the measured wall time.
    ///
    /// # Panics
    ///
    /// Never panics in practice (all fields serialize).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    /// Pretty JSON with `wall_time_ms` zeroed — byte-identical across
    /// re-runs of the same `(seed, samples)` campaign.
    pub fn canonical_json(&self) -> String {
        let mut canonical = self.clone();
        canonical.wall_time_ms = 0;
        canonical.to_json()
    }

    /// Whether the campaign passed (gates CI).
    pub fn passed(&self) -> bool {
        self.total_failures == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> VerifyReport {
        VerifyReport {
            seed: 7,
            samples: 2,
            oracles: vec![OracleSummary {
                name: "systolic_exact_cycles".into(),
                runs: 2,
                failures: 0,
                worst_divergence_cpct: 0,
            }],
            campaign: vec![CampaignCheck {
                name: "maeri_full_bw_avg".into(),
                samples: 2,
                value_cpct: 103,
                limit_cpct: 1500,
                pass: true,
            }],
            failures: vec![],
            total_failures: 0,
            wall_time_ms: 1234,
        }
    }

    #[test]
    fn canonical_json_hides_wall_time_only() {
        let r = sample_report();
        let canonical = r.canonical_json();
        assert!(canonical.contains("\"wall_time_ms\": 0"));
        assert!(!canonical.contains("1234"));
        assert!(r.to_json().contains("\"wall_time_ms\": 1234"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let parsed: VerifyReport = serde_json::from_str(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn shard_report_round_trips_and_rejects_other_schemas() {
        let shard = ShardReport {
            schema: SHARD_SCHEMA.to_owned(),
            seed: 7,
            samples: 100,
            shard_index: 1,
            shard_count: 4,
            oracles: vec!["systolic_exact_cycles".into()],
            runs: vec![25],
            failures: vec![1],
            worst_divergence_cpct: vec![103],
            maeri_divergence_bits: vec![(5, 1.03f64.to_bits())],
            sigma_divergence_bits: vec![],
            failure_records: vec![],
            wall_time_ms: 9,
        };
        let parsed = ShardReport::from_json(&shard.to_json()).expect("parses");
        assert_eq!(parsed, shard);
        assert_eq!(parsed.total_failures(), 1);
        assert_eq!(
            f64::from_bits(parsed.maeri_divergence_bits[0].1),
            1.03,
            "divergence bits survive the JSON round-trip exactly"
        );

        let mut other = shard.clone();
        other.schema = "stonne-verify-shard/9".into();
        assert!(ShardReport::from_json(&other.to_json()).is_err());
        assert!(ShardReport::from_json("not json").is_err());
    }
}
