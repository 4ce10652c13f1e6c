//! Campaign orchestration: generate → check → aggregate → shrink.
//!
//! A campaign can run **monolithically** ([`run_campaign`]) or split
//! into deterministic **shards** ([`run_shard`]) that recombine with
//! [`merge_shards`] into a report byte-identical to the monolithic one
//! (modulo `wall_time_ms`). Shard `i` of `n` checks exactly the samples
//! whose index satisfies `index % n == i` — round-robin, so the
//! expensive classes spread evenly — and records its float divergences
//! as `(index, bits)` pairs so the merge can replay the monolithic
//! accumulation order exactly.

use std::time::Instant;

use crate::gen::{generate, generate_cheap, sample_seed, Workload};
use crate::oracle::{check_workload, ORACLES};
use crate::report::{
    CampaignCheck, FailureRecord, OracleSummary, ShardReport, VerifyReport, SHARD_SCHEMA,
};
use crate::shrink::{repro_test, shrink};
use crate::tolerance::{self, to_cpct};

/// Which generator a campaign draws its samples from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleSpace {
    /// The full workload roster ([`generate`]).
    #[default]
    Full,
    /// Cheap single-operation classes only ([`generate_cheap`]) — what
    /// the nested campaigns of [`Workload::ShardMerge`] use, so they
    /// can never recurse into another shard-merge sample.
    Cheap,
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of samples to generate and check.
    pub samples: u64,
    /// Campaign seed (drives every sample deterministically).
    pub seed: u64,
    /// Whether to shrink failures (disable for the fastest possible
    /// red/green answer).
    pub shrink: bool,
    /// Sample space to draw from.
    pub space: SampleSpace,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            samples: 200,
            seed: 7,
            shrink: true,
            space: SampleSpace::Full,
        }
    }
}

impl CampaignConfig {
    fn workload(&self, index: u64) -> Workload {
        match self.space {
            SampleSpace::Full => generate(self.seed, index),
            SampleSpace::Cheap => generate_cheap(self.seed, index),
        }
    }
}

/// Per-oracle counters plus the raw per-sample observations a campaign
/// (or one shard of it) accumulates.
struct Accumulator {
    runs: Vec<u64>,
    failures: Vec<u64>,
    worst_cpct: Vec<i64>,
    failure_records: Vec<FailureRecord>,
    /// `(sample index, f64 bits)` — bits, so shard files round-trip the
    /// exact value and the merged float sum reproduces the monolithic
    /// one bit for bit.
    maeri_divs: Vec<(u64, u64)>,
    sigma_divs: Vec<(u64, u64)>,
}

impl Accumulator {
    fn new() -> Self {
        Accumulator {
            runs: vec![0; ORACLES.len()],
            failures: vec![0; ORACLES.len()],
            worst_cpct: vec![0; ORACLES.len()],
            failure_records: Vec::new(),
            maeri_divs: Vec::new(),
            sigma_divs: Vec::new(),
        }
    }

    /// Checks sample `index` and folds its outcomes in.
    fn check_sample(&mut self, cfg: &CampaignConfig, index: u64) {
        let workload = cfg.workload(index);
        let seed = sample_seed(cfg.seed, index);
        let check = check_workload(&workload, seed);
        if let Some(d) = check.maeri_full_bw {
            self.maeri_divs.push((index, d.to_bits()));
        }
        if let Some(d) = check.sigma_dense {
            self.sigma_divs.push((index, d.to_bits()));
        }
        for outcome in &check.outcomes {
            let slot = ORACLES
                .iter()
                .position(|o| *o == outcome.oracle)
                .expect("oracle is in the roster");
            self.runs[slot] += 1;
            if let Some(d) = outcome.divergence_pct {
                self.worst_cpct[slot] = self.worst_cpct[slot].max(to_cpct(d.abs()));
            }
            if !outcome.passed {
                self.failures[slot] += 1;
                let (shrunk, detail) = if cfg.shrink {
                    shrink(&workload, seed, outcome.oracle)
                } else {
                    (workload.clone(), outcome.detail.clone())
                };
                eprintln!(
                    "verify: FAIL sample {index} oracle {} on {workload:?} (shrunk: {shrunk:?})",
                    outcome.oracle
                );
                self.failure_records.push(FailureRecord {
                    sample_index: index,
                    oracle: outcome.oracle.to_owned(),
                    workload: format!("{workload:?}"),
                    shrunk: format!("{shrunk:?}"),
                    seed,
                    detail,
                    repro_test: repro_test(&shrunk, seed, outcome.oracle),
                });
            }
        }
    }

    /// Builds the final report. The divergence lists must already be in
    /// ascending sample-index order (true for a monolithic walk; the
    /// merge sorts before calling).
    fn into_report(self, cfg: &CampaignConfig, wall_time_ms: u64) -> VerifyReport {
        let maeri: Vec<f64> = self
            .maeri_divs
            .iter()
            .map(|(_, b)| f64::from_bits(*b))
            .collect();
        let sigma: Vec<f64> = self
            .sigma_divs
            .iter()
            .map(|(_, b)| f64::from_bits(*b))
            .collect();
        let campaign = vec![
            average_check(
                "maeri_full_bw_avg_divergence",
                &maeri,
                tolerance::MAERI_FULL_BW_AVG_MAX_PCT,
            ),
            average_check(
                "sigma_dense_avg_divergence",
                &sigma,
                tolerance::SIGMA_DENSE_AVG_MAX_PCT,
            ),
        ];

        let oracles = ORACLES
            .iter()
            .enumerate()
            .map(|(i, name)| OracleSummary {
                name: (*name).to_owned(),
                runs: self.runs[i],
                failures: self.failures[i],
                worst_divergence_cpct: self.worst_cpct[i],
            })
            .collect();

        let total_failures =
            self.failures.iter().sum::<u64>() + campaign.iter().filter(|c| !c.pass).count() as u64;

        VerifyReport {
            seed: cfg.seed,
            samples: cfg.samples,
            oracles,
            campaign,
            failures: self.failure_records,
            total_failures,
            wall_time_ms,
        }
    }
}

/// Runs a full fuzz campaign and returns the report.
///
/// Progress lines go to stderr so stdout stays clean for scripting.
pub fn run_campaign(cfg: CampaignConfig) -> VerifyReport {
    let start = Instant::now();
    let mut acc = Accumulator::new();
    for index in 0..cfg.samples {
        acc.check_sample(&cfg, index);
        if (index + 1) % 50 == 0 {
            eprintln!("verify: {}/{} samples checked", index + 1, cfg.samples);
        }
    }
    acc.into_report(&cfg, start.elapsed().as_millis() as u64)
}

/// Runs shard `shard_index` of a campaign split `shard_count` ways:
/// exactly the samples with `index % shard_count == shard_index`.
///
/// # Panics
///
/// Panics when `shard_index >= shard_count` — a misconfigured shard
/// must not silently produce an empty artifact that merges cleanly.
pub fn run_shard(cfg: CampaignConfig, shard_index: u64, shard_count: u64) -> ShardReport {
    assert!(
        shard_index < shard_count && shard_count > 0,
        "shard {shard_index}/{shard_count} out of range"
    );
    let start = Instant::now();
    let mut acc = Accumulator::new();
    let mut checked = 0u64;
    for index in (shard_index..cfg.samples).step_by(shard_count as usize) {
        acc.check_sample(&cfg, index);
        checked += 1;
        if checked % 50 == 0 {
            eprintln!("verify: shard {shard_index}/{shard_count}: {checked} samples checked");
        }
    }
    ShardReport {
        schema: SHARD_SCHEMA.to_owned(),
        seed: cfg.seed,
        samples: cfg.samples,
        shard_index,
        shard_count,
        oracles: ORACLES.iter().map(|o| (*o).to_owned()).collect(),
        runs: acc.runs,
        failures: acc.failures,
        worst_divergence_cpct: acc.worst_cpct,
        maeri_divergence_bits: acc.maeri_divs,
        sigma_divergence_bits: acc.sigma_divs,
        failure_records: acc.failure_records,
        wall_time_ms: start.elapsed().as_millis() as u64,
    }
}

/// Recombines the shards of one campaign into the report the monolithic
/// run would have produced — byte-identical except `wall_time_ms`,
/// which becomes the sum of the shard wall times.
///
/// # Errors
///
/// Returns a description when the shards disagree on campaign
/// parameters or oracle roster, or do not form exactly the partition
/// `0..shard_count`.
pub fn merge_shards(shards: &[ShardReport]) -> Result<VerifyReport, String> {
    let first = shards.first().ok_or("no shards to merge")?;
    let expected: Vec<String> = ORACLES.iter().map(|o| (*o).to_owned()).collect();
    let mut present = vec![false; first.shard_count as usize];
    for s in shards {
        if s.schema != SHARD_SCHEMA {
            return Err(format!("shard {} has schema {:?}", s.shard_index, s.schema));
        }
        if (s.seed, s.samples, s.shard_count) != (first.seed, first.samples, first.shard_count) {
            return Err(format!(
                "shard {} is from a different campaign (seed {} samples {} shards {})",
                s.shard_index, s.seed, s.samples, s.shard_count
            ));
        }
        if s.oracles != expected {
            return Err(format!(
                "shard {} was produced by a different oracle roster",
                s.shard_index
            ));
        }
        let slot = present
            .get_mut(s.shard_index as usize)
            .ok_or_else(|| format!("shard index {} out of range", s.shard_index))?;
        if *slot {
            return Err(format!("shard {} appears twice", s.shard_index));
        }
        *slot = true;
    }
    if let Some(missing) = present.iter().position(|p| !p) {
        return Err(format!("shard {missing}/{} is missing", first.shard_count));
    }

    let mut acc = Accumulator::new();
    for s in shards {
        for i in 0..ORACLES.len() {
            acc.runs[i] += s.runs[i];
            acc.failures[i] += s.failures[i];
            acc.worst_cpct[i] = acc.worst_cpct[i].max(s.worst_divergence_cpct[i]);
        }
        acc.maeri_divs.extend_from_slice(&s.maeri_divergence_bits);
        acc.sigma_divs.extend_from_slice(&s.sigma_divergence_bits);
        acc.failure_records.extend_from_slice(&s.failure_records);
    }
    // Restore the monolithic walk order. Each sample lives wholly in one
    // shard and shards preserve intra-sample order, so a stable sort on
    // the sample index reproduces the monolithic sequence exactly.
    acc.maeri_divs.sort_by_key(|(index, _)| *index);
    acc.sigma_divs.sort_by_key(|(index, _)| *index);
    acc.failure_records.sort_by_key(|f| f.sample_index);

    let cfg = CampaignConfig {
        samples: first.samples,
        seed: first.seed,
        shrink: false,
        space: SampleSpace::Full,
    };
    let wall: u64 = shards.iter().map(|s| s.wall_time_ms).sum();
    Ok(acc.into_report(&cfg, wall))
}

/// Builds a campaign check asserting the average |divergence| of a
/// sample population stays under `limit_pct`.
fn average_check(name: &str, divs: &[f64], limit_pct: f64) -> CampaignCheck {
    let samples = divs.len() as u64;
    let value_cpct = if divs.is_empty() {
        0
    } else {
        to_cpct(divs.iter().map(|d| d.abs()).sum::<f64>() / divs.len() as f64)
    };
    let limit_cpct = to_cpct(limit_pct);
    CampaignCheck {
        name: name.to_owned(),
        samples,
        value_cpct,
        limit_cpct,
        pass: divs.is_empty() || value_cpct <= limit_cpct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_is_deterministic_and_green() {
        let cfg = CampaignConfig {
            samples: 12,
            seed: 3,
            shrink: true,
            space: SampleSpace::Full,
        };
        let a = run_campaign(cfg);
        let b = run_campaign(cfg);
        assert!(a.passed(), "failures: {:?}", a.failures);
        assert_eq!(a.canonical_json(), b.canonical_json());
    }

    /// Satellite regression: `--samples 0` must produce a valid, green,
    /// deterministic report, not a division hazard.
    #[test]
    fn empty_campaign_yields_a_valid_passing_report() {
        let cfg = CampaignConfig {
            samples: 0,
            seed: 7,
            shrink: true,
            space: SampleSpace::Full,
        };
        let r = run_campaign(cfg);
        assert!(r.passed());
        assert_eq!(r.samples, 0);
        assert!(r.oracles.iter().all(|o| o.runs == 0 && o.failures == 0));
        assert!(r.campaign.iter().all(|c| c.pass && c.samples == 0));
        assert!(r.failures.is_empty());
        assert_eq!(r.canonical_json(), run_campaign(cfg).canonical_json());
    }

    #[test]
    fn average_check_is_vacuous_on_empty_population() {
        let c = average_check("x", &[], 1.0);
        assert!(c.pass);
        assert_eq!(c.samples, 0);
    }

    /// The tentpole guarantee at unit scale: shards of a full-space
    /// campaign merge into the monolithic report byte for byte.
    #[test]
    fn merged_shards_reproduce_the_monolithic_report() {
        let cfg = CampaignConfig {
            samples: 24,
            seed: 5,
            shrink: false,
            space: SampleSpace::Full,
        };
        let mono = run_campaign(cfg);
        for shard_count in [1u64, 2, 3, 4] {
            let shards: Vec<ShardReport> = (0..shard_count)
                .map(|i| run_shard(cfg, i, shard_count))
                .collect();
            // Shard artifacts survive the JSON round-trip they take
            // between processes.
            let shards: Vec<ShardReport> = shards
                .iter()
                .map(|s| ShardReport::from_json(&s.to_json()).expect("round-trips"))
                .collect();
            let runs: u64 = shards.iter().map(|s| s.runs.iter().sum::<u64>()).sum();
            assert!(runs > 0);
            let merged = merge_shards(&shards).expect("shards are consistent");
            assert_eq!(
                merged.canonical_json(),
                mono.canonical_json(),
                "{shard_count} shards"
            );
        }
    }

    #[test]
    fn merge_rejects_inconsistent_shards() {
        let cfg = CampaignConfig {
            samples: 8,
            seed: 9,
            shrink: false,
            space: SampleSpace::Cheap,
        };
        let a = run_shard(cfg, 0, 2);
        let b = run_shard(cfg, 1, 2);
        assert!(merge_shards(&[]).is_err(), "no shards");
        assert!(
            merge_shards(std::slice::from_ref(&a)).is_err(),
            "missing shard"
        );
        assert!(
            merge_shards(&[a.clone(), a.clone()]).is_err(),
            "duplicate shard"
        );
        let mut other_seed = b.clone();
        other_seed.seed += 1;
        assert!(
            merge_shards(&[a.clone(), other_seed]).is_err(),
            "foreign campaign"
        );
        let mut other_roster = b.clone();
        other_roster.oracles[0] = "not_an_oracle".into();
        assert!(
            merge_shards(&[a.clone(), other_roster]).is_err(),
            "foreign roster"
        );
        assert!(merge_shards(&[a, b]).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_shard_index_panics() {
        let cfg = CampaignConfig {
            samples: 4,
            seed: 1,
            shrink: false,
            space: SampleSpace::Cheap,
        };
        run_shard(cfg, 2, 2);
    }
}
