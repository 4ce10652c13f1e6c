//! `sysbench compare BASE.json NEW.json [MORE.json…]`: per workload ×
//! metric medians and quartiles of two sets of runs, with a verdict per
//! cell. The tool for "two sets of runs of the same code agree" and for
//! every later change that claims a gain or no regression.

use crate::report::{Better, ResultsFile, WorkloadRun, END_TO_END};
use crate::stats::{median, quartiles, spread};
use std::fmt::Write as _;

/// What a comparison cell says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is within the bound and the runs resolve it.
    Ok,
    /// The new median is worse than the base median by more than the
    /// bound.
    Regression,
    /// The medians are within the bound but the run-to-run spread of
    /// either side is wider than the bound, so "unchanged" is not shown
    /// (unless every new run reads better than every base run).
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of the base median by which the new median is worse (negative
/// when it is better). A base of 0 makes any worsening infinite.
fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if worse_by == 0.0 {
        0.0
    } else if base == 0.0 {
        f64::INFINITY.copysign(worse_by)
    } else {
        worse_by / base.abs()
    }
}

/// The verdict for one metric given each side's runs.
///
/// # Panics
///
/// Panics when either side has no runs.
pub fn verdict(better: Better, bound: f64, base: &[f64], new: &[f64]) -> Verdict {
    if worsening(better, median(base), median(new)) > bound {
        return Verdict::Regression;
    }
    if spread(base) <= bound && spread(new) <= bound {
        return Verdict::Ok;
    }
    let all_better = new.iter().all(|n| {
        base.iter().all(|b| match better {
            Better::Lower => n < b,
            Better::Higher => n > b,
        })
    });
    if all_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn runs_of<'a>(file: &'a ResultsFile, workload: &str) -> Vec<&'a WorkloadRun> {
    file.runs
        .iter()
        .filter(|run| run.workload == workload)
        .collect()
}

fn series(runs: &[&WorkloadRun], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|run| run.metric(metric)).collect()
}

fn cell(values: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(values);
    format!("{q2:>12.5} [{q1:.5}, {q3:.5}]")
}

/// The comparison of `new` against `base`, as a table, plus how many
/// cells were not `ok`.
///
/// # Errors
///
/// Returns a message when the files do not compare: their `deps` or
/// scale differ, or a workload has runs on one side only.
pub fn compare(base: &ResultsFile, new: &ResultsFile) -> Result<(String, usize), String> {
    if base.header.deps != new.header.deps {
        return Err(format!(
            "deps differ ({} vs {}): stub and real serde cost differently; rebuild one side",
            base.header.deps, new.header.deps
        ));
    }
    if base.header.scale != new.header.scale {
        return Err(format!(
            "scales differ ({} vs {})",
            base.header.scale, new.header.scale
        ));
    }
    let mut workloads: Vec<&str> = Vec::new();
    for run in base.runs.iter().chain(&new.runs) {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    let mut table = String::new();
    let mut not_ok = 0;
    writeln!(
        table,
        "{:<16} {:<36} {:>42} {:>42} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "worse%"
    )
    .ok();
    for workload in workloads {
        let (base_runs, new_runs) = (runs_of(base, workload), runs_of(new, workload));
        if base_runs.is_empty() || new_runs.is_empty() {
            return Err(format!("workload {workload} has runs on one side only"));
        }
        for metric in &base_runs[0].metrics {
            let (b, n) = (
                series(&base_runs, &metric.name),
                series(&new_runs, &metric.name),
            );
            if n.is_empty() {
                return Err(format!(
                    "{workload} {} is missing from the new runs",
                    metric.name
                ));
            }
            let def = END_TO_END.iter().find(|d| d.name == metric.name);
            let (worse, word) = match def {
                Some(def) => {
                    let verdict = verdict(def.better, def.bound, &b, &n);
                    not_ok += usize::from(verdict != Verdict::Ok);
                    let worse = worsening(def.better, median(&b), median(&n)) * 100.0;
                    (format!("{worse:>8.2}"), verdict.as_str())
                }
                // Per-layer metrics carry no bound. Counts and ratios
                // are exact facts about the run and must repeat; times
                // are shown for reading, not judged.
                None if matches!(metric.unit.as_str(), "count" | "ratio" | "MB") => {
                    let same = b.iter().chain(&n).all(|x| *x == b[0]);
                    not_ok += usize::from(!same);
                    (String::new(), if same { "same" } else { "moved" })
                }
                None => (String::new(), "-"),
            };
            writeln!(
                table,
                "{workload:<16} {:<36} {:>42} {:>42} {worse:>8}  {word}",
                format!("{} ({})", metric.name, metric.unit),
                cell(&b),
                cell(&n),
            )
            .ok();
        }
    }
    Ok((table, not_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Header, Metric, SCHEMA};

    #[test]
    fn verdict_follows_the_bound_and_the_spread() {
        use Better::{Higher, Lower};
        // Tight runs, median 4 % worse, bound 10 %.
        assert_eq!(
            verdict(Lower, 0.10, &[1.00, 1.01, 0.99], &[1.04, 1.05, 1.03]),
            Verdict::Ok
        );
        // Median 20 % worse.
        assert_eq!(
            verdict(Lower, 0.10, &[1.00, 1.01, 0.99], &[1.20, 1.21, 1.19]),
            Verdict::Regression
        );
        // Higher-is-better: a drop is the regression, a rise is not.
        assert_eq!(
            verdict(Higher, 0.10, &[100.0], &[80.0]),
            Verdict::Regression
        );
        assert_eq!(verdict(Higher, 0.10, &[100.0], &[120.0]), Verdict::Ok);
        // Medians agree but the runs scatter by more than the bound.
        assert_eq!(
            verdict(
                Lower,
                0.10,
                &[0.8, 1.0, 1.2, 0.9, 1.1],
                &[0.8, 1.0, 1.2, 0.9, 1.1]
            ),
            Verdict::Unresolved
        );
        // Scattered, but every new run beats every base run.
        assert_eq!(
            verdict(
                Lower,
                0.10,
                &[0.8, 1.0, 1.2, 0.9, 1.1],
                &[0.5, 0.6, 0.7, 0.4, 0.3]
            ),
            Verdict::Ok
        );
        // Bound 0: exact or regression; an improvement is fine.
        assert_eq!(
            verdict(Lower, 0.0, &[4.21, 4.21], &[4.21, 4.21]),
            Verdict::Ok
        );
        assert_eq!(verdict(Lower, 0.0, &[0.0], &[0.5]), Verdict::Regression);
        assert_eq!(verdict(Lower, 0.0, &[0.0], &[0.0]), Verdict::Ok);
        assert_eq!(verdict(Lower, 0.0, &[4.21], &[4.0]), Verdict::Ok);
    }

    fn file(deps: &str, op_s: &[f64]) -> ResultsFile {
        ResultsFile {
            header: Header {
                schema: SCHEMA.into(),
                deps: deps.into(),
                nproc: 2,
                store_fs: "ext4".into(),
                rustc: "r".into(),
                commit: "c".into(),
                fingerprint: "f".into(),
                seed: 7,
                seconds: 12.0,
                scale: "reduced".into(),
            },
            runs: op_s
                .iter()
                .map(|v| WorkloadRun {
                    workload: "model_uncached".into(),
                    traced: false,
                    seed: 7,
                    attempted: 5,
                    failed: 0,
                    sum_cycles: 1,
                    sum_macs: 1,
                    op_s_high_pct: 0.0,
                    op_s_high: 0.0,
                    op_s: vec![*v],
                    metrics: vec![
                        Metric::new("op_s_p50", *v, "s"),
                        Metric::new("failed_share", 0.0, "ratio"),
                    ],
                    failures: vec![],
                })
                .collect(),
        }
    }

    #[test]
    fn compare_tabulates_and_counts_cells_that_are_not_ok() {
        let (table, not_ok) = compare(
            &file("stub", &[1.0, 1.01, 0.99]),
            &file("stub", &[1.0, 1.02, 0.98]),
        )
        .unwrap();
        assert_eq!(not_ok, 0, "{table}");
        assert!(table.contains("op_s_p50 (s)") && table.contains("ok"));
        let (table, not_ok) = compare(
            &file("stub", &[1.0, 1.01, 0.99]),
            &file("stub", &[1.5, 1.5, 1.5]),
        )
        .unwrap();
        assert_eq!(not_ok, 1, "{table}");
        assert!(table.contains("regression"));
    }

    #[test]
    fn compare_refuses_runs_built_against_different_deps() {
        let err = compare(&file("stub", &[1.0]), &file("real", &[1.0])).unwrap_err();
        assert!(err.contains("deps differ"));
    }
}
