//! Bench regression gate: diffs fresh `BENCH_*.ci.json` medians against a
//! committed baseline and fails on regression.
//!
//! CI runners and the container the committed baselines were measured on
//! run at different absolute speeds, so comparing raw medians across
//! machines would fire on every hardware change. The gate instead compares
//! the *shape* of the profile: it computes the per-benchmark fresh/baseline
//! ratio, takes the median ratio as the machine-speed factor, and flags any
//! benchmark whose ratio exceeds that factor by more than the threshold —
//! i.e. a benchmark that got slower *relative to everything else*. A
//! uniform machine-speed change passes; one kernel regressing by >25%
//! fails.
//!
//! Usage:
//!
//! ```text
//! bench_gate --baseline BENCH_training.json --fresh BENCH_training.ci.json \
//!            [--max-regression 0.25] [--min-common 3]
//! ```
//!
//! Two guards keep the gate from flaking on noisy runners: sub-microsecond
//! benches (timer-quantization-dominated) are never judged, and each
//! benchmark's threshold widens by three times the relative standard
//! deviation its baseline recorded — a benchmark that is 8% noisy at rest
//! gets a 25% + 24% allowance, while a stable one is held near 25%.
//!
//! A baseline benchmark missing from a fresh run that measured its group
//! (the name before the first `/`) fails the gate by name, so a renamed or
//! deleted bench cannot drop out of the gate unnoticed. Groups the fresh
//! run did not measure are left alone: one baseline file can gate several
//! bench binaries with disjoint groups (`BENCH_training.json` gates both
//! the training and the pipeline runs).
//!
//! Baselines may be either the criterion-shim dump format
//! (`{"benches": [{"name", "median_ns", …}]}`) or the committed
//! before/after format (the `"after"` section, `name → {"median_ns": …}`).
//! Exit status: 0 = pass, 1 = regression or missing bench, 2 = usage/parse
//! error.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// Default maximum relative regression versus the machine-speed-normalized
/// baseline (the ROADMAP's requested 25%).
const DEFAULT_MAX_REGRESSION: f64 = 0.25;
/// Below this many common benchmarks the median ratio is too noisy to
/// normalize with, and the gate refuses to judge.
const DEFAULT_MIN_COMMON: usize = 3;

/// `(median_ns, relative stddev)` per benchmark name.
type Medians = BTreeMap<String, (f64, f64)>;

/// `(median_ns, relative stddev)` per benchmark.
fn median_map(v: &Value) -> Medians {
    let mut out = BTreeMap::new();
    let insert = |out: &mut Medians, name: &str, rec: &Value| {
        if let Some(med) = rec
            .get("median_ns")
            .or_else(|| rec.get("mean_ns"))
            .and_then(Value::as_f64)
        {
            let rel_std = rec
                .get("stddev_ns")
                .and_then(Value::as_f64)
                .map_or(0.0, |sd| sd / med.max(1e-9));
            out.insert(name.to_string(), (med, rel_std));
        }
    };
    // Shim dump format: {"benches": [{"name": …, "median_ns": …}]}.
    if let Some(benches) = v.get("benches").and_then(Value::as_array) {
        for b in benches {
            if let Some(name) = b.get("name").and_then(Value::as_str) {
                insert(&mut out, name, b);
            }
        }
        return out;
    }
    // Committed before/after format: use the "after" section.
    if let Some(after) = v.get("after").and_then(Value::as_object) {
        for (name, rec) in after {
            insert(&mut out, name, rec);
        }
    }
    out
}

fn load(path: &str) -> Result<Medians, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let map = median_map(&v);
    if map.is_empty() {
        return Err(format!("{path}: no benchmark medians found"));
    }
    Ok(map)
}

fn run() -> Result<bool, String> {
    let mut baseline_path = None;
    let mut fresh_path = None;
    let mut max_regression = DEFAULT_MAX_REGRESSION;
    let mut min_common = DEFAULT_MIN_COMMON;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut grab = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--baseline" => baseline_path = Some(grab("--baseline")?),
            "--fresh" => fresh_path = Some(grab("--fresh")?),
            "--max-regression" => {
                max_regression = grab("--max-regression")?
                    .parse()
                    .map_err(|e| format!("--max-regression: {e}"))?;
            }
            "--min-common" => {
                min_common = grab("--min-common")?
                    .parse()
                    .map_err(|e| format!("--min-common: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let baseline = load(&baseline_path.ok_or("--baseline is required")?)?;
    let fresh = load(&fresh_path.ok_or("--fresh is required")?)?;
    let verdict = judge(&baseline, &fresh, max_regression, min_common);
    for line in &verdict.report {
        println!("{line}");
    }
    Ok(verdict.pass)
}

/// The gate's judgement of one fresh run: whether it passes, and the
/// report lines that say why.
struct Verdict {
    pass: bool,
    report: Vec<String>,
}

/// A benchmark's group: its name before the first `/`.
fn group(name: &str) -> &str {
    name.split_once('/').map_or(name, |(group, _)| group)
}

/// Judges `fresh` against `baseline`: every baseline bench in a group the
/// fresh run measured must be present, and no common bench may regress by
/// more than `max_regression` (plus its noise allowance) relative to the
/// median fresh/baseline ratio. With fewer than `min_common` judgeable
/// common benches, only the missing-bench check applies.
fn judge(baseline: &Medians, fresh: &Medians, max_regression: f64, min_common: usize) -> Verdict {
    let mut report = Vec::new();
    let measured: BTreeSet<&str> = fresh.keys().map(|name| group(name)).collect();
    let missing: Vec<&str> = baseline
        .keys()
        .filter(|name| measured.contains(group(name)) && !fresh.contains_key(*name))
        .map(String::as_str)
        .collect();
    for name in &missing {
        report.push(format!(
            "bench_gate: baseline benchmark {name} is missing from the fresh run of its group"
        ));
    }

    let mut common: Vec<(&str, f64, f64)> = baseline
        .iter()
        .filter_map(|(name, &(base, rel_std))| {
            // Sub-microsecond benches are dominated by timer quantization
            // and cannot be judged through a ratio; leave them to human
            // eyes in the uploaded artifacts.
            if base < 1_000.0 {
                report.push(format!(
                    "bench_gate: skipping sub-µs benchmark {name} ({base:.1} ns)"
                ));
                return None;
            }
            fresh.get(name).map(|&(f, fresh_rel_std)| {
                let noise = rel_std.max(fresh_rel_std);
                (name.as_str(), f / base.max(1e-9), noise)
            })
        })
        .collect();
    let mut failed = !missing.is_empty();
    if common.len() < min_common {
        report.push(format!(
            "bench_gate: only {} common benchmarks (need {min_common}); skipping judgement",
            common.len()
        ));
    } else {
        // Machine-speed factor: the median fresh/baseline ratio.
        let speed = {
            let mut ratios: Vec<f64> = common.iter().map(|&(_, r, _)| r).collect();
            ratios.sort_by(f64::total_cmp);
            let n = ratios.len();
            if n % 2 == 1 {
                ratios[n / 2]
            } else {
                0.5 * (ratios[n / 2 - 1] + ratios[n / 2])
            }
        };

        common.sort_by(|a, b| b.1.total_cmp(&a.1));
        report.push(format!(
            "bench_gate: machine-speed factor {speed:.3} over {} benchmarks",
            common.len()
        ));
        report.push(format!(
            "{:<55} {:>10} {:>12} {:>10}",
            "benchmark", "ratio", "normalized", "allowed"
        ));
        let mut regressed = false;
        for (name, ratio, noise) in &common {
            let normalized = ratio / speed;
            let allowed = 1.0 + max_regression + 3.0 * noise;
            let flag = if normalized > allowed {
                regressed = true;
                "  << REGRESSION"
            } else {
                ""
            };
            report.push(format!(
                "{name:<55} {ratio:>9.3}x {normalized:>11.3}x {allowed:>9.3}x{flag}"
            ));
        }
        if regressed {
            report.push(format!(
                "bench_gate: FAIL — at least one benchmark regressed more than {:.0}% \
                 relative to the machine-normalized baseline",
                max_regression * 100.0
            ));
        }
        failed |= regressed;
    }
    if !missing.is_empty() {
        report.push(format!(
            "bench_gate: FAIL — {} baseline benchmark(s) missing from the fresh run",
            missing.len()
        ));
    }
    if !failed {
        report.push("bench_gate: PASS".to_string());
    }
    Verdict {
        pass: !failed,
        report,
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Medians with no recorded noise, so every bench gets the bare
    /// allowance.
    fn medians(benches: &[(&str, f64)]) -> Medians {
        benches
            .iter()
            .map(|&(name, ns)| (name.to_string(), (ns, 0.0)))
            .collect()
    }

    fn fleet(scale: f64) -> Medians {
        medians(&[
            ("fleet/snapshot_256", 3_000.0 * scale),
            ("fleet/merge_round_4x256", 35_000.0 * scale),
            ("fleet/admission_10k", 500_000.0 * scale),
            ("fleet/stream_2k_events", 12_000_000.0 * scale),
        ])
    }

    fn judge_default(baseline: &Medians, fresh: &Medians) -> Verdict {
        judge(baseline, fresh, DEFAULT_MAX_REGRESSION, DEFAULT_MIN_COMMON)
    }

    #[test]
    fn a_missing_bench_fails_by_name() {
        let mut fresh = fleet(1.0);
        fresh.remove("fleet/admission_10k");
        let verdict = judge_default(&fleet(1.0), &fresh);
        assert!(!verdict.pass);
        assert!(verdict
            .report
            .iter()
            .any(|l| l.contains("fleet/admission_10k") && l.contains("missing")));
        // Too few common benches left to judge ratios does not excuse it.
        let fresh = medians(&[("fleet/snapshot_256", 3_000.0)]);
        assert!(!judge_default(&fleet(1.0), &fresh).pass);
    }

    #[test]
    fn a_uniform_slowdown_passes() {
        let verdict = judge_default(&fleet(1.0), &fleet(2.0));
        assert!(verdict.pass, "{:#?}", verdict.report);
    }

    #[test]
    fn one_forty_percent_regression_fails() {
        let mut fresh = fleet(1.0);
        fresh.get_mut("fleet/merge_round_4x256").expect("bench").0 *= 1.4;
        let verdict = judge_default(&fleet(1.0), &fresh);
        assert!(!verdict.pass);
        assert!(verdict
            .report
            .iter()
            .any(|l| l.starts_with("fleet/merge_round_4x256") && l.contains("REGRESSION")));
    }

    #[test]
    fn one_baseline_gates_disjoint_groups_apart() {
        // The training baseline also holds the pipeline's posttrain/*
        // medians; each bench binary measures only its own groups.
        let baseline = medians(&[
            ("training_throughput/paper_arch", 34_000_000.0),
            ("training_throughput/fast_arch", 10_000_000.0),
            ("inference_single_observation", 45.0),
            ("inference_tower_refresh", 760_000.0),
            ("quantile_head_overhead/single_head", 690_000.0),
            ("quantile_head_overhead/eight_heads", 770_000.0),
            ("posttrain/predict_test_4k", 1_250_000.0),
            ("posttrain/calibrate_5eps", 18_000_000.0),
            ("posttrain/predict_calibrate_eval", 31_000_000.0),
            ("posttrain/fine_tune_10_steps", 33_000_000.0),
        ]);
        let (pipeline, training): (Medians, Medians) = baseline
            .iter()
            .map(|(name, &(ns, _))| (name.clone(), (ns * 1.5, 0.0)))
            .partition(|(name, _)| group(name) == "posttrain");
        for fresh in [&pipeline, &training] {
            let verdict = judge_default(&baseline, fresh);
            assert!(verdict.pass, "{:#?}", verdict.report);
        }
    }
}
