//! Compressed inference towers with conformal compensation (extension).
//!
//! The serving stack can run its frozen tower caches compressed —
//! magnitude-pruned weights, weights rounded to per-output-channel int8
//! grids, or both ([`pitot::CompressionSpec`]). Compression perturbs
//! every prediction, so the question this experiment answers is the one
//! that matters for the paper's calibration promise: **does the conformal
//! machinery keep its coverage guarantee over a compressed model?**
//!
//! The answer is yes, *provided calibration is refit on the compressed
//! model's own residuals*: conformal validity needs only exchangeability
//! of the nonconformity scores, not model quality, so recalibrating
//! restores coverage at every compression level while the interval
//! *width* absorbs the compression error. The control arm makes the
//! mechanism visible: serving compressed predictions under the **dense**
//! model's stale calibration undercovers, because the dense residual
//! quantile is too small for the compressed model's larger residuals.
//!
//! Arms (all at ε = 0.1):
//!
//! - **recalibrated** — for each level (`none`, `int8`, `pruned`,
//!   `pruned+int8`): predictions from the compressed tower cache,
//!   calibration scores *also* from the compressed cache. Acceptance:
//!   clean coverage ≥ 0.88 for every level, width non-decreasing in the
//!   measured compression error.
//! - **stale calibration** — `pruned+int8` predictions bounded with the
//!   dense model's calibration: the broken deployment this experiment
//!   warns against.
//!
//! The per-level notes record the memory side of the tradeoff
//! ([`pitot::CompressedTower::weight_bytes`], the size in an int8 or sparse
//! deployment format); wall-clock serving throughput and cache-build cost
//! per level are measured by `crates/bench/benches/compress.rs`
//! (`BENCH_compress.json`). Runs are replayable: a per-level FNV-1a
//! digest over every served bound is bitwise-stable across
//! `PITOT_THREADS` (diffed in CI via the `compress` example).

use crate::harness::Harness;
use crate::report::{Figure, Point, Series};
use pitot::{CompressedTower, CompressionSpec, Objective, PitotConfig, TrainedPitot};
use pitot_conformal::{HeadSelection, PooledConformal, PredictionSet, SweepCalibration};
use pitot_testbed::Dataset;

/// Miscoverage level of every arm.
const EPSILON: f32 = 0.1;
/// Sparsity of the pruning levels.
pub const SPARSITY: f32 = 0.5;
/// Test-set cap per replicate (keeps Fast-scale wall clock sane).
const TEST_CAP: usize = 4000;

/// The compression ladder, least to most aggressive.
pub fn levels() -> [CompressionSpec; 4] {
    [
        CompressionSpec::none(),
        CompressionSpec::int8(),
        CompressionSpec::pruned(SPARSITY),
        CompressionSpec::pruned_int8(SPARSITY),
    ]
}

/// Head predictions for `idx` scored through a (possibly compressed)
/// tower cache.
fn preds_cached(
    trained: &TrainedPitot,
    dataset: &Dataset,
    cache: &pitot::TowerCache,
    idx: &[usize],
) -> Vec<Vec<f32>> {
    let refs: Vec<&pitot_testbed::Observation> =
        idx.iter().map(|&i| &dataset.observations[i]).collect();
    trained.predict_log_runtime_cached(cache, &refs)
}

/// Interleaves the validation holdout into (calibration, selection)
/// halves, mirroring the core crate's split so dense and compressed
/// calibrations see identical index sets.
fn split_holdout(val: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let cal: Vec<usize> = val.iter().copied().step_by(2).collect();
    let sel: Vec<usize> = val.iter().copied().skip(1).step_by(2).collect();
    if sel.is_empty() {
        (cal.clone(), cal)
    } else {
        (cal, sel)
    }
}

fn targets_and_pools(dataset: &Dataset, idx: &[usize]) -> (Vec<f32>, Vec<usize>) {
    idx.iter()
        .map(|&i| {
            let o = &dataset.observations[i];
            (o.log_runtime(), o.interferers.len())
        })
        .unzip()
}

/// Conformal calibration fit on the residuals of the given tower cache —
/// the "recalibrate on the compressed model" step.
fn calibrate_on_cache(
    trained: &TrainedPitot,
    dataset: &Dataset,
    cache: &pitot::TowerCache,
) -> PooledConformal {
    let (cal_idx, sel_idx) = split_holdout(&trained.split.val);
    let cal_preds = preds_cached(trained, dataset, cache, &cal_idx);
    let sel_preds = preds_cached(trained, dataset, cache, &sel_idx);
    let (cal_t, cal_pool) = targets_and_pools(dataset, &cal_idx);
    let (sel_t, sel_pool) = targets_and_pools(dataset, &sel_idx);
    SweepCalibration::new(
        &PredictionSet {
            predictions: &cal_preds,
            targets_log: &cal_t,
            pools: &cal_pool,
        },
        sel_preds,
        sel_t,
        sel_pool,
        trained.model.config().objective.xis(),
    )
    .fit(EPSILON, HeadSelection::TightestOnValidation)
}

/// One (predictions, calibration) pairing judged over the test set.
struct ArmOutcome {
    coverage: f32,
    /// Mean log-space interval width, `bound − median prediction`.
    width: f32,
    /// FNV-1a over every served bound's bits — the replayability witness.
    digest: u64,
}

fn judge(
    dataset: &Dataset,
    test: &[usize],
    preds: &[Vec<f32>],
    conformal: &PooledConformal,
) -> ArmOutcome {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut covered, mut width_sum) = (0usize, 0.0f64);
    for (b, &i) in test.iter().enumerate() {
        let o = &dataset.observations[i];
        let head_preds: Vec<f32> = preds.iter().map(|h| h[b]).collect();
        let bound = conformal.bound_log(&head_preds, o.interferers.len());
        covered += usize::from(bound >= o.log_runtime());
        width_sum += f64::from(bound - head_preds[0]);
        for &byte in &bound.to_bits().to_le_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    ArmOutcome {
        coverage: covered as f32 / test.len().max(1) as f32,
        width: (width_sum / test.len().max(1) as f64) as f32,
        digest,
    }
}

/// Mean absolute deviation of compressed median predictions from the
/// dense ones — the realized compression error the widths must absorb.
fn compression_error(dense: &[Vec<f32>], compressed: &[Vec<f32>]) -> f32 {
    let n = dense[0].len().max(1);
    dense[0]
        .iter()
        .zip(&compressed[0])
        .map(|(d, c)| (d - c).abs())
        .sum::<f32>()
        / n as f32
}

/// Extension figure: conformal coverage and interval width across the
/// compression ladder, recalibrated vs stale-calibrated, at ε = 0.1.
pub fn ext_compress(h: &Harness) -> Figure {
    let mut fig = Figure::new(
        "ext-compress",
        "Compressed inference towers: int8 + magnitude pruning with conformal \
         compensation — recalibration restores coverage, width absorbs the error \
         (extension)",
    );
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    };
    let specs = levels();
    let n_levels = specs.len();

    struct LevelAgg {
        coverage: Vec<f32>,
        width: Vec<f32>,
        error: Vec<f32>,
    }
    let mut agg: Vec<LevelAgg> = (0..n_levels)
        .map(|_| LevelAgg {
            coverage: Vec::new(),
            width: Vec::new(),
            error: Vec::new(),
        })
        .collect();
    let mut stale_cov: Vec<f32> = Vec::new();
    let mut stale_width: Vec<f32> = Vec::new();

    for rep in 0..h.replicates {
        let split = h.split(0.5, rep);
        let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
        let test: Vec<usize> = split.test.iter().copied().take(TEST_CAP).collect();

        let mut dense_preds: Option<Vec<Vec<f32>>> = None;
        let mut dense_conformal: Option<PooledConformal> = None;
        for (l, spec) in specs.iter().enumerate() {
            let tower = CompressedTower::new(&trained, spec);
            let cache = tower.tower_cache(&h.dataset);
            let preds = preds_cached(&trained, &h.dataset, &cache, &test);
            let conformal = calibrate_on_cache(&trained, &h.dataset, &cache);
            let out = judge(&h.dataset, &test, &preds, &conformal);
            let error = dense_preds
                .as_ref()
                .map_or(0.0, |d| compression_error(d, &preds));
            fig.notes.push(format!(
                "{} rep={rep}: digest={:016x} coverage={:.4} width={:.4} error={:.4} \
                 weight_bytes={} ({}% of dense)",
                spec.name(),
                out.digest,
                out.coverage,
                out.width,
                error,
                tower.weight_bytes(),
                100 * tower.weight_bytes() / tower.dense_weight_bytes().max(1),
            ));
            agg[l].coverage.push(out.coverage);
            agg[l].width.push(out.width);
            agg[l].error.push(error);
            // The stale arm: the most aggressive level's predictions under
            // the dense model's calibration.
            if l == 0 {
                dense_preds = Some(preds);
                dense_conformal = Some(conformal);
            } else if l == n_levels - 1 {
                let stale = judge(
                    &h.dataset,
                    &test,
                    &preds,
                    dense_conformal.as_ref().expect("dense arm ran first"),
                );
                fig.notes.push(format!(
                    "stale ({}) rep={rep}: digest={:016x} coverage={:.4} width={:.4}",
                    spec.name(),
                    stale.digest,
                    stale.coverage,
                    stale.width,
                ));
                stale_cov.push(stale.coverage);
                stale_width.push(stale.width);
            }
        }
    }

    for (panel, metric, values) in [
        (
            "test coverage (ε=0.1)",
            "empirical coverage",
            agg.iter().map(|a| a.coverage.clone()).collect::<Vec<_>>(),
        ),
        (
            "interval width",
            "mean log-space width",
            agg.iter().map(|a| a.width.clone()).collect::<Vec<_>>(),
        ),
        (
            "compression error",
            "mean |Δ median log prediction| vs dense",
            agg.iter().map(|a| a.error.clone()).collect::<Vec<_>>(),
        ),
    ] {
        fig.series.push(Series {
            label: "recalibrated".into(),
            panel: panel.into(),
            metric: metric.into(),
            points: values
                .into_iter()
                .enumerate()
                .map(|(l, v)| Point::from_replicates(l as f32, v))
                .collect(),
        });
    }
    fig.series.push(Series {
        label: "stale (dense calibration)".into(),
        panel: "test coverage (ε=0.1)".into(),
        metric: "empirical coverage".into(),
        points: vec![Point::from_replicates((n_levels - 1) as f32, stale_cov)],
    });
    fig.series.push(Series {
        label: "stale (dense calibration)".into(),
        panel: "interval width".into(),
        metric: "mean log-space width".into(),
        points: vec![Point::from_replicates((n_levels - 1) as f32, stale_width)],
    });
    fig.notes.push(format!(
        "levels (x axis): {}; sparsity {SPARSITY} on the pruning levels",
        specs
            .iter()
            .map(CompressionSpec::name)
            .collect::<Vec<_>>()
            .join(", "),
    ));
    fig.notes.push(format!(
        "acceptance: recalibrated coverage ≥ 0.88 at ε = {EPSILON} for every level; \
         width non-decreasing in measured compression error; stale arm undercovers"
    ));
    fig.notes
        .push(format!("nominal coverage: {}", 1.0 - EPSILON));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn recalibration_restores_coverage_at_every_level() {
        let h = Harness::new(Scale::Fast);
        let fig = ext_compress(&h);
        let recal = |panel: &str| -> Vec<(f32, f32)> {
            fig.series_for("recalibrated", panel)
                .unwrap_or_else(|| panic!("{panel} missing"))
                .points
                .iter()
                .map(|p| (p.x, p.mean))
                .collect()
        };

        // The ISSUE's gate: clean coverage ≥ 0.88 at ε = 0.1 for *every*
        // compression level once calibration is refit on the compressed
        // model's residuals.
        let coverage = recal("test coverage (ε=0.1)");
        for (spec, &(_, cov)) in levels().iter().zip(&coverage) {
            assert!(
                cov >= 0.88,
                "{}: recalibrated coverage {cov} below 0.88",
                spec.name()
            );
        }

        // Width absorbs the compression error monotonically: sorting the
        // levels by measured prediction error must leave the mean widths
        // non-decreasing (0.5% noise-floor slack for the near-lossless
        // int8 level).
        let width = recal("interval width");
        let error = recal("compression error");
        let mut order: Vec<usize> = (0..width.len()).collect();
        order.sort_by(|&a, &b| error[a].1.total_cmp(&error[b].1));
        for w in order.windows(2) {
            let (lo, hi) = (width[w[0]].1, width[w[1]].1);
            assert!(
                hi >= lo * 0.995,
                "width not monotone in compression error: {lo} then {hi}"
            );
        }
        // The pruning levels carry real error, so their widths must be
        // strictly wider than dense.
        assert!(
            error[2].1 > error[1].1,
            "pruning should dominate int8 error"
        );
        assert!(width[2].1 > width[0].1, "pruned width did not absorb error");

        // The stale arm demonstrates the failure recalibration fixes:
        // compressed predictions under the dense calibration undercover.
        let stale = fig
            .series_for("stale (dense calibration)", "test coverage (ε=0.1)")
            .expect("stale arm missing")
            .points[0]
            .mean;
        let recal_last = coverage.last().unwrap().1;
        assert!(
            stale < recal_last - 0.02,
            "stale calibration should undercover: stale {stale} vs recalibrated {recal_last}"
        );
    }

    #[test]
    fn digests_are_replayable() {
        // Two runs over the same harness must reproduce every digest note
        // bitwise — the in-process half of the CI cross-thread diff.
        let h = Harness::new(Scale::Fast);
        let a = ext_compress(&h);
        let b = ext_compress(&h);
        let digests = |f: &Figure| -> Vec<String> {
            f.notes
                .iter()
                .filter(|n| n.contains("digest="))
                .cloned()
                .collect()
        };
        assert!(!digests(&a).is_empty());
        assert_eq!(digests(&a), digests(&b), "compress replay diverged");
    }
}
