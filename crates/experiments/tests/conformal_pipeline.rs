//! Conformal variants integrated with the real Pitot pipeline: every
//! calibration strategy in `pitot-conformal` must deliver its coverage
//! guarantee when wrapped around actual trained models on testbed data.

use pitot::{train, EvalSet, Objective, PitotConfig};
use pitot_conformal::{
    conditional_coverage, coverage, head_spread, CoverageCurve, HeadSelection, ScaledConformal,
    SplitConformal, TwoSidedCqr,
};
use pitot_testbed::{split::Split, Dataset, Testbed, TestbedConfig};
use std::sync::OnceLock;

struct Env {
    dataset: Dataset,
    split: Split,
    trained: pitot::TrainedPitot,
}

fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let dataset = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&dataset, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
        cfg.steps = 600;
        let trained = train(&dataset, &split, &cfg);
        Env {
            dataset,
            split,
            trained,
        }
    })
}

fn log_targets(dataset: &Dataset, idx: &[usize]) -> Vec<f32> {
    idx.iter()
        .map(|&i| dataset.observations[i].log_runtime())
        .collect()
}

fn test_subset(e: &Env, cap: usize) -> Vec<usize> {
    let stride = (e.split.test.len() / cap).max(1);
    e.split.test.iter().copied().step_by(stride).collect()
}

/// Scaled conformal (CQR-r) with head-spread dispersion covers on real data
/// and adapts: interference-heavy observations get wider bounds.
#[test]
fn scaled_conformal_covers_on_pitot_predictions() {
    let e = env();
    let eps = 0.1;
    let cal_preds = e.trained.predict_log_runtime(&e.dataset, &e.split.val);
    let cal_t = log_targets(&e.dataset, &e.split.val);
    let disp = head_spread(&cal_preds[0], &cal_preds[2]); // ξ=0.5 vs ξ=0.9
    let sc = ScaledConformal::fit(&cal_preds[0], &disp, &cal_t, eps);

    let test = test_subset(e, 4000);
    let test_preds = e.trained.predict_log_runtime(&e.dataset, &test);
    let test_t = log_targets(&e.dataset, &test);
    let test_disp = head_spread(&test_preds[0], &test_preds[2]);
    let bounds = sc.upper_bounds_log(&test_preds[0], &test_disp);
    let cov = coverage(&bounds, &test_t);
    assert!(cov >= 1.0 - eps - 0.03, "CQR-r coverage {cov}");
}

/// The pooled construction every experiment and server calibrates with
/// (`PooledConformal`, pools keyed by interference arity) holds coverage in
/// every arity pool, under both the paper's head selection and the naive
/// CQR head that serving uses.
#[test]
fn pooled_bounds_cover_per_arity_pool() {
    let e = env();
    let eps = 0.1;
    let test = test_subset(e, 6000);
    let test_t = log_targets(&e.dataset, &test);
    let test_g: Vec<u64> = test
        .iter()
        .map(|&i| e.dataset.observations[i].interferers.len() as u64)
        .collect();
    let eval = EvalSet::new(
        &e.dataset,
        &test,
        e.trained.predict_log_runtime(&e.dataset, &test),
    );
    for selection in [HeadSelection::TightestOnValidation, HeadSelection::NaiveXi] {
        let bounds = eval.bounds_log(&e.trained.fit_bounds(&e.dataset, eps, selection));
        for (pool, cov) in conditional_coverage(&bounds, &test_t, &test_g) {
            assert!(
                cov >= 1.0 - eps - 0.05,
                "{selection:?}: arity {pool} coverage {cov}"
            );
        }
    }
}

/// The coverage curve diagnostic validates the whole split-conformal grid on
/// real predictions.
#[test]
fn coverage_curve_is_valid_across_epsilons() {
    let e = env();
    let cal_preds = e.trained.predict_log_runtime(&e.dataset, &e.split.val);
    let cal_t = log_targets(&e.dataset, &e.split.val);
    let test = test_subset(e, 4000);
    let test_preds = e.trained.predict_log_runtime(&e.dataset, &test);
    let test_t = log_targets(&e.dataset, &test);

    let grid = [0.02f32, 0.05, 0.1, 0.2];
    let curve = CoverageCurve::evaluate(&grid, &test_t, |eps| {
        let sc = SplitConformal::fit(&cal_preds[0], &cal_t, eps);
        test_preds[0]
            .iter()
            .map(|&p| sc.upper_bound_log(p))
            .collect()
    });
    assert!(
        curve.valid_everywhere(0.03),
        "coverages {:?}",
        curve.coverage
    );
    assert!(curve.calibration_error() < 0.05);
}

/// Two-sided CQR around the median/high heads yields intervals that cover
/// and that flag artificially corrupted runtimes (the phase-shift detector).
#[test]
fn two_sided_intervals_cover_and_detect_anomalies() {
    let e = env();
    let eps = 0.1;
    let cal_preds = e.trained.predict_log_runtime(&e.dataset, &e.split.val);
    let cal_t = log_targets(&e.dataset, &e.split.val);
    let cqr = TwoSidedCqr::fit(&cal_preds[0], &cal_preds[2], &cal_t, eps);

    let test = test_subset(e, 4000);
    let test_preds = e.trained.predict_log_runtime(&e.dataset, &test);
    let test_t = log_targets(&e.dataset, &test);
    let ivs = cqr.intervals_log(&test_preds[0], &test_preds[2]);
    let cov = pitot_conformal::interval_coverage(&ivs, &test_t);
    assert!(cov >= 1.0 - eps - 0.03, "interval coverage {cov}");

    // Corrupt targets by 20x in either direction: detection must fire far
    // more often than the nominal false-positive rate.
    let fast: Vec<f32> = test_t.iter().map(|t| t - 3.0).collect();
    let slow: Vec<f32> = test_t.iter().map(|t| t + 3.0).collect();
    for corrupted in [fast, slow] {
        let flagged = ivs
            .iter()
            .zip(&corrupted)
            .filter(|(iv, &t)| !iv.contains(t))
            .count();
        let rate = flagged as f32 / corrupted.len() as f32;
        assert!(rate > 0.8, "anomaly detection rate {rate}");
    }
}
