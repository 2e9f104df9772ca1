//! Failure injection and extreme-configuration robustness: the pipeline must
//! stay well-defined when the environment degrades — high crash rates,
//! zero noise, tiny timeouts, minimal data.

use pitot::{train, EvalSet, Objective, PitotConfig};
use pitot_conformal::HeadSelection;
use pitot_testbed::{split::Split, DatasetStats, Testbed, TestbedConfig};

/// A cluster where half of all (workload, platform) combinations crash:
/// collection must skip them and every model must still train.
#[test]
fn heavy_crash_rate_still_yields_a_trainable_dataset() {
    let cfg = TestbedConfig {
        crash_rate: 0.5,
        ..TestbedConfig::small()
    };
    let ds = Testbed::generate(&cfg).collect_dataset();
    let stats = DatasetStats::compute(&ds);
    assert!(stats.isolation_fill < 0.6, "crashes should leave holes");
    assert!(stats.per_mode[0] > 500, "enough isolation data survives");

    let split = Split::stratified(&ds, 0.6, 0);
    let mut pitot_cfg = PitotConfig::tiny();
    pitot_cfg.steps = 150;
    let trained = train(&ds, &split, &pitot_cfg);
    let idx: Vec<usize> = split.test.iter().copied().take(500).collect();
    let mape = trained.mape(&ds, &idx);
    assert!(mape.is_finite() && mape > 0.0);
}

/// Zero measurement noise: the learning problem becomes (nearly)
/// deterministic and error should drop well below the noisy setting.
#[test]
fn zero_noise_floor_improves_error() {
    let noisy_cfg = TestbedConfig::small();
    let clean_cfg = TestbedConfig {
        noise_scale: 0.0,
        ..TestbedConfig::small()
    };
    let mut pitot_cfg = PitotConfig::tiny();
    pitot_cfg.steps = 400;

    let mape_for = |cfg: &TestbedConfig| {
        let ds = Testbed::generate(cfg).collect_dataset();
        let split = Split::stratified(&ds, 0.6, 0);
        let trained = train(&ds, &split, &pitot_cfg);
        let iso: Vec<usize> = split
            .test
            .iter()
            .copied()
            .filter(|&i| ds.observations[i].interferers.is_empty())
            .take(2000)
            .collect();
        trained.mape(&ds, &iso)
    };
    let noisy = mape_for(&noisy_cfg);
    let clean = mape_for(&clean_cfg);
    assert!(
        clean < noisy,
        "removing measurement noise must reduce error: clean {clean} vs noisy {noisy}"
    );
}

/// An aggressive timeout truncates the right tail of the runtime
/// distribution without corrupting what remains.
#[test]
fn tight_timeout_truncates_the_tail() {
    let cfg = TestbedConfig {
        timeout_s: 2.0,
        ..TestbedConfig::small()
    };
    let ds = Testbed::generate(&cfg).collect_dataset();
    assert!(!ds.observations.is_empty());
    for o in &ds.observations {
        assert!(o.runtime_s <= 2.0, "observation exceeds the timeout window");
    }
    let stats = DatasetStats::compute(&ds);
    assert!(stats.max_runtime_s <= 2.0);
}

/// Conformal calibration stays valid at the smallest workable holdout: the
/// finite-sample ⌈(n+1)(1−ε)⌉ rank must clamp, not panic, and coverage on
/// the training distribution must not collapse.
#[test]
fn conformal_with_minimal_calibration_data() {
    let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
    // A 3% train fraction leaves only a sliver for validation/calibration.
    let split = Split::stratified(&ds, 0.03, 0);
    let mut cfg = PitotConfig::tiny();
    cfg.objective = Objective::Quantiles(vec![0.5, 0.9]);
    cfg.steps = 150;
    let trained = train(&ds, &split, &cfg);
    let bounds = trained.fit_bounds(&ds, 0.1, HeadSelection::TightestOnValidation);
    let test: Vec<usize> = split.test.iter().copied().take(3000).collect();
    let cov = EvalSet::new(&ds, &test, trained.predict_log_runtime(&ds, &test)).coverage(&bounds);
    // With a tiny calibration set the conservative rank over-covers; it must
    // never *under*-cover badly.
    assert!(
        cov >= 0.8,
        "coverage {cov} collapsed with minimal calibration data"
    );
}

/// The workload-scale knob produces consistent catalogs at extremes.
#[test]
fn workload_scale_extremes_are_consistent() {
    for scale in [0.03f32, 1.0] {
        let cfg = TestbedConfig {
            workload_scale: scale,
            ..TestbedConfig::small()
        };
        let tb = Testbed::generate(&cfg);
        // Every suite keeps at least its 2-workload floor.
        assert!(tb.workloads().len() >= 12);
        let ds = tb.collect_dataset();
        let stats = DatasetStats::compute(&ds);
        assert_eq!(stats.per_suite.len(), 6);
        assert_eq!(stats.observed_workloads, tb.workloads().len());
    }
}

/// Training with every ablation switch at once (worst-case configuration
/// surface) must not panic or produce NaNs.
#[test]
fn ablation_switch_matrix_is_nan_free() {
    use pitot::{InterferenceMode, LossSpace};
    let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
    let split = Split::stratified(&ds, 0.5, 0);
    let idx: Vec<usize> = split.test.iter().copied().take(100).collect();
    for loss_space in [
        LossSpace::LogResidual,
        LossSpace::Log,
        LossSpace::NaiveProportional,
    ] {
        for interference in [
            InterferenceMode::Aware,
            InterferenceMode::Discard,
            InterferenceMode::Ignore,
        ] {
            for (use_w, use_p) in [(true, false), (false, true), (false, false)] {
                let mut cfg = PitotConfig::tiny();
                cfg.steps = 40;
                cfg.eval_every = 20;
                cfg.loss_space = loss_space;
                cfg.interference = interference;
                cfg.use_workload_features = use_w;
                cfg.use_platform_features = use_p;
                let trained = train(&ds, &split, &cfg);
                let preds = trained.predict_runtime(&ds, &idx);
                assert!(
                    preds.iter().all(|p| p.is_finite() && *p > 0.0),
                    "non-finite prediction under {loss_space:?}/{interference:?}/w={use_w}/p={use_p}"
                );
            }
        }
    }
}
