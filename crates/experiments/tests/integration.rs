//! Cross-crate integration tests: simulator → features → model → conformal.

use pitot::{train, EvalSet, InterferenceMode, Objective, PitotConfig};
use pitot_baselines::{LogPredictor, MatrixFactorization, MfConfig};
use pitot_conformal::HeadSelection;
use pitot_experiments::{Harness, Method, PitotPredictor, Scale};
use pitot_testbed::{split::Split, Testbed, TestbedConfig};

fn small() -> (pitot_testbed::Dataset, Split) {
    let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
    let split = Split::stratified(&ds, 0.6, 0);
    (ds, split)
}

/// The full pipeline must beat the scaling baseline's residual alone and
/// produce valid bounds — the paper's core claims in miniature.
#[test]
fn end_to_end_accuracy_and_coverage() {
    let (ds, split) = small();
    let mut cfg = PitotConfig::tiny();
    cfg.steps = 500;
    cfg.objective = Objective::Quantiles(vec![0.5, 0.9, 0.95]);
    let trained = train(&ds, &split, &cfg);

    let iso: Vec<usize> = split
        .test
        .iter()
        .copied()
        .filter(|&i| ds.observations[i].interferers.is_empty())
        .take(3000)
        .collect();
    let mape = trained.mape(&ds, &iso);
    assert!(mape < 0.5, "isolation MAPE {mape}");

    let bounds = trained.fit_bounds(&ds, 0.1, HeadSelection::TightestOnValidation);
    let test = EvalSet::new(
        &ds,
        &split.test,
        trained.predict_log_runtime(&ds, &split.test),
    );
    let cov = test.coverage(&bounds);
    assert!(cov >= 0.85, "coverage {cov} at eps=0.1");
}

/// Interference-aware training must beat interference-blind training on
/// interference-heavy test data (the Fig 4c ordering).
#[test]
fn interference_awareness_matters() {
    let (ds, split) = small();
    let mut aware_cfg = PitotConfig::tiny();
    // 500 steps leaves the interference term undertrained and the ordering
    // flips on some RNG streams; by 1500 steps the aware model wins cleanly.
    aware_cfg.steps = 1500;
    let mut ignore_cfg = aware_cfg.clone();
    ignore_cfg.interference = InterferenceMode::Ignore;

    let aware = train(&ds, &split, &aware_cfg);
    let ignore = train(&ds, &split, &ignore_cfg);

    let with_intf: Vec<usize> = split
        .test
        .iter()
        .copied()
        .filter(|&i| !ds.observations[i].interferers.is_empty())
        .take(4000)
        .collect();
    let m_aware = aware.mape(&ds, &with_intf);
    let m_ignore = ignore.mape(&ds, &with_intf);
    assert!(
        m_aware < m_ignore,
        "aware {m_aware} should beat ignore {m_ignore} under interference"
    );
}

/// Pitot must beat pure matrix factorization at a low train fraction — the
/// data-efficiency claim (Fig 6a), driven by side information.
#[test]
fn data_efficiency_vs_matrix_factorization() {
    let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
    let split = Split::stratified(&ds, 0.15, 0);
    let mut p_cfg = PitotConfig::tiny();
    p_cfg.steps = 500;
    let pitot_model = train(&ds, &split, &p_cfg);
    let mut mf_cfg = MfConfig::tiny();
    mf_cfg.train.steps = 2500;
    let mf = MatrixFactorization::train(&ds, &split, &mf_cfg);

    let iso: Vec<usize> = split
        .test
        .iter()
        .copied()
        .filter(|&i| ds.observations[i].interferers.is_empty())
        .take(3000)
        .collect();
    let m_pitot = pitot_model.mape(&ds, &iso);
    let m_mf = mf.mape(&ds, &iso);
    assert!(
        m_pitot < m_mf,
        "Pitot {m_pitot} should beat MF {m_mf} at 15% training data"
    );
}

/// The experiments harness end to end on one tiny configuration.
#[test]
fn harness_methods_are_comparable() {
    let mut h = Harness::new(Scale::Fast);
    h.replicates = 1;
    h.eval_cap = 1500;
    let split = h.split(0.5, 0);
    let mut cfg = h.pitot_config();
    cfg.steps = 200;
    cfg.eval_every = 100;
    let model = Method::Pitot(cfg).train(&h.dataset, &split, 0);
    let idx = h.test_without_interference(&split);
    let mape = model.mape(&h.dataset, &idx);
    assert!(mape.is_finite() && mape > 0.0 && mape < 1.0, "MAPE {mape}");
}

/// PitotPredictor adapter must agree with the underlying model.
#[test]
fn predictor_adapter_is_transparent() {
    let (ds, split) = small();
    let mut cfg = PitotConfig::tiny();
    cfg.steps = 100;
    let trained = train(&ds, &split, &cfg);
    let idx: Vec<usize> = split.test.iter().copied().take(50).collect();
    let direct = trained.predict_log_runtime(&ds, &idx);
    let adapted = PitotPredictor::new(trained).predict_log(&ds, &idx);
    assert_eq!(direct, adapted);
}

/// Serialization round-trip across crate boundaries (model state is serde).
#[test]
fn dataset_serializes() {
    let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
    let json = serde_json::to_string(&ds.observations[..100].to_vec()).unwrap();
    let back: Vec<pitot_testbed::Observation> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), 100);
    assert_eq!(back[0], ds.observations[0]);
}
