//! End-to-end statistical properties of the full reproduction pipeline.

use pitot::{train, EvalSet, Objective, PitotConfig};
use pitot_conformal::HeadSelection;
use pitot_testbed::{split::Split, Testbed, TestbedConfig};

/// Conformal validity across epsilon values, on a model trained once.
#[test]
fn bounds_are_valid_across_epsilons() {
    let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
    let split = Split::stratified(&ds, 0.6, 3);
    let mut cfg = PitotConfig::tiny();
    cfg.steps = 400;
    cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
    let trained = train(&ds, &split, &cfg);

    let test: Vec<usize> = split.test.iter().copied().take(6000).collect();
    let eval = EvalSet::new(&ds, &test, trained.predict_log_runtime(&ds, &test));
    let calibration = trained.calibration(&ds, &trained.tower_cache(&ds));
    for eps in [0.2f32, 0.1, 0.05] {
        let cov = eval.coverage(&calibration.fit(eps, HeadSelection::TightestOnValidation));
        // 3.5σ finite-sample slack on both calibration and test sides.
        let slack = 3.5 * (2.0 * eps * (1.0 - eps) / 2000.0).sqrt() + 0.01;
        assert!(cov >= 1.0 - eps - slack, "coverage {cov} at eps {eps}");
    }
}

/// The quantile-selection machinery must never do worse than naive CQR by a
/// meaningful margin (paper App B.2 claims it helps).
#[test]
fn quantile_selection_is_no_worse_than_naive() {
    let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
    let split = Split::stratified(&ds, 0.6, 4);
    let mut cfg = PitotConfig::tiny();
    cfg.steps = 400;
    cfg.objective = Objective::paper_quantiles();
    let trained = train(&ds, &split, &cfg);
    let test: Vec<usize> = split.test.iter().copied().take(5000).collect();

    let eps = 0.1;
    let tight = trained.fit_bounds(&ds, eps, HeadSelection::TightestOnValidation);
    let naive = trained.fit_bounds(&ds, eps, HeadSelection::NaiveXi);
    let eval = EvalSet::new(&ds, &test, trained.predict_log_runtime(&ds, &test));
    let m_tight = eval.margin(&tight);
    let m_naive = eval.margin(&naive);
    assert!(
        m_tight <= m_naive * 1.1,
        "selection margin {m_tight} much worse than naive {m_naive}"
    );
}

/// Training on more data must not make the model meaningfully worse
/// (monotone data-efficiency trend, Figs 4/6).
#[test]
fn more_data_helps() {
    let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
    let mut cfg = PitotConfig::tiny();
    cfg.steps = 500;

    let eval = |fraction: f32| {
        let split = Split::stratified(&ds, fraction, 7);
        let trained = train(&ds, &split, &cfg.clone());
        let iso: Vec<usize> = split
            .test
            .iter()
            .copied()
            .filter(|&i| ds.observations[i].interferers.is_empty())
            .take(2500)
            .collect();
        trained.mape(&ds, &iso)
    };
    let low = eval(0.1);
    let high = eval(0.8);
    assert!(
        high < low * 1.15,
        "more data should not hurt: 10% → {low}, 80% → {high}"
    );
}

/// Replicates with different seeds must produce different models (no seed
/// leakage) while identical seeds reproduce exactly.
#[test]
fn replicate_independence() {
    let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
    let split = Split::stratified(&ds, 0.5, 0);
    let mut cfg = PitotConfig::tiny();
    cfg.steps = 80;
    let a = train(&ds, &split, &cfg.clone().with_seed(0));
    let b = train(&ds, &split, &cfg.clone().with_seed(0));
    let c = train(&ds, &split, &cfg.with_seed(1));
    let idx = [split.test[0], split.test[1]];
    assert_eq!(
        a.predict_log_runtime(&ds, &idx),
        b.predict_log_runtime(&ds, &idx)
    );
    assert_ne!(
        a.predict_log_runtime(&ds, &idx),
        c.predict_log_runtime(&ds, &idx)
    );
}
