//! End-to-end orchestration: train Pitot, calibrate bounds, and place a job
//! stream on the simulated cluster — the full loop the paper motivates.

use pitot::{train, EvalSet, Objective, PitotConfig};
use pitot_conformal::HeadSelection;
use pitot_orchestrator::{
    BaselinePolicy, ClusterSim, JobStream, OraclePredictor, PitotPredictor, PlacementPolicy,
    RuntimePredictor, ScalingPredictor,
};
use pitot_testbed::{split::Split, Testbed, TestbedConfig};
use std::sync::OnceLock;

struct Env {
    testbed: Testbed,
    dataset: pitot_testbed::Dataset,
    trained: pitot::TrainedPitot,
}

fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let testbed = Testbed::generate(&TestbedConfig::small());
        let dataset = testbed.collect_dataset();
        let split = Split::stratified(&dataset, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
        cfg.steps = 600;
        let trained = train(&dataset, &split, &cfg);
        Env {
            testbed,
            dataset,
            trained,
        }
    })
}

fn site(testbed: &Testbed) -> Vec<usize> {
    let n = testbed.platforms().len();
    (0..n).step_by(n.div_ceil(12)).collect()
}

/// Every (policy, predictor) pair drains the stream completely on a
/// restricted site under pressure.
#[test]
fn all_configurations_complete_under_load() {
    let e = env();
    let jobs = JobStream::generate_with_deadlines(&e.testbed, 150, 0.02, (1.3, 3.0), 1);
    let oracle = OraclePredictor::new(&e.testbed);
    let pitot_pred = PitotPredictor::new(&e.trained, &e.dataset);
    let site = site(&e.testbed);

    for mut policy in [
        BaselinePolicy::random(3),
        BaselinePolicy::least_loaded(),
        BaselinePolicy::greedy_fastest(),
        BaselinePolicy::deadline_aware(),
    ] {
        for pred in [
            &oracle as &dyn pitot_orchestrator::RuntimePredictor,
            &pitot_pred,
        ] {
            let report =
                ClusterSim::new(&e.testbed)
                    .restrict_to(&site)
                    .run(&jobs, &mut policy, pred);
            assert_eq!(report.completed, 150, "{} / {}", policy.name(), pred.name());
        }
    }
}

/// The paper's core placement claim in miniature: interference-aware
/// prediction places strictly better than the interference-blind scaling
/// baseline under contention.
#[test]
fn interference_awareness_reduces_violations() {
    let e = env();
    let split = Split::stratified(&e.dataset, 0.6, 0);
    let scaling = ScalingPredictor::new(pitot::ScalingBaseline::fit(&e.dataset, &split.train));
    let pitot_pred = PitotPredictor::new(&e.trained, &e.dataset);
    let jobs = JobStream::generate_with_deadlines(&e.testbed, 250, 0.02, (1.3, 3.0), 2);
    let site = site(&e.testbed);

    let run = |pred: &dyn pitot_orchestrator::RuntimePredictor| {
        ClusterSim::new(&e.testbed).restrict_to(&site).run(
            &jobs,
            &mut BaselinePolicy::greedy_fastest(),
            pred,
        )
    };
    let blind = run(&scaling);
    let aware = run(&pitot_pred);
    assert!(
        aware.violation_rate() <= blind.violation_rate(),
        "aware {} vs blind {}",
        aware.violation_rate(),
        blind.violation_rate()
    );
    assert!(
        aware.mean_response_s <= blind.mean_response_s * 1.2,
        "aware response {} vs blind {}",
        aware.mean_response_s,
        blind.mean_response_s
    );
}

/// Conformal budgets keep the deadline-aware policy's violation rate near
/// the configured miscoverage under load.
#[test]
fn conformal_budgets_bound_violations() {
    let e = env();
    let eps = 0.1f32;
    let bounds = e
        .trained
        .fit_bounds(&e.dataset, eps, HeadSelection::TightestOnValidation);
    let pred = PitotPredictor::with_bounds(&e.trained, &e.dataset, bounds);
    let jobs = JobStream::generate_with_deadlines(&e.testbed, 250, 0.02, (1.3, 3.0), 3);
    let report = ClusterSim::new(&e.testbed)
        .restrict_to(&site(&e.testbed))
        .run(&jobs, &mut BaselinePolicy::deadline_aware(), &pred);
    // The guarantee is per accepted placement at placement-time co-location;
    // queueing and post-placement arrivals add slack, so assert 2ε.
    assert!(
        report.violation_rate() <= 2.0 * eps as f64 + 0.02,
        "violation rate {} at ε={eps}",
        report.violation_rate()
    );
}

/// Bound queries through the orchestrator facade agree with the dataset
/// path (an `EvalSet` under the same fit) for matching observations.
#[test]
fn predictor_facade_is_consistent_with_core_bounds() {
    let e = env();
    let bounds = e
        .trained
        .fit_bounds(&e.dataset, 0.1, HeadSelection::TightestOnValidation);
    let pred = PitotPredictor::with_bounds(&e.trained, &e.dataset, bounds.clone());
    let split = Split::stratified(&e.dataset, 0.6, 0);
    let test: Vec<usize> = split.test.iter().copied().take(25).collect();
    let core = EvalSet::new(
        &e.dataset,
        &test,
        e.trained.predict_log_runtime(&e.dataset, &test),
    )
    .bounds_log(&bounds);
    for (&oi, via_core) in test.iter().zip(core) {
        let o = &e.dataset.observations[oi];
        let via_core = via_core.exp() as f64;
        let via_pred = pred.bound_s(o.workload, o.platform as usize, &o.interferers);
        assert!(
            (via_core - via_pred).abs() / via_core < 1e-4,
            "core {via_core} vs facade {via_pred}"
        );
    }
}
