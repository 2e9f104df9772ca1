//! Benches for the extension subsystems: orchestration, conformal variants,
//! analytic baselines, optimizers, and embedding analysis.
//!
//! These complement `figures.rs` (one group per paper table/figure) with the
//! cost-relevant cores of the extension experiments in DESIGN.md §4b.

use criterion::{criterion_group, criterion_main, Criterion};
use pitot::{train, Objective, OptimizerKind, PitotConfig};
use pitot_analysis::{silhouette_score, Pca};
use pitot_baselines::{ImcConfig, InductiveMc, KnnCollaborative, KnnConfig};
use pitot_bench::Fixture;
use pitot_conformal::{
    head_spread, HeadSelection, PooledConformal, PredictionSet, ScaledConformal, ScoredCalibration,
    TwoSidedCqr,
};
use pitot_orchestrator::{BaselinePolicy, ClusterSim, JobStream, OraclePredictor, PitotPredictor};
use std::hint::black_box;

fn quantile_model(f: &Fixture) -> pitot::TrainedPitot {
    let mut cfg = PitotConfig::tiny();
    cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
    cfg.steps = 120;
    cfg.eval_every = 60;
    train(&f.dataset, &f.split, &cfg)
}

/// Full orchestration episode: stream generation + policy placement +
/// rate-based interference simulation on a 12-platform site.
fn orchestration_episode(c: &mut Criterion) {
    let f = Fixture::small();
    let trained = quantile_model(&f);
    let bounds = trained.fit_bounds(&f.dataset, 0.1, HeadSelection::TightestOnValidation);
    let pred = PitotPredictor::with_bounds(&trained, &f.dataset, bounds);
    let n = f.testbed.platforms().len();
    let site: Vec<usize> = (0..n).step_by(n.div_ceil(12)).collect();
    let jobs = JobStream::generate_with_deadlines(&f.testbed, 100, 0.02, (1.3, 3.0), 0);
    c.bench_function("ext_orchestration_episode", |b| {
        b.iter(|| {
            let report = ClusterSim::new(&f.testbed).restrict_to(&site).run(
                black_box(&jobs),
                &mut BaselinePolicy::deadline_aware(),
                &pred,
            );
            black_box(report.violations)
        })
    });
}

/// One placement decision: the per-job cost an orchestrator actually pays.
fn placement_decision(c: &mut Criterion) {
    let f = Fixture::small();
    let trained = quantile_model(&f);
    let pred = PitotPredictor::new(&trained, &f.dataset);
    let oracle = OraclePredictor::new(&f.testbed);
    c.bench_function("ext_bound_query_pitot", |b| {
        b.iter(|| {
            black_box(pitot_orchestrator::RuntimePredictor::bound_s(
                &pred,
                black_box(3),
                black_box(7),
                black_box(&[1, 2]),
            ))
        })
    });
    c.bench_function("ext_bound_query_oracle_mc", |b| {
        b.iter(|| {
            black_box(pitot_orchestrator::RuntimePredictor::bound_s(
                &oracle,
                black_box(3),
                black_box(7),
                black_box(&[1, 2]),
            ))
        })
    });
}

/// Conformal calibration strategies over identical prediction sets.
fn conformal_variant_fits(c: &mut Criterion) {
    let f = Fixture::small();
    let trained = quantile_model(&f);
    let preds = trained.predict_log_runtime(&f.dataset, &f.split.val);
    let targets: Vec<f32> = f
        .split
        .val
        .iter()
        .map(|&i| f.dataset.observations[i].log_runtime())
        .collect();
    let pools: Vec<usize> = f
        .split
        .val
        .iter()
        .map(|&i| f.dataset.observations[i].interferers.len())
        .collect();
    let xis = [0.5f32, 0.8, 0.9, 0.95];

    c.bench_function("ext_fit_pooled_cqr", |b| {
        b.iter(|| {
            let set = PredictionSet {
                predictions: black_box(&preds),
                targets_log: &targets,
                pools: &pools,
            };
            black_box(PooledConformal::fit_scored(
                &ScoredCalibration::new(&set),
                &set,
                &xis,
                HeadSelection::TightestOnValidation,
                0.1,
            ))
        })
    });
    c.bench_function("ext_fit_scaled_conformal", |b| {
        b.iter(|| {
            let disp = head_spread(&preds[0], &preds[2]);
            black_box(ScaledConformal::fit(
                black_box(&preds[0]),
                &disp,
                &targets,
                0.1,
            ))
        })
    });
    c.bench_function("ext_fit_two_sided_cqr", |b| {
        b.iter(|| {
            black_box(TwoSidedCqr::fit(
                black_box(&preds[0]),
                &preds[2],
                &targets,
                0.1,
            ))
        })
    });
}

/// Analytic baselines: training-free kNN fit and the ALS inductive MC solve.
fn analytic_baselines(c: &mut Criterion) {
    let f = Fixture::small();
    c.bench_function("ext_fit_knn_cf", |b| {
        b.iter(|| {
            black_box(KnnCollaborative::fit(
                black_box(&f.dataset),
                &f.split,
                &KnnConfig {
                    k: 5,
                    min_overlap: 5,
                },
            ))
        })
    });
    let mut imc_cfg = ImcConfig::tiny();
    imc_cfg.max_obs = 2_000;
    c.bench_function("ext_fit_inductive_mc", |b| {
        b.iter(|| black_box(InductiveMc::fit(black_box(&f.dataset), &f.split, &imc_cfg)))
    });
}

/// Optimizer step cost at Pitot-sized parameter counts.
fn optimizer_steps(c: &mut Criterion) {
    let n = 111_200; // the paper's parameter count
    let grads = [vec![0.01f32; n]];
    let grad_refs: Vec<&[f32]> = grads.iter().map(|g| g.as_slice()).collect();
    for kind in [
        OptimizerKind::AdaMax,
        OptimizerKind::Adam,
        OptimizerKind::SgdMomentum,
    ] {
        let mut params = [vec![0.5f32; n]];
        let mut opt = kind.build(1e-3);
        c.bench_function(format!("ext_optimizer_step_{}", kind.name()), |b| {
            b.iter(|| {
                let mut refs: Vec<&mut [f32]> =
                    params.iter_mut().map(|p| p.as_mut_slice()).collect();
                opt.step(&mut refs, &grad_refs);
            })
        });
    }
}

/// Embedding analysis: PCA spectrum and silhouette scoring of workload
/// embeddings (the quantitative Fig 7 companions).
fn embedding_analysis(c: &mut Criterion) {
    let f = Fixture::small();
    let trained = quantile_model(&f);
    let emb = trained.model.workload_embeddings(&f.dataset, 0);
    let labels: Vec<usize> = {
        let mut uniq: Vec<&String> = Vec::new();
        f.dataset
            .workload_suites
            .iter()
            .map(|s| {
                if let Some(pos) = uniq.iter().position(|u| *u == s) {
                    pos
                } else {
                    uniq.push(s);
                    uniq.len() - 1
                }
            })
            .collect()
    };
    c.bench_function("ext_pca_embeddings", |b| {
        b.iter(|| black_box(Pca::fit(black_box(&emb), 4)))
    });
    c.bench_function("ext_silhouette_embeddings", |b| {
        b.iter(|| black_box(silhouette_score(black_box(&emb), &labels)))
    });
}

criterion_group!(
    name = extensions;
    config = Criterion::default().sample_size(10);
    targets =
        orchestration_episode,
        placement_decision,
        conformal_variant_fits,
        analytic_baselines,
        optimizer_steps,
        embedding_analysis,
);
criterion_main!(extensions);
