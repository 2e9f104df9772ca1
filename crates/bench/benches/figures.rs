//! One bench group per paper table/figure: each measures the computational
//! core of the experiment that regenerates it (see DESIGN.md's experiment
//! index). Training-heavy figures are represented by a short-but-complete
//! training run so relative costs stay comparable.

use criterion::{criterion_group, criterion_main, Criterion};
use pitot::{InterferenceMode, LossSpace, Objective, PitotConfig};
use pitot_analysis::{
    interference_matrix_norm, log_histogram, observed_slowdowns, Tsne, TsneConfig,
};
use pitot_baselines::{LogPredictor, MatrixFactorization, MfConfig};
use pitot_bench::Fixture;
use pitot_conformal::HeadSelection;
use pitot_experiments::uncertainty::{calibration, eval_set};
use pitot_experiments::PitotPredictor;
use std::hint::black_box;

fn micro_config() -> PitotConfig {
    let mut cfg = PitotConfig::tiny();
    cfg.steps = 40;
    cfg.eval_every = 20;
    cfg
}

/// Fig 1: interference-slowdown histogram over the full dataset.
fn fig1_interference_histogram(c: &mut Criterion) {
    let f = Fixture::small();
    c.bench_function("fig1_interference_histogram", |b| {
        b.iter(|| {
            let slow = observed_slowdowns(black_box(&f.dataset));
            let h = log_histogram(&slow[&1], 0.5, 32.0, 24);
            black_box(h.counts)
        })
    });
}

/// Tables 2–3: cluster synthesis and data collection.
fn table23_dataset_generation(c: &mut Criterion) {
    c.bench_function("table23_dataset_generation", |b| {
        b.iter(|| {
            let tb = pitot_testbed::Testbed::generate(&pitot_testbed::TestbedConfig::small());
            black_box(tb.collect_dataset().observations.len())
        })
    });
}

/// Fig 4a: one loss-space ablation arm (short complete training).
fn fig4_ablation_arm(c: &mut Criterion) {
    let f = Fixture::small();
    let mut group = c.benchmark_group("fig4_ablation_arm");
    group.sample_size(10);
    for (name, loss) in [
        ("log_residual", LossSpace::LogResidual),
        ("log", LossSpace::Log),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let cfg = PitotConfig {
                    loss_space: loss,
                    ..micro_config()
                };
                black_box(pitot::train(&f.dataset, &f.split, &cfg).final_val_loss())
            })
        });
    }
    // Fig 4c's discard arm trains on isolation data only.
    group.bench_function("discard", |b| {
        b.iter(|| {
            let cfg = PitotConfig {
                interference: InterferenceMode::Discard,
                ..micro_config()
            };
            black_box(pitot::train(&f.dataset, &f.split, &cfg).final_val_loss())
        })
    });
    group.finish();
}

/// Fig 5 / Fig 8: conformal calibration with quantile selection.
fn fig5_conformal_calibration(c: &mut Criterion) {
    let f = Fixture::small();
    let cfg = PitotConfig {
        objective: Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]),
        ..micro_config()
    };
    let trained = pitot::train(&f.dataset, &f.split, &cfg);
    let mut group = c.benchmark_group("fig5_conformal_calibration");
    group.sample_size(20);
    for (name, sel) in [
        ("tightest", HeadSelection::TightestOnValidation),
        ("naive_cqr", HeadSelection::NaiveXi),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(trained.fit_bounds(&f.dataset, 0.1, sel)))
        });
    }
    group.finish();
}

/// Fig 6: baseline comparison arms (MF shown; NN/attention cost is dominated
/// by the same per-step MLP math measured in the training bench).
fn fig6_baseline_arm(c: &mut Criterion) {
    let f = Fixture::small();
    let mut group = c.benchmark_group("fig6_baseline_arm");
    group.sample_size(10);
    group.bench_function("matrix_factorization", |b| {
        b.iter(|| {
            let mut cfg = MfConfig::tiny();
            cfg.train.steps = 200;
            let m = MatrixFactorization::train(&f.dataset, &f.split, &cfg);
            black_box(m.predict_log(&f.dataset, &[0])[0][0])
        })
    });
    group.finish();
}

/// Fig 7 / 12a–c: t-SNE of learned embeddings.
fn fig7_tsne(c: &mut Criterion) {
    let f = Fixture::small();
    let trained = pitot::train(&f.dataset, &f.split, &micro_config());
    let emb = trained.model.workload_embeddings(&f.dataset, 0);
    let mut group = c.benchmark_group("fig7_tsne");
    group.sample_size(10);
    group.bench_function("embed", |b| {
        let cfg = TsneConfig {
            iterations: 100,
            ..TsneConfig::default()
        };
        b.iter(|| black_box(Tsne::new(cfg.clone()).embed(&emb)))
    });
    group.finish();
}

/// Fig 10: the hyperparameter that dominates cost (embedding dimension r).
fn fig10_embed_dim(c: &mut Criterion) {
    let f = Fixture::small();
    let mut group = c.benchmark_group("fig10_embed_dim");
    group.sample_size(10);
    for r in [8usize, 32] {
        group.bench_function(format!("r{r}"), |b| {
            b.iter(|| {
                let cfg = PitotConfig {
                    embed_dim: r,
                    ..micro_config()
                };
                black_box(pitot::train(&f.dataset, &f.split, &cfg).final_val_loss())
            })
        });
    }
    group.finish();
}

/// Fig 11: the full bounds evaluation pass (predict + calibrate + margin).
fn fig11_bounds_grid_cell(c: &mut Criterion) {
    let f = Fixture::small();
    let cfg = PitotConfig {
        objective: Objective::Quantiles(vec![0.5, 0.9]),
        ..micro_config()
    };
    let trained = pitot::train(&f.dataset, &f.split, &cfg);
    let test: Vec<usize> = f.split.test.iter().copied().take(2000).collect();
    c.bench_function("fig11_bounds_grid_cell", |b| {
        b.iter(|| {
            // A fresh adapter per cell, as the figure builds one per model:
            // its one cached tower pass is timed too (with a model clone).
            let model = PitotPredictor::new(trained.clone());
            let conformal = calibration(&model, &f.dataset, &f.split)
                .fit(0.1, HeadSelection::TightestOnValidation);
            black_box(eval_set(&model, &f.dataset, &test).margin(&conformal))
        })
    });
}

/// Fig 12d: spectral norm of every platform's interference matrix.
fn fig12_interference_norm(c: &mut Criterion) {
    let f = Fixture::small();
    let trained = pitot::train(&f.dataset, &f.split, &micro_config());
    let pe = trained.model.platform_embeddings(&f.dataset);
    c.bench_function("fig12_interference_norm", |b| {
        b.iter(|| {
            let norms: Vec<f32> = (0..f.dataset.n_platforms)
                .map(|p| interference_matrix_norm(&pe.vs, &pe.vg, p))
                .collect();
            black_box(norms)
        })
    });
}

criterion_group!(
    figures,
    fig1_interference_histogram,
    table23_dataset_generation,
    fig4_ablation_arm,
    fig5_conformal_calibration,
    fig6_baseline_arm,
    fig7_tsne,
    fig10_embed_dim,
    fig11_bounds_grid_cell,
    fig12_interference_norm,
);
criterion_main!(figures);
