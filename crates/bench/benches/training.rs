//! Training and inference cost benches (paper Sec 3.6: "a single inference
//! call taking ≈400 kFLOPs, and training taking only 12.1 seconds" on a GPU;
//! here we measure the same quantities on one CPU core).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pitot::{Objective, PitotConfig, PitotModel};
use pitot_bench::Fixture;
use pitot_linalg::Matrix;
use std::hint::black_box;

/// Cost of one full optimizer step at the paper architecture
/// (2×128 towers, r=32, batch 512/mode — measured as steps/second).
fn training_throughput(c: &mut Criterion) {
    let f = Fixture::small();
    let mut group = c.benchmark_group("training_throughput");
    group.sample_size(10);
    for (name, cfg) in [
        (
            "paper_arch",
            PitotConfig {
                steps: 10,
                eval_every: 10,
                ..PitotConfig::paper()
            },
        ),
        (
            "fast_arch",
            PitotConfig {
                steps: 10,
                eval_every: 10,
                ..PitotConfig::fast()
            },
        ),
    ] {
        group.throughput(Throughput::Elements(cfg.steps as u64));
        group.bench_function(name, |b| {
            b.iter(|| black_box(pitot::train(&f.dataset, &f.split, &cfg).final_val_loss()))
        });
    }
    group.finish();
}

/// Single-observation inference latency (paper: ≈400 kFLOPs/call). The
/// entity towers are evaluated once and reused, as in deployment.
fn inference_latency(c: &mut Criterion) {
    let f = Fixture::small();
    let cfg = PitotConfig {
        steps: 20,
        eval_every: 20,
        ..PitotConfig::paper()
    };
    let trained = pitot::train(&f.dataset, &f.split, &cfg);
    let (w, p_full) = trained.model.infer_towers(&f.dataset);
    let obs = &f.dataset.observations[f.split.test[0]];
    let mut out = Matrix::zeros(0, 0);
    c.bench_function("inference_single_observation", |b| {
        b.iter(|| {
            trained
                .model
                .predict_batch_into(&w, &p_full, 1, |_| obs, &mut out);
            black_box(out[(0, 0)])
        })
    });
    // Tower refresh cost (recomputing all entity embeddings, the paper's
    // per-step dense pass).
    c.bench_function("inference_tower_refresh", |b| {
        b.iter(|| black_box(trained.model.infer_towers(&f.dataset)))
    });
}

/// Quantile heads widen only the workload tower; verify the advertised
/// cost asymmetry (Sec 3.5 "Model Architecture").
fn quantile_head_overhead(c: &mut Criterion) {
    let f = Fixture::small();
    let mut group = c.benchmark_group("quantile_head_overhead");
    group.sample_size(20);
    for (name, objective) in [
        ("single_head", Objective::Squared),
        ("eight_heads", Objective::paper_quantiles()),
    ] {
        let cfg = PitotConfig {
            objective,
            ..PitotConfig::paper()
        };
        let model = PitotModel::new(&cfg, &f.dataset);
        group.bench_function(name, |b| {
            b.iter(|| black_box(model.infer_towers(&f.dataset)))
        });
    }
    group.finish();
}

criterion_group!(
    training,
    training_throughput,
    inference_latency,
    quantile_head_overhead
);
criterion_main!(training);
