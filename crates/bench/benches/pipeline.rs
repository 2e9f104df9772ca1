//! Post-training pipeline cost: everything an experiment replicate runs
//! *after* the optimizer finishes — batched prediction over the test set,
//! conformal calibration across a miscoverage sweep, and coverage/margin
//! evaluation. The paper's headline claim is cheap, well-calibrated
//! uncertainty; this bench tracks the cost of the "well-calibrated" half.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pitot::{Objective, PitotConfig};
use pitot_bench::Fixture;
use pitot_conformal::HeadSelection;
use pitot_experiments::uncertainty::{calibration, eval_set};
use pitot_experiments::PitotPredictor;
use std::hint::black_box;

/// Miscoverage sweep matching the fast experiment harness.
const EPSILONS: [f32; 5] = [0.10, 0.08, 0.06, 0.04, 0.02];

fn trained(f: &Fixture) -> pitot::TrainedPitot {
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        steps: 60,
        eval_every: 60,
        ..PitotConfig::paper()
    };
    pitot::train(&f.dataset, &f.split, &cfg)
}

/// Batched per-head prediction over a large test slice (the input to every
/// downstream metric).
fn predict_test(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let idx: Vec<usize> = f.split.test.iter().copied().take(4000).collect();
    let mut group = c.benchmark_group("posttrain");
    group.sample_size(10);
    group.throughput(Throughput::Elements(idx.len() as u64));
    group.bench_function("predict_test_4k", |b| {
        b.iter(|| black_box(t.predict_log_runtime(&f.dataset, &idx)))
    });
    group.finish();
}

/// Conformal calibration across the epsilon sweep (the per-replicate cost
/// of every uncertainty figure): the holdout is predicted and scored once,
/// each ε is a rank lookup + head selection.
fn calibrate_sweep(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let mut group = c.benchmark_group("posttrain");
    group.sample_size(10);
    group.bench_function("calibrate_5eps", |b| {
        b.iter(|| {
            let calib = t.calibration(&f.dataset, &t.tower_cache(&f.dataset));
            for &eps in &EPSILONS {
                black_box(calib.fit(eps, HeadSelection::TightestOnValidation));
            }
        })
    });
    group.finish();
}

/// The full post-training phase of one experiment replicate: calibrate at
/// every epsilon and measure margin + coverage on the test set. Each
/// iteration wraps the model in a fresh adapter, as a replicate does, so
/// the one tower pass its adapter caches is timed too (with a model clone).
fn full_replicate(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let idx: Vec<usize> = f.split.test.iter().copied().take(4000).collect();
    let split = f.split.clone();
    let mut group = c.benchmark_group("posttrain");
    group.sample_size(10);
    group.bench_function("predict_calibrate_eval", |b| {
        b.iter(|| {
            let model = PitotPredictor::new(t.clone());
            let calib = calibration(&model, &f.dataset, &split);
            let eval = eval_set(&model, &f.dataset, &idx);
            let mut acc = 0.0f32;
            for &eps in &EPSILONS {
                let conformal = calib.fit(eps, HeadSelection::TightestOnValidation);
                acc += eval.margin(&conformal);
                acc += eval.coverage(&conformal);
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Warm-start fine-tune cost (the online-update extension): dominated today
/// by the per-`train()` fixed setup that `TrainContext` amortizes.
fn warm_start(c: &mut Criterion) {
    let f = Fixture::small();
    let cfg = PitotConfig {
        steps: 40,
        eval_every: 40,
        ..PitotConfig::paper()
    };
    let t = pitot::train(&f.dataset, &f.split, &cfg);
    let mut group = c.benchmark_group("posttrain");
    group.sample_size(10);
    group.bench_function("fine_tune_10_steps", |b| {
        b.iter(|| black_box(t.fine_tune(&f.dataset, &f.split, 10).final_val_loss()))
    });
    group.finish();
}

criterion_group!(
    pipeline,
    predict_test,
    calibrate_sweep,
    full_replicate,
    warm_start
);
criterion_main!(pipeline);
