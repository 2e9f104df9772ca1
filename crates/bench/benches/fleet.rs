//! Fleet-layer cost: coordinator merge rounds, admission decisions, and
//! the full sharded serving loop.
//!
//! The multi-replica story only holds if the coordinator is cheap: a merge
//! round is a checksummed copy of each changed window plus a fit that
//! rank-selects across the shared replica runs — no re-sorting, no union
//! copy, no raw observations on the wire. This bench records:
//!
//! - `fleet/merge_round_4x256`: snapshot 4 replica windows of 256 scores
//!   each, merge the summaries, and fit the fleet `PooledConformal` from
//!   the merged runs — one full coordinator round;
//! - `fleet/snapshot_256`: one replica's window summary alone (the per-site
//!   cost of speaking the merge protocol);
//! - `fleet/admission_10k`: 10k decide + resolve cycles through the
//!   SLO admission queue (pure control-plane overhead per query);
//! - `fleet/stream_2k_events`: a 3-replica `FleetServer` consuming 2000
//!   events — deadline query + admission + resolve + observation each —
//!   with a merge round every 32 observations (events/sec headline).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pitot::{Objective, PitotConfig, TrainedPitot};
use pitot_bench::Fixture;
use pitot_conformal::{
    HeadSelection, MergeableWindow, PooledConformal, PredictionSet, WindowedScores,
};
use pitot_serve::{
    AdmissionConfig, AdmissionQueue, DeadlineQuery, FleetConfig, FleetServer, ServeConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn trained(f: &Fixture) -> TrainedPitot {
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        steps: 60,
        eval_every: 60,
        ..PitotConfig::paper()
    };
    pitot::train(&f.dataset, &f.split, &cfg)
}

/// A replica window of `n` synthetic scores over 5 heads and 4 pools.
fn replica_window(seed: u64, n: usize) -> WindowedScores {
    let n_heads = 5;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = WindowedScores::new(n, n_heads);
    for i in 0..n {
        let preds: Vec<f32> = (0..n_heads).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let target = rng.gen_range(-1.0f32..1.5);
        w.push(&preds, target, i % 4);
    }
    w
}

/// Coordinator merge round and per-replica snapshot cost.
fn merge_round(c: &mut Criterion) {
    let replicas: Vec<WindowedScores> = (0..4).map(|r| replica_window(100 + r, 256)).collect();
    let xis = vec![0.5f32, 0.8, 0.9, 0.95, 0.99];
    let empty_preds: Vec<Vec<f32>> = vec![Vec::new(); 5];

    let mut group = c.benchmark_group("fleet");
    group.bench_function("snapshot_256", |b| {
        b.iter(|| black_box(MergeableWindow::snapshot(0, &replicas[0])))
    });
    group.bench_function("merge_round_4x256", |b| {
        b.iter(|| {
            let mut merged = MergeableWindow::empty(5);
            for (r, w) in replicas.iter().enumerate() {
                merged.absorb(&MergeableWindow::snapshot(r as u64, w));
            }
            let fit = PooledConformal::fit_scored(
                &merged,
                &PredictionSet {
                    predictions: &empty_preds,
                    targets_log: &[],
                    pools: &[],
                },
                &xis,
                HeadSelection::NaiveXi,
                0.1,
            );
            black_box(fit)
        })
    });
    group.finish();
}

/// Admission queue decide + resolve throughput.
fn admission_throughput(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let cases: Vec<(f64, f64, f64)> = (0..10_000)
        .map(|_| {
            let bound = rng.gen_range(0.1f64..4.0);
            let deadline = rng.gen_range(0.1f64..4.0);
            let realized = rng.gen_range(0.05f64..4.5);
            (bound, deadline, realized)
        })
        .collect();
    let mut group = c.benchmark_group("fleet");
    group.throughput(Throughput::Elements(cases.len() as u64));
    group.bench_function("admission_10k", |b| {
        b.iter(|| {
            let mut q = AdmissionQueue::new(AdmissionConfig::default());
            for (i, &(bound, deadline, realized)) in cases.iter().enumerate() {
                q.decide(i as u64, bound, deadline, false);
                q.resolve(i as u64, realized);
            }
            black_box(q.stats().decisions())
        })
    });
    group.finish();
}

/// Events/sec through a 3-replica fleet: every event is a deadline query +
/// admission + resolution + observation, with a merge round every 32
/// observations.
fn fleet_stream(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let mut serve = ServeConfig::at(0.1);
    serve.window = 256;
    let cfg = FleetConfig {
        serve,
        replicas: 3,
        merge_every: 32,
        admission: AdmissionConfig::default(),
        compression: Vec::new(),
    };
    let mut fleet = FleetServer::new(t, &f.dataset, cfg);
    fleet.seed_calibration(&f.split.val);

    let events: Vec<usize> = (0..2000)
        .map(|t| f.split.test[t % f.split.test.len()])
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let deadlines: Vec<f64> = events
        .iter()
        .map(|&i| f64::from(f.dataset.observations[i].runtime_s) * rng.gen_range(0.75..3.0))
        .collect();

    // The fleet lives across iterations (replica clocks stay monotone),
    // and query ids must never repeat.
    let mut t0 = 0.0f64;
    let mut next_id = 0u64;
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("stream_2k_events", |b| {
        b.iter(|| {
            let mut admitted = 0usize;
            for (dt, (&i, &deadline)) in events.iter().zip(&deadlines).enumerate() {
                let o = f.dataset.observations[i].clone();
                let id = next_id;
                next_id += 1;
                let out = fleet.deadline_query(DeadlineQuery {
                    id,
                    workload: o.workload,
                    platform: o.platform,
                    interferers: o.interferers.clone(),
                    deadline_s: deadline,
                });
                fleet.resolve(id, f64::from(o.runtime_s));
                admitted += usize::from(out.decision.admitted());
                fleet.observe(t0 + dt as f64, o);
            }
            t0 += events.len() as f64;
            black_box(admitted)
        })
    });
    group.finish();
}

criterion_group!(fleet, merge_round, admission_throughput, fleet_stream);
criterion_main!(fleet);
