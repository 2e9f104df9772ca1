//! Degraded-mode cost: gossip merge rounds and crash recovery.
//!
//! The resilience story only holds if the fallback paths are cheap enough
//! to run *during* an incident: gossip rounds fire on the merge cadence
//! while the coordinator is dark, and a warm rejoin happens on the
//! serving path's clock. This bench records:
//!
//! - `chaos/gossip_round_4x256`: one pairwise gossip round among 4
//!   replicas holding 256-score windows — snapshot refresh, two pairwise
//!   CRDT joins, and a union fit per view (what each outage merge tick
//!   costs instead of a coordinator round);
//! - `chaos/recovery_replay_256`: a crashed replica's warm rejoin — read
//!   its 256 window entries back out of the coordinator's held summary
//!   ([`MergeableWindow::replica_entries`]), replay them into a fresh
//!   server, and install the fleet calibration (the recovery-time
//!   headline: how long a rejoining replica takes to serve again). The
//!   held runs keep the server's heads ([`PitotServer::kept_heads`]), as a
//!   fleet's replica summaries do;
//! - `chaos/fault_tick_overhead`: a full faulted `FleetServer` event
//!   (deadline query + resolve + observation) under a trivial
//!   `FaultPlan::none` — the bookkeeping tax of having fault injection
//!   compiled into the control path at all.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pitot::{Objective, PitotConfig, TrainedPitot};
use pitot_bench::Fixture;
use pitot_conformal::{
    HeadSelection, MergeableWindow, PooledConformal, PredictionSet, WindowedScores,
};
use pitot_serve::{
    AdmissionConfig, DeadlineQuery, FaultPlan, FleetConfig, FleetServer, PitotServer, ServeConfig,
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

/// A replica window of `n` synthetic scores over 4 pools, keeping the
/// heads `heads` of an `n_heads`-head model.
fn replica_window(seed: u64, n: usize, n_heads: usize, heads: &[usize]) -> WindowedScores {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = WindowedScores::with_heads(n, n_heads, heads);
    for i in 0..n {
        let preds: Vec<f32> = (0..n_heads).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let target = rng.gen_range(-1.0f32..1.5);
        let kept: Vec<f32> = heads.iter().map(|&h| preds[h]).collect();
        w.push(&kept, target, i % 4);
    }
    w
}

/// The production fleet fit: rank-selected from the merged runs.
fn fit_union(merged: &MergeableWindow, xis: &[f32]) -> PooledConformal {
    let empty_preds: Vec<Vec<f32>> = vec![Vec::new(); merged.n_heads()];
    PooledConformal::fit_scored(
        merged,
        &PredictionSet {
            predictions: &empty_preds,
            targets_log: &[],
            pools: &[],
        },
        xis,
        HeadSelection::NaiveXi,
        0.1,
    )
}

/// One pairwise gossip round among 4 replicas: refresh own runs, join the
/// pairs, fit every view on its union.
fn gossip_round(c: &mut Criterion) {
    let windows: Vec<WindowedScores> = (0..4)
        .map(|r| replica_window(200 + r, 256, 5, &[0, 1, 2, 3, 4]))
        .collect();
    let xis = vec![0.5f32, 0.8, 0.9, 0.95, 0.99];

    let mut group = c.benchmark_group("chaos");
    group.bench_function("gossip_round_4x256", |b| {
        b.iter(|| {
            let mut views: Vec<MergeableWindow> = windows
                .iter()
                .enumerate()
                .map(|(r, w)| MergeableWindow::snapshot(r as u64, w))
                .collect();
            for pair in [(0usize, 1usize), (2, 3)] {
                let joined = views[pair.0].merge(&views[pair.1]);
                views[pair.0] = joined.clone();
                views[pair.1] = joined;
            }
            let fits: Vec<PooledConformal> = views.iter().map(|v| fit_union(v, &xis)).collect();
            black_box(fits)
        })
    });
    group.finish();
}

/// A crashed replica's warm rejoin: replay its window entries from the
/// coordinator's held summary into a fresh server and install the fleet
/// calibration.
fn recovery_replay(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let xis = t.model.config().objective.xis();
    let mut serve = ServeConfig::at(0.1);
    serve.window = 256;
    serve.refresh_every = usize::MAX;

    // The coordinator's merged view holds every replica's run; replica 1
    // is the one that crashed. Runs keep the heads the server keeps.
    let n_heads = xis.len();
    let heads = PitotServer::new(t.clone(), f.dataset.clone(), serve.clone())
        .kept_heads()
        .to_vec();
    let windows: Vec<WindowedScores> = (0..3)
        .map(|r| replica_window(300 + r, 256, n_heads, &heads))
        .collect();
    let mut merged = MergeableWindow::empty(n_heads);
    for (r, w) in windows.iter().enumerate() {
        merged.absorb(&MergeableWindow::snapshot(r as u64, w));
    }
    let fleet_fit = fit_union(&merged, &xis);

    let mut group = c.benchmark_group("chaos");
    group.sample_size(10);
    group.bench_function("recovery_replay_256", |b| {
        b.iter(|| {
            let (clock, entries) = merged.replica_entries(1).expect("replica 1 held");
            let mut server = PitotServer::new(t.clone(), f.dataset.clone(), serve.clone());
            server.restore_window(entries, clock);
            server.install_calibration(fleet_fit.clone());
            black_box(server.window_len())
        })
    });
    group.finish();
}

/// Per-event overhead of the fault bookkeeping itself: a 3-replica fleet
/// under a trivial fault plan, 2000 full events (deadline query + resolve
/// + observation, merge every 32).
fn fault_tick_overhead(c: &mut Criterion) {
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
    let mut fleet = FleetServer::with_faults(t, &f.dataset, cfg, FaultPlan::none(0));
    fleet.seed_calibration(&f.split.val);

    let events: Vec<usize> = (0..2000)
        .map(|t| f.split.test[t % f.split.test.len()])
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let deadlines: Vec<f64> = events
        .iter()
        .map(|&i| f64::from(f.dataset.observations[i].runtime_s) * rng.gen_range(0.75..3.0))
        .collect();

    let mut t0 = 0.0f64;
    let mut next_id = 0u64;
    let mut group = c.benchmark_group("chaos");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("fault_tick_overhead", |b| {
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

criterion_group!(chaos, gossip_round, recovery_replay, fault_tick_overhead);
criterion_main!(chaos);
