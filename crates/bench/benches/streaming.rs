//! Concurrent-runtime serving throughput and its primitives, against the
//! deterministic simulated twin on the same traces.
//!
//! - `streaming/concurrent_obs_2k` / `streaming/simulated_obs_2k`: 2000
//!   observations (no queries) through a 4-replica `ConcurrentFleet` at the
//!   machine's lane count vs. the simulated `FleetServer` — the ingest
//!   events/sec headline `BENCH_streaming.json` gates. The ingress drains
//!   lane 0 itself and each further lane has one worker thread, so on a
//!   2-thread box the concurrent fleet is the ingress plus one worker; the
//!   JSON's `meta.note` records the measured concurrent/simulated ratio.
//! - `streaming/concurrent_mixed_2k` / `streaming/simulated_mixed_2k`: a
//!   mixed trace (observe + deadline-query + resolve) — admission and the
//!   read path included.
//! - `streaming/queue_push_drain_1k`: the MPSC lane queue's raw
//!   push + coalesced-drain cycle, 1000 events per iteration.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pitot::{Objective, PitotConfig, TrainedPitot};
use pitot_bench::Fixture;
use pitot_conformal::HeadSelection;
use pitot_linalg::par::EventQueue;
use pitot_serve::{
    run_trace_simulated, AdmissionConfig, ConcurrentConfig, ConcurrentFleet, DeadlineQuery,
    FleetConfig, FleetServer, ServeConfig, TraceEvent,
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

fn fleet_cfg(replicas: usize) -> FleetConfig {
    let mut serve = ServeConfig::at(0.1);
    serve.window = 256;
    serve.selection = HeadSelection::NaiveXi;
    FleetConfig {
        serve,
        replicas,
        merge_every: 32,
        admission: AdmissionConfig::default(),
        compression: Vec::new(),
    }
}

/// An observation-only trace of `n` events cycling the test split.
fn obs_trace(f: &Fixture, n: usize) -> Vec<TraceEvent> {
    (0..n)
        .map(|t| {
            TraceEvent::Observe(
                f.dataset.observations[f.split.test[t % f.split.test.len()]].clone(),
            )
        })
        .collect()
}

/// A mixed trace: every third event a deadline query, resolved three
/// events later, the rest observations. `id0` keeps ids unique across
/// repeated traces through one fleet.
fn mixed_trace(f: &Fixture, n: usize, id0: u64) -> Vec<TraceEvent> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut events = Vec::with_capacity(n);
    let mut open: Option<(u64, f64)> = None;
    for t in 0..n {
        let obs = &f.dataset.observations[f.split.test[t % f.split.test.len()]];
        match t % 3 {
            0 => {
                let id = id0 + t as u64;
                events.push(TraceEvent::Deadline(DeadlineQuery {
                    id,
                    workload: obs.workload,
                    platform: obs.platform,
                    interferers: obs.interferers.clone(),
                    deadline_s: f64::from(obs.runtime_s) * rng.gen_range(0.75..3.0),
                }));
                open = Some((id, f64::from(obs.runtime_s)));
            }
            1 => events.push(TraceEvent::Observe(obs.clone())),
            _ => match open.take() {
                Some((id, realized_s)) => events.push(TraceEvent::Resolve { id, realized_s }),
                None => events.push(TraceEvent::Observe(obs.clone())),
            },
        }
    }
    events
}

/// Concurrent vs. simulated throughput on identical traces.
fn runtime_throughput(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);

    let obs = obs_trace(&f, 2000);
    let mixed_n = 2000usize;

    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    group.throughput(Throughput::Elements(obs.len() as u64));

    let mut conc = ConcurrentFleet::new(
        t.clone(),
        &f.dataset,
        ConcurrentConfig {
            fleet: fleet_cfg(4),
            workers: None, // machine lane count — the number under test
        },
    );
    conc.seed_calibration(&f.split.val);
    group.bench_function("concurrent_obs_2k", |b| {
        b.iter(|| black_box(conc.run_trace(&obs).len()))
    });

    let mut sim = FleetServer::new(t.clone(), &f.dataset, fleet_cfg(4));
    sim.seed_calibration(&f.split.val);
    let mut t0 = 0.0f64;
    group.bench_function("simulated_obs_2k", |b| {
        b.iter(|| {
            let out = run_trace_simulated(&mut sim, t0, &obs);
            t0 += obs.len() as f64;
            black_box(out.len())
        })
    });

    group.throughput(Throughput::Elements(mixed_n as u64));
    let mut conc = ConcurrentFleet::new(
        t.clone(),
        &f.dataset,
        ConcurrentConfig {
            fleet: fleet_cfg(4),
            workers: None,
        },
    );
    conc.seed_calibration(&f.split.val);
    let mut id0 = 0u64;
    group.bench_function("concurrent_mixed_2k", |b| {
        b.iter(|| {
            let events = mixed_trace(&f, mixed_n, id0);
            id0 += mixed_n as u64;
            black_box(conc.run_trace(&events).len())
        })
    });

    let mut sim = FleetServer::new(t, &f.dataset, fleet_cfg(4));
    sim.seed_calibration(&f.split.val);
    let mut t0 = 0.0f64;
    let mut id0 = 0u64;
    group.bench_function("simulated_mixed_2k", |b| {
        b.iter(|| {
            let events = mixed_trace(&f, mixed_n, id0);
            id0 += mixed_n as u64;
            let out = run_trace_simulated(&mut sim, t0, &events);
            t0 += events.len() as f64;
            black_box(out.len())
        })
    });
    group.finish();
}

/// Raw MPSC lane-queue cycle: 1000 pushes then one coalesced drain.
fn queue_throughput(c: &mut Criterion) {
    let queue: EventQueue<u64> = EventQueue::new();
    let mut batch = Vec::with_capacity(1000);
    let mut group = c.benchmark_group("streaming");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("queue_push_drain_1k", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                assert!(queue.push(i));
            }
            black_box(queue.try_drain_into(&mut batch))
        })
    });
    group.finish();
}

criterion_group!(streaming, runtime_throughput, queue_throughput);
criterion_main!(streaming);
