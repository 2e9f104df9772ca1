//! Serving-layer cost: event throughput of the streaming loop and the
//! latency of a sliding-window conformal refresh.
//!
//! The serving story only holds if recalibrating per observation is cheap —
//! the whole point of `pitot_conformal::WindowedScores` is that a refresh
//! is rank lookups over incrementally maintained sorted slices instead of a
//! re-score + re-sort. This bench records:
//!
//! - `serving/stream_2k_events`: a mixed stream of 3 observations per query
//!   through a full server (window 512, refresh every observation); the
//!   bench gathers the queries 16 at a time and answers each 16 with one
//!   `PitotServer::query_batch` (a trailing partial batch is answered at
//!   the end of the stream) — the headline events/sec figure;
//! - `serving/refresh_1k`: one observation + refresh on a full 1024-window
//!   server under the default `NaiveXi` head selection;
//! - `serving/refresh_p50` / `serving/refresh_p99`: tail percentiles over
//!   the individual refreshing calls of the previous bench, each timed by
//!   the bench itself and recorded via `criterion::record_external` so the
//!   regression gate judges the tail, not just the mean.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pitot::{Objective, PitotConfig, TrainedPitot};
use pitot_bench::Fixture;
use pitot_orchestrator::QueryBatch;
use pitot_serve::{Event, PitotServer, ServeConfig};
use pitot_testbed::Observation;
use std::hint::black_box;
use std::time::Instant;

fn trained(f: &Fixture) -> TrainedPitot {
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        steps: 60,
        eval_every: 60,
        ..PitotConfig::paper()
    };
    pitot::train(&f.dataset, &f.split, &cfg)
}

/// Queries the stream bench answers with one batched read.
const QUERY_BATCH: usize = 16;

/// One event of the mixed stream.
enum Step {
    /// A measured runtime arrives.
    Observe(Observation),
    /// A placement query for this observation's index fields.
    Query(Observation),
}

/// A mixed stream over the test split: 3 observations per query.
fn build_steps(f: &Fixture, n: usize) -> Vec<Step> {
    (0..n)
        .map(|t| {
            let o = f.dataset.observations[f.split.test[t % f.split.test.len()]].clone();
            if t % 4 == 3 {
                Step::Query(o)
            } else {
                Step::Observe(o)
            }
        })
        .collect()
}

/// Answers the gathered queries with one batched read and empties the
/// batch; returns how many were answered.
fn answer(server: &mut PitotServer, batch: &mut QueryBatch) -> usize {
    server.query_batch(batch, |p| {
        black_box(p);
    });
    let n = batch.len();
    batch.clear();
    n
}

/// Events/sec through a serving instance refreshing on every observation.
fn stream_throughput(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let mut cfg = ServeConfig::at(0.1);
    cfg.window = 512;
    cfg.refresh_every = 1;
    let mut server = PitotServer::new(t, f.dataset.clone(), cfg);
    server.seed_calibration(&f.split.val);

    let steps = build_steps(&f, 2000);
    let mut batch = QueryBatch::default();
    // The server lives across iterations (its clock must stay monotone).
    let mut t0 = 0.0f64;
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.throughput(Throughput::Elements(steps.len() as u64));
    group.bench_function("stream_2k_events", |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for (dt, step) in steps.iter().enumerate() {
                match step {
                    Step::Observe(o) => {
                        black_box(server.on_event(t0 + dt as f64, Event::Observe(o.clone())));
                    }
                    Step::Query(o) => {
                        batch.push(
                            o.workload,
                            o.platform as usize,
                            o.interferers.iter().copied(),
                        );
                        if batch.len() == QUERY_BATCH {
                            answered += answer(&mut server, &mut batch);
                        }
                    }
                }
            }
            t0 += steps.len() as f64;
            answered += answer(&mut server, &mut batch);
            black_box(answered)
        })
    });
    group.finish();
}

/// One observation + refresh on a full window, plus tail percentiles of
/// the individual refreshing calls.
fn refresh_latency(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let mut cfg = ServeConfig::at(0.1);
    cfg.window = 1024;
    cfg.refresh_every = 1;
    let mut server = PitotServer::new(t, f.dataset.clone(), cfg);
    server.seed_calibration(&f.split.val);
    // Fill the window completely before measuring.
    for (dt, &i) in f.split.test.iter().take(1024).enumerate() {
        server.on_event(dt as f64, Event::Observe(f.dataset.observations[i].clone()));
    }

    let mut t0 = 2048.0f64;
    let mut lat: Vec<u64> = Vec::new();
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.bench_function("refresh_1k", |b| {
        b.iter(|| {
            let i = f.split.test[(t0 as usize) % f.split.test.len()];
            let event = Event::Observe(f.dataset.observations[i].clone());
            let start = Instant::now();
            let resp = server.on_event(t0, event);
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if resp.observed.is_some_and(|o| o.refreshed) {
                lat.push(ns);
            }
            t0 += 1.0;
            black_box(resp)
        })
    });
    group.finish();

    // Tail percentiles over every refreshing call this bench made.
    lat.sort_unstable();
    if !lat.is_empty() {
        let pct = |q: f64| lat[((lat.len() - 1) as f64 * q).round() as usize] as f64;
        let mean = lat.iter().sum::<u64>() as f64 / lat.len() as f64;
        let var = lat
            .iter()
            .map(|&v| (v as f64 - mean) * (v as f64 - mean))
            .sum::<f64>()
            / lat.len().max(1) as f64;
        criterion::record_external("serving/refresh_p50", pct(0.50), var.sqrt(), lat.len());
        criterion::record_external("serving/refresh_p99", pct(0.99), var.sqrt(), lat.len());
    }
}

criterion_group!(serving, stream_throughput, refresh_latency);
criterion_main!(serving);
