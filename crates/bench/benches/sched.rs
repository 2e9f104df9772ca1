//! Placement-layer cost: what one risk-scored decision costs, and what the
//! whole conformal closed loop sustains.
//!
//! `ConformalGreedy` asks for one row per candidate for the arriving job
//! plus two per resident (the with/without interference delta), so a
//! decision on a loaded site is a few dozen rows, all asked for in one
//! batched predictor read — this bench pins that cost so the policy stays
//! viable at per-arrival rates:
//!
//! - `sched/place_conformal_12x3`: one `ConformalGreedy` decision over a
//!   12-platform view with 3 residents each (84 rows), against the trained
//!   model's conformal bounds through `PitotPredictor`, which answers the
//!   whole batch in one prediction pass over rows it reuses;
//! - `sched/place_point_12x3`: the same scan reading the point estimate
//!   (isolates the bound head's overhead);
//! - `sched/place_serving_6x2`: one `ConformalGreedy` decision over a
//!   6-platform view with 2 residents each (30 rows) through a seeded
//!   `ServingPredictor`, which answers the whole batch in one prediction
//!   pass into buffers the server reuses (the `closed-loop` decision);
//! - `sched/closed_loop_200`: 200 jobs through `run_closed_loop` over a
//!   live `PitotServer` — every completion streams back and recalibrates,
//!   so the elem/s is the jobs/sec headline for the full conformal
//!   scheduling loop. The server is built and seeded once, outside the
//!   timed loop, and persists across iterations, as a deployment's server
//!   would.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pitot::{Objective, PitotConfig, TrainedPitot};
use pitot_bench::Fixture;
use pitot_conformal::HeadSelection;
use pitot_orchestrator::{
    ClusterView, Job, JobStream, PitotPredictor, PlacementPolicy, PlatformLoad,
};
use pitot_sched::{ConformalGreedy, PointGreedy};
use pitot_serve::{run_closed_loop, PitotServer, ServeConfig, ServingPredictor};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

fn trained(f: &Fixture) -> TrainedPitot {
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        steps: 60,
        eval_every: 60,
        ..PitotConfig::paper()
    };
    pitot::train(&f.dataset, &f.split, &cfg)
}

/// A loaded view of platforms `0..platforms` with `residents` residents
/// each and one free slot.
fn loaded_view(n_workloads: usize, platforms: usize, residents: usize) -> ClusterView {
    ClusterView {
        now_s: 0.0,
        platforms: (0..platforms)
            .map(|p| PlatformLoad {
                platform: p,
                running: (0..residents)
                    .map(|r| ((p * residents + r) % n_workloads) as u32)
                    .collect(),
                remaining_frac: [0.8, 0.5, 0.2][..residents].to_vec(),
                due_s: vec![1e9; residents],
                free_slots: 1,
            })
            .collect(),
    }
}

/// Per-decision cost of the risk scan against the real model.
fn place_decision(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let bounds = t.fit_bounds(&f.dataset, 0.1, HeadSelection::TightestOnValidation);
    let pred = PitotPredictor::with_bounds(&t, &f.dataset, bounds);
    let view = loaded_view(f.dataset.n_workloads, 12, 3);
    let job = Job {
        id: 0,
        workload: 0,
        arrival_s: 0.0,
        deadline_s: 1e9,
    };

    let mut group = c.benchmark_group("sched");
    group.bench_function("place_conformal_12x3", |b| {
        let mut policy = ConformalGreedy::new();
        b.iter(|| black_box(policy.place(&job, &view, &pred)))
    });
    group.bench_function("place_point_12x3", |b| {
        let mut policy = PointGreedy::new();
        b.iter(|| black_box(policy.place(&job, &view, &pred)))
    });

    let mut server = PitotServer::new(t.clone(), f.dataset.clone(), ServeConfig::at(0.1));
    server.seed_calibration(&f.split.val);
    let serving = ServingPredictor::new(Rc::new(RefCell::new(server)));
    let view = loaded_view(f.dataset.n_workloads, 6, 2);
    group.bench_function("place_serving_6x2", |b| {
        let mut policy = ConformalGreedy::new();
        b.iter(|| black_box(policy.place(&job, &view, &serving)))
    });
    group.finish();
}

/// Jobs/sec through the full conformal scheduling loop: placement reads
/// live calibrated bounds, completions stream back as observations.
fn closed_loop(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let jobs = JobStream::generate_with_deadlines(&f.testbed, 200, 0.05, (1.3, 3.0), 7);
    let site: Vec<usize> = (0..6).collect();

    let mut serve_cfg = ServeConfig::at(0.1);
    serve_cfg.window = 256;
    let mut server = PitotServer::new(t, f.dataset.clone(), serve_cfg);
    server.seed_calibration(&f.split.val);
    let server = Rc::new(RefCell::new(server));

    let mut group = c.benchmark_group("sched");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.jobs().len() as u64));
    group.bench_function("closed_loop_200", |b| {
        b.iter(|| {
            let mut policy = ConformalGreedy::new();
            let report = run_closed_loop(&f.testbed, &jobs, &mut policy, &server, Some(&site));
            black_box(report.completed)
        })
    });
    group.finish();
}

criterion_group!(sched, place_decision, closed_loop);
criterion_main!(sched);
