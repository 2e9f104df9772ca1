//! Serving quickstart: run the online prediction service closed-loop with
//! the placement simulator — calibrated bounds place jobs, realized
//! runtimes stream back, and the calibration window tracks the deployment
//! distribution instead of a frozen holdout.
//!
//! ```sh
//! cargo run --release -p pitot-experiments --example serving
//! ```

use pitot::{train, Objective, PitotConfig};
use pitot_orchestrator::{BaselinePolicy, JobStream, QueryBatch};
use pitot_serve::{run_closed_loop, PitotServer, ServeConfig};
use pitot_testbed::{split::Split, Testbed, TestbedConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // 1. Cluster, history, model — as in the quickstart.
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();
    let split = Split::stratified(&dataset, 0.6, 0);
    let config = PitotConfig {
        objective: Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]),
        ..PitotConfig::fast()
    };
    let trained = train(&dataset, &split, &config);
    println!(
        "trained {} parameters over {} observations",
        trained.model.param_count(),
        dataset.observations.len()
    );

    // 2. Stand up the serving instance: ε = 0.1 bounds, a 400-observation
    //    sliding calibration window refreshed on every arrival, seeded from
    //    the model's validation holdout.
    let epsilon = 0.1;
    let mut serve_cfg = ServeConfig::at(epsilon);
    serve_cfg.window = 400;
    let mut server = PitotServer::new(trained, dataset.clone(), serve_cfg);
    server.seed_calibration(&split.val);

    // 3. A batched read: 8 placement queries answered in one row-parallel
    //    prediction pass, each bitwise its single-row `query_now` answer.
    let mut batch = QueryBatch::default();
    for &oi in split.test.iter().take(8) {
        let o = &dataset.observations[oi];
        batch.push(
            o.workload,
            o.platform as usize,
            o.interferers.iter().copied(),
        );
    }
    let mut answers = Vec::with_capacity(batch.len());
    server.query_batch(&batch, |p| answers.push(p));
    println!("\nbatched answers (point → budget at ε={epsilon}):");
    for (q, p) in answers.iter().enumerate() {
        println!(
            "  query {q}: {:>8.3}s → {:>8.3}s (pool {})",
            p.point_s, p.bound_s, p.pool
        );
    }

    // 4. Close the loop: a deadline-aware policy places 200 jobs on a
    //    six-platform edge site using the server's live bounds; every
    //    completion streams back and recalibrates the window.
    let server = Rc::new(RefCell::new(server));
    let jobs = JobStream::generate(&testbed, 200, 0.25, 7);
    let site: Vec<usize> = (0..6).collect();
    let report = run_closed_loop(
        &testbed,
        &jobs,
        &mut BaselinePolicy::deadline_aware(),
        &server,
        Some(&site),
    );

    let server = server.borrow();
    let stats = server.stats();
    println!("\nclosed loop on a 6-platform site:");
    println!(
        "  {} jobs completed, {} deadline violations ({:.1}% vs ε = {:.0}%)",
        report.completed,
        report.violations,
        100.0 * report.violations as f64 / report.completed.max(1) as f64,
        100.0 * epsilon
    );
    println!(
        "  {} completions streamed back, rolling coverage {:.3}, {} conformal refreshes",
        stats.observations,
        server.rolling_coverage(),
        stats.refreshes
    );
}
