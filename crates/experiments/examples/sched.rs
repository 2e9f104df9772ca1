//! Scheduling quickstart: race the `pitot-sched` placement policies on one
//! closed loop and print each policy's decision digest.
//!
//! ```sh
//! cargo run --release -p pitot-experiments --example sched
//! ```
//!
//! The digests are the workspace's cross-process determinism check:
//! placement decisions must be bitwise-identical across `PITOT_THREADS`
//! settings, and because the thread count is latched process-wide at first
//! use, the comparison has to span processes. CI runs this example twice —
//! `PITOT_THREADS=1` and the default — and diffs the printed `digest=`
//! lines.

use pitot::{train, Objective, PitotConfig};
use pitot_orchestrator::{BaselinePolicy, ClusterSim, JobStream, PlacementPolicy};
use pitot_sched::{ConformalGreedy, PointGreedy, Traced};
use pitot_serve::{Event, PitotServer, ServeConfig, ServingPredictor};
use pitot_testbed::{split::Split, Testbed, TestbedConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // 1. Cluster, history, model — as in the quickstart. Training runs
    //    through the parallel linalg plane, so the digest below covers the
    //    whole pipeline, not just the argmin scan.
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();
    let split = Split::stratified(&dataset, 0.6, 0);
    let config = PitotConfig {
        objective: Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]),
        ..PitotConfig::fast()
    };
    let trained = train(&dataset, &split, &config);

    // 2. One job stream, one edge site, four policies. Each policy gets a
    //    fresh serving instance so its calibration trajectory is its own.
    let jobs = JobStream::generate_with_deadlines(&testbed, 200, 0.05, (1.3, 3.0), 7);
    let site: Vec<usize> = (0..6).collect();
    let policies: Vec<Box<dyn PlacementPolicy>> = vec![
        Box::new(ConformalGreedy::new()),
        Box::new(PointGreedy::new()),
        Box::new(BaselinePolicy::least_loaded()),
        Box::new(BaselinePolicy::random(7)),
    ];

    println!("closed loop: 200 jobs on a 6-platform site, live recalibration");
    for policy in policies {
        let mut serve_cfg = ServeConfig::at(0.1);
        serve_cfg.window = 256;
        let mut server = PitotServer::new(trained.clone(), dataset.clone(), serve_cfg);
        server.seed_calibration(&split.val);
        let server = Rc::new(RefCell::new(server));
        let predictor = ServingPredictor::new(Rc::clone(&server));

        let mut traced = Traced::new(policy);
        let report = ClusterSim::new(&testbed)
            .restrict_to(&site)
            .run_with_observer(&jobs, &mut traced, &predictor, &mut |obs, now| {
                let mut srv = server.borrow_mut();
                let at = now.max(srv.now_s());
                srv.on_event(at, Event::Observe(obs));
            });

        println!(
            "  {:<24} completed={} violations={:>3} mean_response={:>6.3}s \
             coverage={:.3} digest={:016x}",
            traced.name(),
            report.completed,
            report.violations,
            report.mean_response_s,
            server.borrow().rolling_coverage(),
            traced.digest()
        );
    }
}
