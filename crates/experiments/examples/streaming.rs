//! Concurrent serving quickstart: run one trace through the real
//! threaded runtime (`ConcurrentFleet`) **and** its deterministic
//! simulated-clock twin (`FleetServer`), assert they agree bit for bit,
//! and report throughput for both.
//!
//! ```sh
//! cargo run --release -p pitot-experiments --example streaming
//! ```
//!
//! The final line prints `digest=<16 hex digits>` — an FNV-1a hash over
//! every outcome of the concurrent run (admission decisions, served
//! bounds, coverage flags). The digest is bitwise identical regardless of
//! `PITOT_THREADS` and of the lane count; CI runs this example
//! twice at different thread counts and diffs the two lines.

use pitot::{train, Objective, PitotConfig};
use pitot_serve::{
    run_trace_simulated, AdmissionConfig, ConcurrentConfig, ConcurrentFleet, DeadlineQuery,
    FaultPlan, FleetConfig, FleetServer, ServeConfig, TraceEvent, TraceOutcome,
};
use pitot_testbed::{split::Split, Testbed, TestbedConfig};
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn main() {
    // 1. Cluster, history, model — as in the fleet quickstart.
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();
    let split = Split::stratified(&dataset, 0.6, 0);
    let config = PitotConfig {
        objective: Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]),
        ..PitotConfig::fast()
    };
    let trained = train(&dataset, &split, &config);

    // 2. One trace, two runtimes. Every third event is a deadline query,
    //    resolved three events later; the rest stream observations. A
    //    crash with warm rejoin, a coordinator outage without gossip (long
    //    enough for replicas to go stale and serve widened local
    //    fallbacks), lossy and delayed links, replayed and skewed
    //    summaries, a Byzantine replica, a 3% corrupt-runtime rate, and
    //    outlier bursts for the miscoverage watchdog to roll back keep the
    //    audit machinery honest under load.
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut stream = split.test.clone();
    stream.shuffle(&mut rng);
    stream.truncate(600);
    let mut events: Vec<TraceEvent> = Vec::with_capacity(stream.len());
    let mut open: Option<(u64, f64)> = None;
    for (t, &i) in stream.iter().enumerate() {
        let o = dataset.observations[i].clone();
        match t % 3 {
            0 => {
                let deadline_s = f64::from(o.runtime_s) * rng.gen_range(0.75..3.0);
                open = Some((t as u64, f64::from(o.runtime_s)));
                events.push(TraceEvent::Deadline(DeadlineQuery {
                    id: t as u64,
                    workload: o.workload,
                    platform: o.platform,
                    interferers: o.interferers.clone(),
                    deadline_s,
                }));
            }
            1 => events.push(TraceEvent::Observe(o)),
            _ => match open.take() {
                Some((id, realized_s)) => events.push(TraceEvent::Resolve { id, realized_s }),
                None => events.push(TraceEvent::Observe(o)),
            },
        }
    }
    let cfg = || {
        let mut serve = ServeConfig::guarded(0.1);
        serve.window = 128;
        // The MAD screen stays warming up (`guard_min_n` above the window),
        // so outlier bursts reach the windows and the watchdog must roll
        // them back; staleness trips after 16 pushes without an install.
        serve.guard_min_n = 1 << 20;
        serve.guard_mad_k = 3.0;
        serve.watchdog_z = 1.0;
        serve.watchdog_min = 16;
        serve.drift_min = 16;
        serve.staleness_threshold = serve.drift_min;
        FleetConfig {
            serve,
            replicas: 4,
            merge_every: 16,
            admission: AdmissionConfig::default(),
            compression: Vec::new(),
        }
    };
    let mut plan = FaultPlan::none(0x057A_EA41)
        .crash(2, 40, 120)
        .coordinator_outage(60, 160)
        .drop_summaries(0.15)
        .delay_summaries(0.1, 2)
        .replay_summaries(0.05)
        .skew_clocks(0.05)
        .byzantine_replica(3, 100)
        .corrupt_observations(0.03)
        .outlier_bursts(0.03, 3.0, 5);
    plan.gossip_during_outage = false;

    // 3. The concurrent runtime: sharded replicas behind MPSC lanes, lane 0
    //    drained by this (the ingress) thread at barriers and each further
    //    lane by a worker thread, lane coalescing, and queries
    //    answered from each replica's installed calibration.
    let mut conc = ConcurrentFleet::with_faults(
        trained.clone(),
        &dataset,
        ConcurrentConfig {
            fleet: cfg(),
            workers: None, // one lane per available thread, capped at replicas
        },
        plan.clone(),
    );
    conc.seed_calibration(&split.val);
    let t0 = Instant::now();
    let concurrent = conc.run_trace(&events);
    let conc_elapsed = t0.elapsed();
    println!(
        "concurrent: {} lanes over 4 replicas — {} events in {:.1} ms ({:.0} events/s)",
        conc.workers(),
        events.len(),
        conc_elapsed.as_secs_f64() * 1e3,
        events.len() as f64 / conc_elapsed.as_secs_f64()
    );
    for (k, p) in conc.progress().iter().enumerate() {
        println!(
            "  lane {k}: {} observations in {} batches (largest {})",
            p.processed, p.batches, p.max_batch
        );
    }

    // 4. The deterministic twin on the same trace.
    let mut sim = FleetServer::with_faults(trained, &dataset, cfg(), plan);
    sim.seed_calibration(&split.val);
    let t0 = Instant::now();
    let simulated = run_trace_simulated(&mut sim, 0.0, &events);
    let sim_elapsed = t0.elapsed();
    println!(
        "simulated twin: {} events in {:.1} ms ({:.0} events/s)",
        events.len(),
        sim_elapsed.as_secs_f64() * 1e3,
        events.len() as f64 / sim_elapsed.as_secs_f64()
    );

    // 5. Bitwise equivalence: outcomes, stats, and audits.
    assert_eq!(concurrent, simulated, "the runtimes diverged");
    assert_eq!(conc.stats(), sim.stats(), "fleet stats diverged");
    assert_eq!(conc.degraded_audit(), sim.degraded_audit());
    assert_eq!(conc.rejected_audit(), sim.rejected_audit());
    let stats = conc.stats();
    println!(
        "\ntwin check passed: {} observations ({} lost, {} quarantined), {} queries, coverage {:.3}, {} merges, {} warm rejoin(s)",
        stats.observations,
        stats.lost_observations,
        stats.guard.quarantined,
        stats.queries,
        stats.coverage(),
        stats.merges,
        stats.recoveries
    );
    println!(
        "recovery paths: {} stale fallbacks ({} observations judged degraded), {} watchdog firings ({} entries purged)",
        stats.fallback_refits,
        stats.degraded_bounded,
        stats.guard.watchdog_fires,
        stats.guard.watchdog_purged
    );
    println!(
        "merge-path faults: {} gossip rounds, {} dropped ({} retried), {} delayed, {} replays, {} skews, {} Byzantine emissions, {} summaries rejected",
        stats.gossip_rounds,
        stats.dropped_summaries,
        stats.retried_summaries,
        stats.delayed_summaries,
        stats.injected_replays,
        stats.injected_skews,
        stats.byzantine_emissions,
        stats.rejected_summaries
    );

    // 6. The CI-diffed replayability witness over the concurrent outcomes.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |bytes: &[u8], d: &mut u64| {
        for &b in bytes {
            *d ^= u64::from(b);
            *d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for out in &concurrent {
        match out {
            TraceOutcome::Observed { replica, feedback } => {
                fnv(&[*replica as u8], &mut digest);
                fnv(
                    &[feedback.as_ref().map_or(2, |f| u8::from(f.covered))],
                    &mut digest,
                );
            }
            TraceOutcome::Decided(o) => {
                fnv(
                    &[u8::from(o.decision.admitted()), u8::from(o.failover)],
                    &mut digest,
                );
                fnv(&o.prediction.bound_s.to_bits().to_le_bytes(), &mut digest);
            }
            TraceOutcome::Resolved(r) => fnv(&[r.map_or(2, u8::from)], &mut digest),
        }
    }
    assert_eq!(stats.recoveries, 1, "replica 2 must rejoin warm");
    assert!(stats.fallback_refits > 0, "no stale fallback was installed");
    assert!(stats.guard.watchdog_fires > 0, "the watchdog never fired");
    assert!(stats.coverage() > 0.8, "faults collapsed coverage");
    // Keep this the last line.
    println!("digest={digest:016x}");
}
