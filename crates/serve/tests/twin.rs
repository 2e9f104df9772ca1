//! Deterministic-twin equivalence: the concurrent runtime
//! (`ConcurrentFleet`) must be **bitwise indistinguishable** from the
//! simulated-clock `FleetServer` on any trace — same observations, same
//! predictions, same admission decisions, same stats, same audits — for
//! every lane count. Seeded arbitrary traces interleave observations,
//! deadline queries, and resolves; fault cases run every `FaultPlan` knob
//! (crashes, coordinator outages with and without gossip, dropped and
//! delayed summaries with their retries, corrupt runtimes, outlier bursts,
//! replayed and skewed summaries, Byzantine and muted replicas) and both
//! replica recovery paths (the miscoverage watchdog's rollback and the
//! stale-local fallback) at one lane and at several.
//!
//! CI runs this suite under `PITOT_THREADS=1` and `PITOT_THREADS=4`, so the
//! linalg pool size is covered cross-process; the in-process `workers`
//! override covers lane counts 1 (inline: the ingress owns every lane), 2
//! (the ingress plus one worker) and up to 4 in one run.

use pitot::{train, Objective, PitotConfig, TrainedPitot};
use pitot_conformal::{HeadSelection, PooledConformal, PredictionSet};
use pitot_serve::{
    run_trace_simulated, AdmissionConfig, ConcurrentConfig, ConcurrentFleet, DeadlineQuery,
    FaultPlan, FleetConfig, FleetServer, ServeConfig, TraceEvent, TraceOutcome,
};
use pitot_testbed::{split::Split, Dataset, Testbed, TestbedConfig};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

fn fixture() -> &'static (Dataset, Split, TrainedPitot) {
    static FIXTURE: OnceLock<(Dataset, Split, TrainedPitot)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let testbed = Testbed::generate(&TestbedConfig::small());
        let dataset = testbed.collect_dataset();
        let split = Split::stratified(&dataset, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
        cfg.steps = 300;
        let trained = train(&dataset, &split, &cfg);
        (dataset, split, trained)
    })
}

fn clean_cfg(replicas: usize) -> FleetConfig {
    let mut serve = ServeConfig::at(0.1);
    serve.window = 64;
    serve.selection = HeadSelection::NaiveXi;
    FleetConfig {
        serve,
        replicas,
        merge_every: 16,
        admission: AdmissionConfig::default(),
        compression: Vec::new(),
    }
}

/// Ingest-guarded config with the miscoverage watchdog armed: the MAD
/// screen and the watchdog need the guard (corrupt runtimes are quarantined
/// on every server).
fn guarded_cfg(replicas: usize) -> FleetConfig {
    let mut serve = ServeConfig::guarded(0.1);
    serve.window = 128;
    serve.selection = HeadSelection::NaiveXi;
    FleetConfig {
        serve,
        replicas,
        merge_every: 16,
        admission: AdmissionConfig::default(),
        compression: Vec::new(),
    }
}

/// Builds a seeded trace of `n` interleaved events: ~55% observations,
/// ~30% deadline queries (unique ids), ~15% resolves of a random pending
/// query at its realized runtime.
fn build_trace(rng: &mut TestRng, n: usize) -> Vec<TraceEvent> {
    let (dataset, split, _) = fixture();
    let pool = &split.test;
    let mut events = Vec::with_capacity(n);
    let mut next_id = 0u64;
    let mut pending: Vec<(u64, f64)> = Vec::new();
    for _ in 0..n {
        let draw = rng.unit();
        if draw < 0.55 {
            let i = pool[rng.below(0, pool.len())];
            events.push(TraceEvent::Observe(dataset.observations[i].clone()));
        } else if draw < 0.85 || pending.is_empty() {
            let i = pool[rng.below(0, pool.len())];
            let obs = &dataset.observations[i];
            let deadline_s = f64::from(obs.runtime_s) * (0.75 + 2.25 * rng.unit());
            pending.push((next_id, f64::from(obs.runtime_s)));
            events.push(TraceEvent::Deadline(DeadlineQuery {
                id: next_id,
                workload: obs.workload,
                platform: obs.platform,
                interferers: obs.interferers.clone(),
                deadline_s,
            }));
            next_id += 1;
        } else {
            let (id, realized_s) = pending.swap_remove(rng.below(0, pending.len()));
            events.push(TraceEvent::Resolve { id, realized_s });
        }
    }
    events
}

/// The core assertion: the same trace through the simulated twin and a
/// `workers`-lane concurrent fleet yields identical outcome vectors, fleet
/// stats, degraded-window audits, rejected-summary audits, and last
/// installed fleet calibrations. Returns the
/// simulated fleet and its outcomes, so callers can check the faults they
/// scheduled actually fired.
fn assert_twin_equivalent(
    cfg: FleetConfig,
    plan: Option<FaultPlan>,
    events: &[TraceEvent],
    workers: usize,
) -> (FleetServer, Vec<TraceOutcome>) {
    let (dataset, split, trained) = fixture();
    let mut sim = match &plan {
        Some(p) => FleetServer::with_faults(trained.clone(), dataset, cfg.clone(), p.clone()),
        None => FleetServer::new(trained.clone(), dataset, cfg.clone()),
    };
    sim.seed_calibration(&split.val);
    let expected = run_trace_simulated(&mut sim, 0.0, events);

    let replicas = cfg.replicas;
    let ccfg = ConcurrentConfig {
        fleet: cfg,
        workers: Some(workers),
    };
    let mut conc = match plan {
        Some(p) => ConcurrentFleet::with_faults(trained.clone(), dataset, ccfg, p),
        None => ConcurrentFleet::new(trained.clone(), dataset, ccfg),
    };
    conc.seed_calibration(&split.val);
    let got = conc.run_trace(events);

    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "outcome {i} diverged under {workers} worker(s)");
    }
    assert_eq!(
        conc.stats(),
        sim.stats(),
        "fleet stats diverged under {workers} worker(s)"
    );
    assert_eq!(
        conc.degraded_audit(),
        sim.degraded_audit(),
        "degraded audit diverged under {workers} worker(s)"
    );
    assert_eq!(
        conc.rejected_audit(),
        sim.rejected_audit(),
        "rejected audit diverged under {workers} worker(s)"
    );
    // `Debug` prints every float in its shortest round-trip form, so equal
    // forms mean bitwise-equal fleet calibrations.
    assert_eq!(
        format!("{:?}", conc.fleet_conformal()),
        format!("{:?}", sim.fleet_conformal()),
        "fleet calibration diverged under {workers} worker(s)"
    );
    // The lanes must have actually processed every routed observation:
    // each is judged or quarantined at ingest (watchdog purges re-audit
    // entries that were already judged).
    let progress = conc.progress();
    assert_eq!(
        progress.len(),
        workers.min(replicas),
        "one progress entry per lane"
    );
    let processed: u64 = progress.iter().map(|p| p.processed).sum();
    let guard = conc.stats().guard;
    let observed = got
        .iter()
        .filter(|o| {
            matches!(
                o,
                TraceOutcome::Observed {
                    feedback: Some(_),
                    ..
                }
            )
        })
        .count() as u64
        + (guard.quarantined - guard.watchdog_purged) as u64;
    assert_eq!(processed, observed, "lane progress lost observations");
    (sim, expected)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
    /// Clean fleets: arbitrary interleaved traces, three replicas, inline,
    /// ingress-plus-one-worker and threaded lane modes.
    #[test]
    fn arbitrary_traces_match_the_twin(seed in 0u64..u64::MAX, n in 120usize..220) {
        let mut rng = TestRng::from_state(seed);
        let events = build_trace(&mut rng, n);
        for workers in [1usize, 2, 4] {
            assert_twin_equivalent(clean_cfg(3), None, &events, workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]
    /// Faulted fleets: a replica crash with warm rejoin plus corrupt
    /// runtimes and outlier bursts (PR 7–8 schedules) — guard quarantines,
    /// lost observations, failover queries, and the degraded-window audit
    /// must all match the twin bit for bit.
    #[test]
    fn faulted_traces_match_the_twin(seed in 0u64..u64::MAX, n in 160usize..240) {
        let mut rng = TestRng::from_state(seed);
        let events = build_trace(&mut rng, n);
        let crash_at = 20 + rng.below(0, 20);
        let rejoin_at = crash_at + 30 + rng.below(0, 30);
        let plan = FaultPlan::none(seed ^ 0xFA_17)
            .crash(1, crash_at, rejoin_at)
            .corrupt_observations(0.05)
            .outlier_bursts(0.03, 2.0, 3);
        for workers in [1usize, 2, 4] {
            assert_twin_equivalent(guarded_cfg(4), Some(plan.clone()), &events, workers);
        }
    }
}

#[test]
fn streaming_across_run_trace_calls_matches_one_twin_run() {
    // run_trace carries its event clock across calls: two chunks through
    // the concurrent fleet must equal one continuous twin run.
    let (dataset, split, trained) = fixture();
    let mut rng = TestRng::deterministic("twin::streaming_chunks");
    let events = build_trace(&mut rng, 180);
    let (head, tail) = events.split_at(80);

    let mut sim = FleetServer::new(trained.clone(), dataset, clean_cfg(3));
    sim.seed_calibration(&split.val);
    let mut expected = run_trace_simulated(&mut sim, 0.0, head);
    expected.extend(run_trace_simulated(&mut sim, head.len() as f64, tail));

    let ccfg = ConcurrentConfig {
        fleet: clean_cfg(3),
        workers: Some(2),
    };
    let mut conc = ConcurrentFleet::new(trained.clone(), dataset, ccfg);
    conc.seed_calibration(&split.val);
    let mut got = conc.run_trace(head);
    got.extend(conc.run_trace(tail));

    assert_eq!(got, expected);
    assert_eq!(conc.stats(), sim.stats());
}

/// `clean_cfg` with replica 1 serving a compressed tower.
fn compressed_cfg(replicas: usize, spec: pitot::CompressionSpec) -> FleetConfig {
    let mut cfg = clean_cfg(replicas);
    let mut compression = vec![pitot::CompressionSpec::none(); replicas];
    compression[1] = spec;
    cfg.compression = compression;
    cfg
}

#[test]
fn fleet_with_a_compressed_replica_matches_the_twin() {
    // One replica serving pruned+int8 towers must replay bitwise in the
    // concurrent runtime: the compressed tower cache is frozen, so the
    // same trace yields the same predictions, admission decisions, and
    // stats for every lane shape.
    let mut rng = TestRng::deterministic("twin::compressed_replica");
    let events = build_trace(&mut rng, 200);
    for spec in [
        pitot::CompressionSpec::int8(),
        pitot::CompressionSpec::pruned_int8(0.5),
    ] {
        for workers in [1usize, 3] {
            assert_twin_equivalent(compressed_cfg(3, spec), None, &events, workers);
        }
    }
}

#[test]
fn compressed_replica_crash_and_rejoin_matches_the_twin() {
    // The compressed replica crashes across several merge rounds and
    // rejoins warm: it must come back *compressed* in both runtimes, or
    // post-rejoin predictions (scored against a dense cache) would split
    // the twins.
    let mut rng = TestRng::deterministic("twin::compressed_crash");
    let events = build_trace(&mut rng, 240);
    let plan = FaultPlan::none(91).crash(1, 25, 100);
    for workers in [1usize, 2, 3] {
        assert_twin_equivalent(
            compressed_cfg(3, pitot::CompressionSpec::pruned_int8(0.4)),
            Some(plan.clone()),
            &events,
            workers,
        );
    }
}

#[test]
fn crash_with_every_worker_count_matches_the_twin() {
    // A fixed, audit-heavy schedule (crash spans several merge rounds)
    // across every distinct lane shape for 3 replicas: inline, 2 lanes
    // (one doubled-up), and one lane per replica.
    let mut rng = TestRng::deterministic("twin::crash_worker_counts");
    let events = build_trace(&mut rng, 260);
    let plan = FaultPlan::none(77).crash(2, 30, 110);
    for workers in [1usize, 2, 3] {
        assert_twin_equivalent(clean_cfg(3), Some(plan.clone()), &events, workers);
    }
}

#[test]
fn unguarded_fleet_quarantines_corrupt_runtimes_like_the_twin() {
    // Runtimes are screened on every server, so an unguarded fleet fed NaN
    // and negative runtimes quarantines them instead of losing a lane, and
    // the threaded runtime equals its twin outcome for outcome. A crash
    // loses a shard's observations, so the ledger
    // `observations = bounded + quarantined + lost` has all three terms.
    let mut rng = TestRng::deterministic("twin::unguarded_corrupt_runtimes");
    let mut events = build_trace(&mut rng, 260);
    let mut corrupted = 0;
    for (k, event) in events.iter_mut().enumerate() {
        if let TraceEvent::Observe(obs) = event {
            match k % 9 {
                0 => obs.runtime_s = f32::NAN,
                4 => obs.runtime_s = -obs.runtime_s,
                _ => continue,
            }
            corrupted += 1;
        }
    }
    let observations = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Observe(_)))
        .count();
    let cfg = clean_cfg(3);
    assert!(!cfg.serve.ingest_guard);
    let plan = FaultPlan::none(41).crash(1, 40, 120);
    for workers in [1usize, 2, 3] {
        let (sim, _) = assert_twin_equivalent(cfg.clone(), Some(plan.clone()), &events, workers);
        let s = sim.stats();
        let g = s.guard;
        assert!(g.is_consistent(), "{g:?}");
        assert!(
            g.nonfinite_runtimes > 0 && g.nonpositive_runtimes > 0,
            "{g:?}"
        );
        assert_eq!(g.mad_outliers + g.watchdog_purged, 0, "unguarded: {g:?}");
        assert!(g.quarantined <= corrupted, "{g:?}");
        assert!(s.lost_observations > 0, "the crash lost nothing");
        assert_eq!(
            observations,
            s.bounded + g.quarantined + s.lost_observations,
            "the ledger leaks"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]
    /// Every merge-path fault at once: an outage with gossip, lossy and
    /// delayed links, replayed and skewed summaries, and a Byzantine
    /// replica, over arbitrary traces.
    #[test]
    fn merge_path_faults_match_the_twin(seed in 0u64..u64::MAX, n in 200usize..280) {
        let mut rng = TestRng::from_state(seed);
        let events = build_trace(&mut rng, n);
        let from = 30 + rng.below(0, 20);
        let plan = FaultPlan::none(seed ^ 0x3E_12)
            .coordinator_outage(from, from + 25 + rng.below(0, 25))
            .drop_summaries(0.3)
            .delay_summaries(0.2, 3)
            .replay_summaries(0.1)
            .skew_clocks(0.1)
            .byzantine_replica(3, 40 + rng.below(0, 40));
        for workers in [1usize, 2, 4] {
            assert_twin_equivalent(guarded_cfg(4), Some(plan.clone()), &events, workers);
        }
    }
}

#[test]
fn coordinator_outage_with_and_without_gossip_matches_the_twin() {
    let mut rng = TestRng::deterministic("twin::outage");
    let events = build_trace(&mut rng, 260);
    // An outage from observation 0 already covers the seeding merge, so
    // replicas start out serving their own seeded fits.
    for (from, until) in [(30, 90), (0, 60)] {
        for gossip in [true, false] {
            let mut plan = FaultPlan::none(5).coordinator_outage(from, until);
            plan.gossip_during_outage = gossip;
            for workers in [1usize, 2, 4] {
                let (sim, _) =
                    assert_twin_equivalent(clean_cfg(4), Some(plan.clone()), &events, workers);
                assert_eq!(sim.stats().gossip_rounds > 0, gossip, "gossip = {gossip}");
            }
        }
    }
}

#[test]
fn lossy_links_with_mid_batch_retries_match_the_twin() {
    // Retries fall due between cadence merges, in the middle of a
    // `run_trace` batch: the concurrent side must snapshot the retried
    // replica only after its lane has judged everything routed to it.
    let mut rng = TestRng::deterministic("twin::lossy_links");
    let events = build_trace(&mut rng, 280);
    let plan = FaultPlan::none(17)
        .drop_summaries(0.35)
        .delay_summaries(0.2, 3);
    for workers in [1usize, 2, 4] {
        let (sim, _) = assert_twin_equivalent(clean_cfg(4), Some(plan.clone()), &events, workers);
        let s = sim.stats();
        assert!(s.dropped_summaries > 0 && s.retried_summaries > 0, "{s:?}");
        assert!(s.delayed_summaries > 0, "{s:?}");
    }
}

#[test]
fn replayed_and_skewed_summaries_match_the_twin() {
    let mut rng = TestRng::deterministic("twin::replay_skew");
    let events = build_trace(&mut rng, 260);
    let plan = FaultPlan::none(23).replay_summaries(0.2).skew_clocks(0.2);
    for workers in [1usize, 3] {
        let (sim, _) = assert_twin_equivalent(clean_cfg(3), Some(plan.clone()), &events, workers);
        let s = sim.stats();
        assert!(s.injected_replays > 0 && s.injected_skews > 0, "{s:?}");
        assert!(!sim.rejected_audit().is_empty());
    }
}

#[test]
fn byzantine_and_muted_replicas_match_the_twin() {
    // The outage puts the Byzantine replica's own gossip view through the
    // pairwise verify-and-reject path as well as the coordinator screen.
    let mut rng = TestRng::deterministic("twin::byzantine");
    let events = build_trace(&mut rng, 260);
    for plan in [
        FaultPlan::none(29).byzantine_replica(2, 20),
        FaultPlan::none(29).mute_replica(2, 20),
    ] {
        let plan = plan.coordinator_outage(60, 100);
        for workers in [1usize, 2, 4] {
            let (sim, _) =
                assert_twin_equivalent(clean_cfg(4), Some(plan.clone()), &events, workers);
            let s = sim.stats();
            assert!(s.byzantine_emissions > 0, "{s:?}");
            let muted = plan.byzantine.is_some_and(|b| b.mute);
            assert_eq!(s.rejected_summaries == 0, muted, "{s:?}");
        }
    }
}

#[test]
fn compressed_replica_crash_during_an_outage_matches_the_twin() {
    // The compressed replica crashes and rejoins while the coordinator is
    // out: it rejoins with the last coordinator fit while its peers serve
    // their own gossip fits, so the read path must answer from each
    // replica's own install.
    let mut rng = TestRng::deterministic("twin::compressed_outage_crash");
    let events = build_trace(&mut rng, 260);
    let plan = FaultPlan::none(13)
        .coordinator_outage(30, 110)
        .crash(1, 45, 85);
    for workers in [1usize, 2, 3] {
        let (sim, _) = assert_twin_equivalent(
            compressed_cfg(3, pitot::CompressionSpec::pruned_int8(0.4)),
            Some(plan.clone()),
            &events,
            workers,
        );
        let s = sim.stats();
        assert!(s.recoveries == 1 && s.gossip_rounds > 0, "{s:?}");
    }
}

#[test]
fn outage_boundary_feedback_is_credited_like_the_twin() {
    // The outage clears at observation 40; the cadence merge that closes
    // its audit is triggered by observation 48 (merges every 16), which is
    // still credited to the outage window. The concurrent side judges that
    // observation on a lane and credits it only after the merge has set
    // `until_obs = 48`, so it must credit the window chosen at ingress
    // rather than the window whose `[from_obs, until_obs)` holds 48.
    let mut rng = TestRng::deterministic("twin::outage_boundary");
    let events = build_trace(&mut rng, 200);
    let plan = FaultPlan::none(31).coordinator_outage(20, 40);
    for workers in [1usize, 2, 3] {
        let (sim, outcomes) =
            assert_twin_equivalent(clean_cfg(3), Some(plan.clone()), &events, workers);
        let audit = sim.degraded_audit();
        assert_eq!(audit.len(), 1);
        assert_eq!(audit[0].until_obs, Some(48));
        let closing = outcomes
            .iter()
            .filter(|o| matches!(o, TraceOutcome::Observed { .. }))
            .nth(47)
            .expect("the trace has 48 observations");
        assert!(
            matches!(
                closing,
                TraceOutcome::Observed {
                    feedback: Some(_),
                    ..
                }
            ),
            "observation 48 must be judged: {closing:?}"
        );
    }
}

#[test]
fn watchdog_rollbacks_match_the_twin() {
    // Outlier bursts slip past a MAD screen that is still warming up
    // (guard_min_n above the window) and drag coverage down until the
    // watchdog fires; its rollback purges them at k = 3. A fleet replica
    // leaves the refit to the next install, so the read path keeps serving
    // what the twin's replicas serve.
    let mut rng = TestRng::deterministic("twin::watchdog");
    let events = build_trace(&mut rng, 320);
    let mut cfg = guarded_cfg(3);
    cfg.serve.guard_min_n = 10_000;
    cfg.serve.guard_mad_k = 3.0;
    cfg.serve.watchdog_z = 1.0;
    cfg.serve.watchdog_min = 32;
    let plan = FaultPlan::none(37).outlier_bursts(0.1, 5.0, 8);
    for workers in [1usize, 3] {
        let (sim, _) = assert_twin_equivalent(cfg.clone(), Some(plan.clone()), &events, workers);
        let g = sim.stats().guard;
        assert!(g.watchdog_purged > 0, "{g:?}");
    }
}

#[test]
fn stale_fallback_matches_the_twin() {
    // No gossip: replicas cut off by the outage go stale, and the core
    // installs widened local fallbacks at merge ticks. The read path must
    // serve them, degraded tag included, exactly as the twin's replicas do.
    let mut rng = TestRng::deterministic("twin::stale_fallback");
    let events = build_trace(&mut rng, 400);
    let mut cfg = clean_cfg(3);
    cfg.serve.drift_min = 32;
    cfg.serve.staleness_threshold = cfg.serve.drift_min;
    let mut plan = FaultPlan::none(41).coordinator_outage(30, 190);
    plan.gossip_during_outage = false;
    for workers in [1usize, 2, 3] {
        let (sim, _) = assert_twin_equivalent(cfg.clone(), Some(plan.clone()), &events, workers);
        let s = sim.stats();
        assert!(s.fallback_refits > 0 && s.degraded_bounded > 0, "{s:?}");
        let a = s.admission;
        assert!(a.degraded_admitted + a.degraded_shed > 0, "{a:?}");
    }

    // Every fallback a replica serves on the window it was fit on is
    // bitwise the fit of that window at ε × STALE_EPSILON_FACTOR.
    let (dataset, split, trained) = fixture();
    let mut sim = FleetServer::with_faults(trained.clone(), dataset, cfg.clone(), plan);
    sim.seed_calibration(&split.val);
    let widened = cfg.serve.epsilon * ServeConfig::STALE_EPSILON_FACTOR;
    let xis = trained.model.config().objective.xis();
    let no_selection = vec![Vec::new(); trained.model.n_heads()];
    let mut pinned = 0;
    for (i, ev) in events.iter().enumerate() {
        run_trace_simulated(&mut sim, i as f64, std::slice::from_ref(ev));
        for r in 0..sim.n_replicas() {
            let replica = sim.replica(r);
            let served = replica.conformal().expect("seeded replicas serve a fit");
            if replica.staleness() > 0 || served.miscoverage() != widened {
                continue;
            }
            let oracle = PooledConformal::fit_scored(
                &replica.window_summary(r as u64).to_scored(),
                &PredictionSet {
                    predictions: &no_selection,
                    targets_log: &[],
                    pools: &[],
                },
                &xis,
                cfg.serve.selection,
                widened,
            );
            assert_eq!(
                format!("{served:?}"),
                format!("{oracle:?}"),
                "replica {r} after event {i}"
            );
            pinned += 1;
        }
    }
    assert!(pinned > 0, "no fallback was served on its own window");
}

#[test]
fn shard_routing_matches_the_twin() {
    let (dataset, split, trained) = fixture();
    let fleet = FleetServer::new(trained.clone(), dataset, clean_cfg(5));
    let conc = ConcurrentFleet::new(
        trained.clone(),
        dataset,
        ConcurrentConfig {
            fleet: clean_cfg(5),
            workers: Some(1),
        },
    );
    for &i in split.test.iter().take(64) {
        let o = &dataset.observations[i];
        assert_eq!(
            conc.shard_for(o.workload, o.platform),
            fleet.shard_for(o.workload, o.platform)
        );
    }
}

/// The panic payload's message.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

#[test]
fn a_panicking_lane_fails_run_trace_instead_of_hanging() {
    // An observation outside the model's catalog panics whoever retires it:
    // the ingress on lane 0, the worker on lane 1. Either way `run_trace`
    // must panic — a dead worker closes its lane's barrier, and the caller
    // names the lane — rather than park forever, and the twin rejects the
    // same input.
    let (dataset, split, trained) = fixture();
    let lanes = 2;
    for lane in 0..lanes {
        let mut conc = ConcurrentFleet::new(
            trained.clone(),
            dataset,
            ConcurrentConfig {
                fleet: clean_cfg(2),
                workers: Some(lanes),
            },
        );
        conc.seed_calibration(&split.val);
        let mut obs = dataset.observations[split.test[0]].clone();
        obs.workload = (dataset.n_workloads as u32..)
            .find(|&w| conc.shard_for(w, obs.platform) % lanes == lane)
            .expect("some out-of-catalog workload shards to every lane");
        let events = vec![TraceEvent::Observe(obs)];

        let mut sim = FleetServer::new(trained.clone(), dataset, clean_cfg(2));
        sim.seed_calibration(&split.val);
        let twin = catch_unwind(AssertUnwindSafe(|| {
            run_trace_simulated(&mut sim, 0.0, &events)
        }));
        assert!(
            twin.is_err(),
            "the twin accepted an out-of-catalog observation"
        );

        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| conc.run_trace(&events)));
            let _ = tx.send(result.err().map(panic_message));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Some(msg)) => {
                if lane > 0 {
                    assert!(msg.contains(&format!("lane {lane} died")), "{msg}");
                }
            }
            Ok(None) => panic!("lane {lane} accepted an out-of-catalog observation"),
            Err(e) => panic!("run_trace did not return within 60 s on lane {lane}: {e}"),
        }
        runner.join().expect("the runner caught the panic");
    }
}
