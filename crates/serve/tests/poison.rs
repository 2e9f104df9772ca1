//! Fail-noisy behaviour of the trust layer: ingest-guard quarantine with
//! the clean-subset oracle pin, Byzantine summary rejection with the
//! mute-twin bitwise pin, replay/skew clock screening, the miscoverage
//! watchdog's quarantine-rollback, and serde round-trips of every audit
//! record.

use pitot::{train, Objective, PitotConfig, TrainedPitot};
use pitot_conformal::HeadSelection;
use pitot_serve::{
    AdmissionConfig, Event, FaultPlan, FleetConfig, FleetServer, GuardStats, PitotServer,
    QuarantineCause, QuarantineRecord, RejectCause, RejectedSummary, ServeConfig, WatchdogIncident,
};
use pitot_testbed::{split::Split, Dataset, Observation, Testbed, TestbedConfig};
use rand::{seq::SliceRandom, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn fixture() -> (Dataset, Split, TrainedPitot) {
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();
    let split = Split::stratified(&dataset, 0.6, 0);
    let mut cfg = PitotConfig::tiny();
    cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
    cfg.steps = 300;
    let trained = train(&dataset, &split, &cfg);
    (dataset, split, trained)
}

fn serve_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::at(0.1);
    cfg.window = 128;
    cfg.selection = HeadSelection::NaiveXi;
    cfg.fine_tune_steps = 0;
    cfg
}

fn fleet_cfg(replicas: usize, merge_every: usize) -> FleetConfig {
    FleetConfig {
        serve: serve_cfg(),
        replicas,
        merge_every,
        admission: AdmissionConfig::default(),
        compression: Vec::new(),
    }
}

fn stream(_dataset: &Dataset, split: &Split, n: usize, seed: u64) -> Vec<usize> {
    let mut idx = split.test.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    while idx.len() < n {
        idx.extend_from_within(0..idx.len().min(n - idx.len()));
    }
    idx.truncate(n);
    idx
}

/// Streams observations into `fleet`, judging coverage on the accepted
/// (non-quarantined, non-lost) subset.
fn drive(fleet: &mut FleetServer, dataset: &Dataset, idx: &[usize]) -> (usize, usize) {
    let (mut covered, mut judged) = (0usize, 0usize);
    for (t, &i) in idx.iter().enumerate() {
        let (_, fb) = fleet.observe(t as f64, dataset.observations[i].clone());
        if let Some(fb) = fb {
            judged += 1;
            covered += usize::from(fb.covered);
        }
    }
    (covered, judged)
}

#[test]
fn guarded_server_is_bitwise_pinned_to_the_clean_subset_oracle() {
    // The guarded server fed a poisoned stream must hold exactly the
    // calibration state of the same server fed only the observations the
    // guard accepted: quarantine must be a pure filter, bitwise.
    let (dataset, split, trained) = fixture();
    let mut cfg = serve_cfg();
    cfg.ingest_guard = true;
    let mut guarded = PitotServer::new(trained.clone(), dataset.clone(), cfg.clone());
    guarded.seed_calibration(&split.val);

    let idx = stream(&dataset, &split, 200, 31);
    let mut accepted: Vec<Observation> = Vec::new();
    for (t, &i) in idx.iter().enumerate() {
        let mut obs = dataset.observations[i].clone();
        // A deterministic sprinkle of corruption: NaN, −∞ spirit (negative
        // duration), and heavy scale outliers.
        match t % 11 {
            0 => obs.runtime_s = f32::NAN,
            5 => obs.runtime_s = -obs.runtime_s,
            8 => obs.runtime_s *= (14.0f32).exp(),
            _ => {}
        }
        let resp = guarded.on_event(t as f64, Event::Observe(obs.clone()));
        if resp.quarantined.is_none() {
            accepted.push(obs);
        } else {
            assert!(resp.observed.is_none(), "quarantined AND judged");
        }
    }
    let stats = guarded.guard_stats();
    assert!(stats.is_consistent());
    assert!(stats.nonfinite_runtimes > 0, "NaN injections never landed");
    assert!(stats.nonpositive_runtimes > 0);
    assert!(stats.mad_outliers > 0, "scale outliers passed the screen");
    // Zero silent drops: every stream position is either judged or audited.
    assert_eq!(accepted.len() + stats.quarantined, idx.len());
    assert_eq!(guarded.stats().bounded, accepted.len());
    assert_eq!(
        guarded.quarantine_records().count(),
        stats.quarantined.min(ServeConfig::QUARANTINE_RETAIN)
    );

    // Oracle: the same config replayed over the accepted subset only.
    let mut oracle = PitotServer::new(trained, dataset.clone(), cfg);
    oracle.seed_calibration(&split.val);
    for (t, obs) in accepted.into_iter().enumerate() {
        let resp = oracle.on_event(t as f64, Event::Observe(obs));
        assert!(resp.quarantined.is_none(), "oracle re-quarantined");
    }
    assert_eq!(
        guarded.window_summary(0),
        oracle.window_summary(0),
        "guarded window diverged from the clean-subset oracle"
    );
}

#[test]
fn fleet_quarantines_injected_corruption_with_full_accounting() {
    let (dataset, split, trained) = fixture();
    let plan = FaultPlan::none(22)
        .corrupt_observations(0.05)
        .outlier_bursts(0.03, 10.0, 3);
    let mut cfg = fleet_cfg(3, 16);
    cfg.serve.ingest_guard = true;
    cfg.serve.guard_mad_k = 6.0;
    let mut fleet = FleetServer::with_faults(trained, &dataset, cfg, plan);
    fleet.seed_calibration(&split.val);
    let idx = stream(&dataset, &split, 400, 32);
    let (covered, judged) = drive(&mut fleet, &dataset, &idx);

    let s = fleet.stats();
    assert!(s.injected_corrupt > 0, "corruption draws never fired");
    assert!(s.injected_outliers > 0, "outlier draws never fired");
    assert!(s.guard.is_consistent());
    // Every corrupted runtime landed in a runtime-level quarantine cause
    // (no crashes in this plan, so nothing was lost in transit).
    assert_eq!(
        s.guard.nonfinite_runtimes + s.guard.nonpositive_runtimes,
        s.injected_corrupt
    );
    assert!(s.guard.mad_outliers > 0, "no outlier was screened");
    // Zero silent drops, fleet-wide: delivered = judged + quarantined at
    // ingest (watchdog purges re-audit entries that were already judged).
    let ingest_quarantined =
        s.guard.nonfinite_runtimes + s.guard.nonpositive_runtimes + s.guard.mad_outliers;
    assert_eq!(s.observations, s.bounded + ingest_quarantined);
    assert_eq!(s.bounded, judged);
    // The guarded fleet's coverage on accepted telemetry holds.
    let cov = covered as f32 / judged as f32;
    assert!(cov >= 0.85, "guarded coverage {cov} collapsed under poison");
}

#[test]
fn byzantine_replica_never_shifts_the_fleet_calibration() {
    // The tampering replica's summaries are all rejected by the integrity
    // screen, so the installed fleet calibration must be bitwise identical
    // to the muted-oracle twin's — the Byzantine replica degrades only
    // itself.
    let (dataset, split, trained) = fixture();
    let idx = stream(&dataset, &split, 300, 33);
    let run = |plan: FaultPlan| {
        let mut fleet = FleetServer::with_faults(trained.clone(), &dataset, fleet_cfg(3, 16), plan);
        fleet.seed_calibration(&split.val);
        drive(&mut fleet, &dataset, &idx);
        fleet
    };
    let tampered = run(FaultPlan::none(21).byzantine_replica(1, 50));
    let muted = run(FaultPlan::none(21).mute_replica(1, 50));

    let (a, b) = (
        tampered
            .fleet_conformal()
            .expect("tampered fleet calibrated"),
        muted.fleet_conformal().expect("muted fleet calibrated"),
    );
    assert_eq!(a.pool_calibrations(), b.pool_calibrations());
    for pool in 0..4 {
        assert_eq!(
            a.calibration_for(pool),
            b.calibration_for(pool),
            "Byzantine replica shifted the fleet calibration (pool {pool})"
        );
    }
    let st = tampered.stats();
    assert!(st.byzantine_emissions > 0, "the Byzantine never emitted");
    assert!(
        st.rejected_summaries > 0,
        "no tampered summary was rejected"
    );
    assert!(
        tampered.rejected_audit().iter().all(|r| r.replica == 1),
        "a rejection named an honest replica"
    );
    // Every tamper mode in the cycle lands in a structural cause.
    assert!(tampered
        .rejected_audit()
        .iter()
        .any(|r| r.cause == RejectCause::BadChecksum));
    // The muted twin consumed identical draws but emitted nothing.
    assert!(muted.stats().byzantine_emissions > 0);
    assert_eq!(muted.stats().rejected_summaries, 0);
}

#[test]
fn replayed_and_skewed_summaries_are_rejected_and_audited() {
    let (dataset, split, trained) = fixture();
    let plan = FaultPlan::none(23).replay_summaries(0.4).skew_clocks(0.3);
    let mut fleet = FleetServer::with_faults(trained, &dataset, fleet_cfg(3, 8), plan);
    fleet.seed_calibration(&split.val);
    let idx = stream(&dataset, &split, 300, 34);
    let (covered, judged) = drive(&mut fleet, &dataset, &idx);

    let s = fleet.stats();
    assert!(s.injected_replays > 0, "replay draws never fired");
    assert!(s.injected_skews > 0, "skew draws never fired");
    assert!(s.rejected_summaries > 0);
    let causes: Vec<RejectCause> = fleet.rejected_audit().iter().map(|r| r.cause).collect();
    assert!(causes.contains(&RejectCause::Replayed), "{causes:?}");
    assert!(causes.contains(&RejectCause::SkewedClock), "{causes:?}");
    // Honest rounds still land between injections: the fleet keeps a
    // calibration and coverage holds.
    assert!(fleet.fleet_conformal().is_some());
    let cov = covered as f32 / judged as f32;
    assert!(cov >= 0.85, "coverage {cov} under replay/skew injection");
}

#[test]
fn miscoverage_watchdog_rolls_back_poison_the_screen_missed() {
    // Operating point where the MAD screen is still warming up
    // (guard_min_n above the window capacity), so moderate poison sails
    // through ingest — the watchdog is the only line of defense.
    let (dataset, split, trained) = fixture();
    let mut cfg = serve_cfg();
    cfg.ingest_guard = true;
    cfg.guard_min_n = 10_000;
    cfg.guard_mad_k = 3.0;
    cfg.watchdog_z = 1.0;
    cfg.watchdog_min = 32;
    let mut server = PitotServer::new(trained, dataset.clone(), cfg);
    server.seed_calibration(&split.val);
    assert_eq!(server.window_len(), 128);

    let idx = stream(&dataset, &split, 80, 35);
    let mut fired_at = None;
    for (t, &i) in idx.iter().enumerate() {
        let mut obs = dataset.observations[i].clone();
        obs.runtime_s *= (5.0f32).exp(); // ~150x: wrong, but finite and positive
        server.on_event(t as f64, Event::Observe(obs));
        if !server.watchdog_incidents().is_empty() {
            fired_at = Some(t);
            break;
        }
    }
    assert!(
        fired_at.is_some(),
        "watchdog never fired on sustained poison"
    );
    let incident = server.watchdog_incidents()[0];
    assert!(
        incident.purged >= 16,
        "rollback purged only {}",
        incident.purged
    );
    assert_eq!(incident.kept + incident.purged, 128);
    assert_eq!(server.window_len(), incident.kept);
    assert!(incident.coverage < 0.85, "fired at healthy coverage");
    let g = server.guard_stats();
    assert!(g.is_consistent());
    assert_eq!(g.watchdog_fires, 1);
    assert_eq!(g.watchdog_purged, incident.purged);
    assert!(server
        .quarantine_records()
        .any(|r| r.cause == QuarantineCause::WatchdogRollback));
    // The rollback advanced the window clock past the poisoned snapshots.
    assert!(server.window_clock() > 128 + fired_at.unwrap() as u64);
}

#[test]
fn audit_records_round_trip_through_serde() {
    let record = QuarantineRecord {
        at: 42,
        cause: QuarantineCause::NonFiniteRuntime,
        runtime_bits: f32::NAN.to_bits(),
        score: None,
    };
    let json = serde_json::to_string(&record).expect("serialize record");
    let back: QuarantineRecord = serde_json::from_str(&json).expect("deserialize record");
    assert_eq!(record, back);
    assert!(back.runtime_s().is_nan(), "NaN lost in the bits round-trip");

    let stats = GuardStats {
        quarantined: 7,
        nonfinite_runtimes: 2,
        nonpositive_runtimes: 1,
        mad_outliers: 3,
        watchdog_purged: 1,
        watchdog_fires: 1,
    };
    let json = serde_json::to_string(&stats).expect("serialize stats");
    let back: GuardStats = serde_json::from_str(&json).expect("deserialize stats");
    assert_eq!(stats, back);
    assert!(back.is_consistent());

    let incident = WatchdogIncident {
        at: 9,
        coverage: 0.55,
        purged: 31,
        kept: 97,
    };
    let json = serde_json::to_string(&incident).expect("serialize incident");
    let back: WatchdogIncident = serde_json::from_str(&json).expect("deserialize incident");
    assert_eq!(incident, back);

    for cause in [
        RejectCause::BadChecksum,
        RejectCause::NonFiniteScore,
        RejectCause::UnsortedRun,
        RejectCause::CardinalityLie,
        RejectCause::Replayed,
        RejectCause::SkewedClock,
    ] {
        let rejected = RejectedSummary {
            replica: 3,
            at_obs: 1234,
            cause,
        };
        let json = serde_json::to_string(&rejected).expect("serialize rejection");
        let back: RejectedSummary = serde_json::from_str(&json).expect("deserialize rejection");
        assert_eq!(rejected, back);
    }
}
