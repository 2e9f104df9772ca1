//! Fault-injection behaviour of the fleet: crash/rejoin warm recovery,
//! gossip fallback during coordinator outages, staleness-triggered local
//! fallback with degraded admission audit, lossy-merge retry/delay
//! handling, the skip-install optimisation, and bitwise determinism of
//! chaos runs.

use pitot::{train, Objective, PitotConfig, TrainedPitot};
use pitot_conformal::HeadSelection;
use pitot_serve::{
    AdmissionConfig, DeadlineQuery, DegradedCause, FaultPlan, FleetConfig, FleetServer, ServeConfig,
};
use pitot_testbed::{split::Split, Dataset, Testbed, TestbedConfig};
use rand::{seq::SliceRandom, Rng, SeedableRng};
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

fn fleet_cfg(replicas: usize, merge_every: usize) -> FleetConfig {
    let mut serve = ServeConfig::at(0.1);
    serve.window = 128;
    serve.selection = HeadSelection::NaiveXi;
    serve.fine_tune_steps = 0;
    FleetConfig {
        serve,
        replicas,
        merge_every,
        admission: AdmissionConfig::default(),
        compression: Vec::new(),
    }
}

fn stream(dataset: &Dataset, split: &Split, n: usize, seed: u64) -> Vec<usize> {
    let mut idx = split.test.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    while idx.len() < n {
        idx.extend_from_within(0..idx.len().min(n - idx.len()));
    }
    idx.truncate(n);
    assert!(idx.iter().all(|&i| i < dataset.observations.len()));
    idx
}

/// FNV-1a over every admission decision and served bound — the digest CI
/// diffs across `PITOT_THREADS`.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Drives `fleet` over `idx`: every event issues a deadline query (decided
/// prequentially), resolves it, then streams the observation back in.
/// Returns `(decision digest, per-event coverage flags)`.
fn drive(
    fleet: &mut FleetServer,
    dataset: &Dataset,
    idx: &[usize],
    seed: u64,
) -> (u64, Vec<Option<bool>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut digest = Digest::new();
    let mut covered = Vec::with_capacity(idx.len());
    for (t, &i) in idx.iter().enumerate() {
        let obs = dataset.observations[i].clone();
        let mult = rng.gen_range(0.75f64..3.0);
        let deadline_s = f64::from(obs.runtime_s) * mult;
        let out = fleet.deadline_query(DeadlineQuery {
            id: t as u64,
            workload: obs.workload,
            platform: obs.platform,
            interferers: obs.interferers.clone(),
            deadline_s,
        });
        digest.push(&[u8::from(out.decision.admitted()), u8::from(out.failover)]);
        digest.push(&out.prediction.bound_s.to_bits().to_le_bytes());
        fleet.resolve(t as u64, f64::from(obs.runtime_s));
        let (_, fb) = fleet.observe(t as f64, obs);
        digest.push(&[fb.as_ref().map_or(2, |f| u8::from(f.covered))]);
        covered.push(fb.map(|f| f.covered));
    }
    (digest.0, covered)
}

fn coverage(flags: &[Option<bool>]) -> f32 {
    let judged: Vec<bool> = flags.iter().filter_map(|&c| c).collect();
    judged.iter().filter(|&&c| c).count() as f32 / judged.len().max(1) as f32
}

#[test]
fn crash_rejoin_recovers_warm_and_audits_the_window() {
    let (dataset, split, trained) = fixture();
    let plan = FaultPlan::none(11).crash(1, 120, 260);
    let mut fleet = FleetServer::with_faults(trained, &dataset, fleet_cfg(3, 16), plan);
    fleet.seed_calibration(&split.val);
    let idx = stream(&dataset, &split, 420, 5);
    let (_, flags) = drive(&mut fleet, &dataset, &idx, 41);

    let stats = fleet.stats();
    assert!(stats.lost_observations > 0, "the down shard lost nothing?");
    assert_eq!(stats.recoveries, 1, "exactly one warm rejoin");
    assert!(
        stats.failover_queries > 0,
        "home-shard queries never failed over"
    );
    // Warm rejoin: the rebuilt replica serves from a replayed window, not
    // an empty one.
    assert!(
        fleet.replica(1).window_len() > 0,
        "rejoined replica came back cold"
    );
    // The audit log attributes the crash window and closes it at rejoin.
    let crash = fleet
        .degraded_audit()
        .iter()
        .find(|w| w.cause == DegradedCause::ReplicaCrash { replica: 1 })
        .expect("crash window audited");
    assert_eq!(crash.until_obs, Some(260), "closed at the rejoin tick");
    assert!(crash.lost_observations > 0);
    assert_eq!(crash.lost_observations + crash.bounded, 260 - 120);
    // Losing one shard of three must not collapse overall coverage.
    assert!(
        coverage(&flags) >= 0.80,
        "coverage {} under a single-replica crash",
        coverage(&flags)
    );
}

#[test]
fn coordinator_outage_degrades_to_gossip_and_recovers() {
    let (dataset, split, trained) = fixture();
    let plan = FaultPlan::none(12).coordinator_outage(100, 240);
    let mut fleet = FleetServer::with_faults(trained, &dataset, fleet_cfg(3, 16), plan);
    fleet.seed_calibration(&split.val);
    let idx = stream(&dataset, &split, 400, 6);
    drive(&mut fleet, &dataset, &idx, 42);

    let stats = fleet.stats();
    assert!(stats.gossip_rounds > 0, "no gossip during the outage");
    assert!(stats.merges > 1, "coordinator rounds never resumed");
    let outage = fleet
        .degraded_audit()
        .iter()
        .find(|w| w.cause == DegradedCause::CoordinatorOutage)
        .expect("outage window audited");
    let until = outage
        .until_obs
        .expect("outage audit closed after clearance");
    assert!(until >= 240, "closed before the outage cleared");
    assert!(outage.bounded > 0, "nothing judged inside the outage");
    // Gossip keeps calibrations near the union fit: coverage inside the
    // outage stays bounded away from collapse.
    assert!(
        outage.coverage() >= 0.80,
        "outage-window coverage {} under gossip",
        outage.coverage()
    );
}

#[test]
fn stale_fallback_widens_and_tags_degraded_admissions() {
    let (dataset, split, trained) = fixture();
    // No gossip: during the outage replicas can only go stale, cross the
    // staleness threshold, and fall back to widened local calibrations.
    let mut plan = FaultPlan::none(13).coordinator_outage(80, 320);
    plan.gossip_during_outage = false;
    let mut cfg = fleet_cfg(3, 16);
    cfg.serve.staleness_threshold = cfg.serve.drift_min; // 64, the floor
    let mut fleet = FleetServer::with_faults(trained, &dataset, cfg, plan);
    fleet.seed_calibration(&split.val);
    let idx = stream(&dataset, &split, 420, 7);
    drive(&mut fleet, &dataset, &idx, 43);

    let stats = fleet.stats();
    assert_eq!(stats.gossip_rounds, 0);
    assert!(stats.fallback_refits > 0, "stale fallback never refit");
    assert!(stats.degraded_bounded > 0, "no observation judged degraded");
    // Satellite: admission decisions under stale/local-fallback
    // calibration carry their own counters, and they are strict subsets.
    let a = &stats.admission;
    assert!(
        a.degraded_admitted + a.degraded_shed > 0,
        "no admission decision was tagged degraded during a {}-obs outage",
        320 - 80
    );
    assert!(a.degraded_admitted <= a.admitted);
    assert!(a.degraded_shed <= a.shed());
    assert!(a.degraded_slo_met <= a.slo_met && a.degraded_slo_met <= a.degraded_admitted);
    assert!(a.degraded_slo_missed <= a.slo_missed && a.degraded_slo_missed <= a.degraded_admitted);
    // The widened fallback is *more* conservative: degraded-judged
    // coverage must not collapse below the nominal target.
    let degraded_cov = stats.degraded_covered as f32 / stats.degraded_bounded as f32;
    assert!(
        degraded_cov >= 0.85,
        "widened fallback covered only {degraded_cov}"
    );
    // The audit attributes degraded decisions to the outage window.
    let outage = fleet
        .degraded_audit()
        .iter()
        .find(|w| w.cause == DegradedCause::CoordinatorOutage)
        .expect("outage audited");
    assert!(outage.degraded_decisions > 0);
}

#[test]
fn lossy_merges_retry_with_backoff_and_still_converge() {
    let (dataset, split, trained) = fixture();
    let plan = FaultPlan::none(14)
        .drop_summaries(0.3)
        .delay_summaries(0.2, 2);
    let mut fleet = FleetServer::with_faults(trained.clone(), &dataset, fleet_cfg(3, 16), plan);
    fleet.seed_calibration(&split.val);
    let idx = stream(&dataset, &split, 400, 8);
    let (_, flags) = drive(&mut fleet, &dataset, &idx, 44);

    let stats = fleet.stats();
    assert!(stats.dropped_summaries > 0, "drop draws never fired");
    assert!(stats.delayed_summaries > 0, "delay draws never fired");
    assert!(
        stats.retried_summaries > 0,
        "no dropped summary was ever retried successfully"
    );
    assert!(fleet.fleet_conformal().is_some());
    assert!(
        coverage(&flags) >= 0.80,
        "coverage {} under lossy merges",
        coverage(&flags)
    );
}

#[test]
fn coordinator_skips_installs_when_no_window_advanced() {
    // Satellite fix: a merge round in which no replica window moved must
    // not refit and clone the fleet calibration into every replica.
    let (dataset, split, trained) = fixture();
    let mut fleet = FleetServer::new(trained, &dataset, fleet_cfg(3, usize::MAX));
    fleet.seed_calibration(&split.val); // runs one real merge
    let stats = fleet.stats();
    assert_eq!(stats.merges, 1);
    assert_eq!(stats.skipped_installs, 0);
    fleet.merge_now(); // nothing advanced since the seed merge
    fleet.merge_now();
    let stats = fleet.stats();
    assert_eq!(stats.merges, 1, "idle merges must not refit");
    assert_eq!(stats.skipped_installs, 2, "idle merges must be counted");
    // An observation advances a window; the next merge is real again.
    let obs = dataset.observations[split.test[0]].clone();
    fleet.observe(0.0, obs);
    fleet.merge_now();
    assert_eq!(fleet.stats().merges, 2);
}

#[test]
fn chaos_runs_are_bitwise_deterministic_for_a_fixed_seed() {
    let (dataset, split, trained) = fixture();
    let plan = || {
        FaultPlan::none(0xC4A0_5EED)
            .crash(2, 90, 200)
            .coordinator_outage(150, 280)
            .drop_summaries(0.25)
            .delay_summaries(0.15, 2)
    };
    let idx = stream(&dataset, &split, 380, 9);
    let run = || {
        let mut fleet =
            FleetServer::with_faults(trained.clone(), &dataset, fleet_cfg(3, 16), plan());
        fleet.seed_calibration(&split.val);
        let (digest, _) = drive(&mut fleet, &dataset, &idx, 45);
        (digest, fleet.stats())
    };
    let (d1, s1) = run();
    let (d2, s2) = run();
    assert_eq!(d1, d2, "decision digests diverged for the same fault seed");
    assert_eq!(s1.dropped_summaries, s2.dropped_summaries);
    assert_eq!(s1.delayed_summaries, s2.delayed_summaries);
    assert_eq!(s1.gossip_rounds, s2.gossip_rounds);
    assert_eq!(s1.covered, s2.covered);
    assert_eq!(s1.admission.admitted, s2.admission.admitted);
}

#[test]
fn trivial_plan_matches_faultless_fleet_bitwise() {
    // FaultPlan::none must be a true identity: same decisions, same
    // calibrations, same stats as a fleet constructed without faults.
    let (dataset, split, trained) = fixture();
    let idx = stream(&dataset, &split, 250, 10);
    let mut plain = FleetServer::new(trained.clone(), &dataset, fleet_cfg(3, 16));
    plain.seed_calibration(&split.val);
    let (dp, _) = drive(&mut plain, &dataset, &idx, 46);
    let mut faulted =
        FleetServer::with_faults(trained, &dataset, fleet_cfg(3, 16), FaultPlan::none(999));
    faulted.seed_calibration(&split.val);
    let (df, _) = drive(&mut faulted, &dataset, &idx, 46);
    assert_eq!(dp, df, "a trivial fault plan perturbed the decisions");
    let (sp, sf) = (plain.stats(), faulted.stats());
    assert_eq!(sp.covered, sf.covered);
    assert_eq!(sp.merges, sf.merges);
    assert_eq!(sp.lost_observations, 0);
    assert_eq!(sf.lost_observations, 0);
    assert!(faulted.degraded_audit().is_empty());
}
