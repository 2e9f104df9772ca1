//! Multi-replica serving: sharded replicas, one fleet calibration.
//!
//! The deployment the paper sketches is a *fleet* of edge sites feeding one
//! conformal predictor. A single [`crate::PitotServer`] cannot be that
//! predictor — each site sees only its own completions — but the merge
//! protocol of [`pitot_conformal::MergeableWindow`] makes the fleet view
//! cheap: every replica keeps its local sliding window, the coordinator
//! merges window *summaries* (sorted-run segments, no raw observations) on
//! a cadence, fits one fleet-level [`pitot_conformal::PooledConformal`] on
//! the union — bitwise identical to what a centralized server holding all
//! the windows would fit — and installs it back into every replica. Validity
//! rests on the same exchangeability-of-splits argument that justifies the
//! moving calibration set in the first place: the union of per-replica
//! windows is just another split of the fleet's recent history.
//!
//! On top of the merged calibration sits SLO-aware admission
//! ([`crate::AdmissionQueue`]): queries carry deadlines and are admitted or
//! shed by the conformal bound's upper edge — the first place the intervals
//! drive a control decision instead of being reported.
//!
//! Everything stays deterministic: sharding is a pure hash, merges happen on
//! a fixed observation cadence, and one event sequence yields one output
//! sequence regardless of replica count (each replica's stream is disjoint).
//!
//! # Failure domains and degraded mode
//!
//! [`FleetServer::with_faults`] installs a [`FaultPlan`] — a seeded,
//! schedule-based fault injector keyed to the fleet-wide observation
//! counter (no wall-clock anywhere). Under faults the fleet degrades along
//! a ladder instead of failing:
//!
//! 1. **Fleet calibration** (healthy): coordinator merges on cadence.
//! 2. **Gossip calibration** (coordinator outage): live replicas pair up
//!    (seeded shuffle), exchange CRDT window summaries, and each refits
//!    from its own gossip view — converging toward the coordinator's union
//!    fit (see the `gossip` property suite in `pitot-conformal`).
//! 3. **Stale-local fallback** (outage with gossip disabled, or a replica
//!    cut off long enough): at the first merge tick after a replica's
//!    served calibration grows more than
//!    [`crate::ServeConfig::staleness_threshold`] pushes old, the control
//!    core installs a fallback fit on that replica's own window at the
//!    widened miscoverage `ε ×`
//!    [`crate::ServeConfig::STALE_EPSILON_FACTOR`] — honestly wider
//!    bounds, tagged [`Prediction::degraded`] all the way into the
//!    admission audit.
//!
//! Every rung is an install the control core makes at a merge barrier;
//! a replica's miscoverage-watchdog rollback scrubs its window and leaves
//! the refit to the next one.
//!
//! Crashed replicas lose their shard's observations (counted, audited) and
//! their queries fail over to the next live replica; on rejoin they replay
//! the coordinator's held window summary
//! ([`pitot_conformal::MergeableWindow::replica_entries`]) and restart
//! *warm*. Dropped merge summaries are retried with bounded seeded
//! backoff; delayed ones are absorbed late (the CRDT clock makes stale
//! deliveries harmless). Every fault window opens a [`DegradedWindow`]
//! audit attributing coverage/SLO loss to the fault that caused it.
//!
//! # Trust boundary: fail-noisy telemetry
//!
//! The same [`FaultPlan`] can also corrupt the *data* instead of the
//! links: observations arrive with NaN/Inf/negative runtimes or
//! scale-outlier bursts, and summaries arrive tampered (a Byzantine
//! replica), replayed, or clock-skewed. The fleet treats every replica
//! summary and every observation as **untrusted until screened**:
//!
//! - Observations pass each replica's ingest screen, which quarantines —
//!   never silently drops — corrupt runtimes and, under the ingest guard
//!   ([`crate::ServeConfig::ingest_guard`]), MAD-outlier scores into an
//!   audited side buffer ([`crate::GuardStats`]).
//! - Summaries are verified **before** being absorbed, on every path
//!   (coordinator round, delayed delivery, retry, gossip join):
//!   per-segment checksums and structural sanity via
//!   [`pitot_conformal::MergeableWindow::verify`], plus receiver-side
//!   screens: a coordinator-bound summary must hold only its sender's run,
//!   and clocks must be plausible (no replays, no skews). Each refusal is
//!   counted and recorded as a [`RejectedSummary`] naming the offending
//!   replica, so a Byzantine replica degrades only itself: the installed
//!   fleet calibration stays bitwise-pinned to what a clean-replica-only
//!   fleet would fit.

use crate::admission::AdmissionDecision;
use crate::config::FleetConfig;
use crate::control::FleetControl;
use crate::fault::{DegradedWindow, FaultPlan, RejectedSummary};
use crate::guard::GuardStats;
use crate::server::{Event, ObservedFeedback, PitotServer, Prediction};
use pitot::TrainedPitot;
use pitot_conformal::PooledConformal;
use pitot_testbed::{Dataset, Observation};

/// A placement question with an SLO attached: "will `workload` on
/// `platform` next to `interferers` finish within `deadline_s` seconds?"
#[derive(Debug, Clone)]
pub struct DeadlineQuery {
    /// Caller-chosen correlation id (must be unique among unresolved
    /// queries; echoed on the outcome and used by
    /// [`FleetServer::resolve`]).
    pub id: u64,
    /// Workload catalog index.
    pub workload: u32,
    /// Platform catalog index.
    pub platform: u32,
    /// Workloads co-resident on the platform.
    pub interferers: Vec<u32>,
    /// Relative deadline budget in seconds.
    pub deadline_s: f64,
}

/// What the fleet decided for one deadline query.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionOutcome {
    /// The query's correlation id.
    pub id: u64,
    /// Replica that answered the query.
    pub replica: usize,
    /// Admit or shed (with the reason).
    pub decision: AdmissionDecision,
    /// The prediction the decision was made on; `prediction.bound_s` is the
    /// conformal upper edge compared against the deadline.
    pub prediction: Prediction,
    /// Whether the query's home shard replica was down and the answer came
    /// from a failover replica instead (same fleet calibration, different
    /// server). Always `false` without an installed [`FaultPlan`].
    pub failover: bool,
}

/// Aggregated fleet counters: per-replica serving stats summed, plus the
/// coordinator's own merge and admission records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStats {
    /// Observations consumed across all replicas.
    pub observations: usize,
    /// Queries answered across all replicas.
    pub queries: usize,
    /// Prequentially covered observations (served bound ≥ realized).
    pub covered: usize,
    /// Observations judged prequentially.
    pub bounded: usize,
    /// Coordinator merge rounds that actually refit and reinstalled the
    /// fleet calibration.
    pub merges: usize,
    /// Coordinator rounds skipped because no replica window had advanced
    /// since the last merge (the fleet calibration clock stood still, so
    /// reinstalling identical clones everywhere would be pure waste).
    pub skipped_installs: usize,
    /// Pairwise gossip rounds run while the coordinator was unreachable.
    pub gossip_rounds: usize,
    /// Observations lost because their shard's replica was down.
    pub lost_observations: usize,
    /// Deadline queries answered by a failover replica (home shard down).
    pub failover_queries: usize,
    /// Merge summaries dropped by the fault plan (initial sends and failed
    /// retries both count).
    pub dropped_summaries: usize,
    /// Merge summaries delayed by the fault plan (absorbed late).
    pub delayed_summaries: usize,
    /// Dropped summaries later delivered by a successful retry.
    pub retried_summaries: usize,
    /// Dropped summaries abandoned after [`FaultPlan::MAX_RETRIES`] failed
    /// retries (the next scheduled merge round picks the replica up again).
    pub merge_giveups: usize,
    /// Crashed replicas that rejoined warm (window replayed from the
    /// coordinator's held summary).
    pub recoveries: usize,
    /// Observations judged under a stale-local fallback calibration,
    /// summed across replicas.
    pub degraded_bounded: usize,
    /// Degraded-judged observations the widened fallback covered.
    pub degraded_covered: usize,
    /// Stale-mode fallback refits performed across replicas.
    pub fallback_refits: usize,
    /// Observations whose runtime the fault plan corrupted into a NaN,
    /// infinity, or negative value before delivery.
    pub injected_corrupt: usize,
    /// Observations the fault plan scaled into outliers (every member of a
    /// burst counts).
    pub injected_outliers: usize,
    /// Stale duplicate summaries the fault plan re-sent in place of fresh
    /// ones.
    pub injected_replays: usize,
    /// Summaries the fault plan emitted with an implausibly skewed clock.
    pub injected_skews: usize,
    /// Summary emissions the Byzantine replica tampered with (or, in mute
    /// mode, withheld while consuming identical RNG draws).
    pub byzantine_emissions: usize,
    /// Summaries refused by the integrity screen across all absorb paths
    /// (see [`FleetServer::rejected_audit`] for the per-rejection records).
    pub rejected_summaries: usize,
    /// Ingest-guard quarantine counters summed across replicas (crashed
    /// instances' counters included) — the observation-level half of the
    /// zero-silent-drops ledger.
    pub guard: GuardStats,
    /// Admission decision counters.
    pub admission: crate::admission::AdmissionStats,
}

impl FleetStats {
    /// Fleet-wide prequential coverage (`NaN` before any observation).
    pub fn coverage(&self) -> f32 {
        if self.bounded == 0 {
            f32::NAN
        } else {
            self.covered as f32 / self.bounded as f32
        }
    }
}

/// The sharded serving layer: N replica [`PitotServer`]s on disjoint event
/// streams, one merged fleet calibration, and SLO-aware admission (see the
/// module docs). Every control decision runs in the fleet control core this
/// executor shares with [`crate::ConcurrentFleet`]; the replicas live in one
/// vector and apply each event in place.
pub struct FleetServer {
    replicas: Vec<PitotServer>,
    core: FleetControl,
}

impl std::fmt::Debug for FleetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetServer")
            .field("replicas", &self.replicas.len())
            .field("control", &self.core)
            .finish()
    }
}

impl FleetServer {
    /// Builds a fleet of `cfg.replicas` servers sharing one trained model,
    /// one copy of the dataset, and one tower cache per distinct compression
    /// level. Each replica's local refresh cadence is overridden to "never":
    /// the coordinator owns every calibration refresh, so replicas serve
    /// exactly the fleet-level bounds between merges.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`FleetConfig::validate`]).
    pub fn new(trained: TrainedPitot, dataset: &Dataset, cfg: FleetConfig) -> Self {
        cfg.validate();
        let core = FleetControl::new(cfg, trained, dataset);
        let replicas = (0..core.config().replicas)
            .map(|r| core.replica_server(r))
            .collect();
        Self { replicas, core }
    }

    /// Maximum rejected-summary audit records retained (the
    /// [`FleetStats::rejected_summaries`] counter is never truncated).
    pub const REJECT_RETAIN: usize = 1024;

    /// This fresh fleet with replicas that keep every head: the all-heads
    /// oracle a kept-heads fleet is pinned to.
    #[cfg(test)]
    pub(crate) fn keeping_all_heads(mut self) -> Self {
        self.core.keep_all_heads();
        self.replicas = (0..self.replicas.len())
            .map(|r| self.core.replica_server(r))
            .collect();
        self
    }

    /// [`FleetServer::new`] with a deterministic fault schedule installed
    /// (see the module docs for the degradation ladder the fleet walks
    /// under it). A crashed replica is rebuilt over the fleet's shared
    /// model state and rejoins warm.
    ///
    /// # Panics
    ///
    /// Panics if the fleet configuration or the fault plan is inconsistent
    /// (see [`FaultPlan::validate`]; crash targets are checked against
    /// `cfg.replicas`).
    pub fn with_faults(
        trained: TrainedPitot,
        dataset: &Dataset,
        cfg: FleetConfig,
        plan: FaultPlan,
    ) -> Self {
        plan.validate(cfg.replicas);
        let mut fleet = Self::new(trained, dataset, cfg);
        fleet.core.install_faults(plan);
        fleet
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The replica a `(workload, platform)` pair is sharded to: a pure
    /// deterministic hash, so one entity's events always land on the same
    /// replica (disjoint streams by construction).
    pub fn shard_for(&self, workload: u32, platform: u32) -> usize {
        self.core.shard_for(workload, platform)
    }

    /// Seeds every replica's calibration window from disjoint round-robin
    /// shards of `idx` (e.g. the trained split's validation half), then
    /// runs an immediate merge so the fleet starts on a fleet-level
    /// calibration.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty or contains an out-of-range index.
    pub fn seed_calibration(&mut self, idx: &[usize]) {
        for (replica, set) in self.replicas.iter_mut().zip(self.core.seed_sets(idx)) {
            if !set.is_empty() {
                replica.seed_calibration(&set);
            }
        }
        self.core.merge_now(&mut self.replicas);
    }

    /// Routes one observation to its shard at simulated time `at_s` (must
    /// be monotone non-decreasing per replica). Returns the shard index and
    /// the replica's prequential feedback — `None` when the shard's
    /// replica is down under the installed fault plan (the observation is
    /// lost; counted in [`FleetStats::lost_observations`]). Every
    /// [`FleetConfig::merge_every`]-th observation triggers a coordinator
    /// merge + fleet-wide install (or a gossip round during an outage).
    pub fn observe(&mut self, at_s: f64, obs: Observation) -> (usize, Option<ObservedFeedback>) {
        let replica = self.shard_for(obs.workload, obs.platform);
        let feedback = self
            .core
            .route_observation(&mut self.replicas, replica, obs)
            .and_then(|(obs, audit)| {
                let resp = self.replicas[replica].on_event(at_s, Event::Observe(obs));
                if resp.quarantined.is_some() {
                    // Audited in the replica's guard counters — never
                    // judged, so no prequential feedback.
                    return None;
                }
                let fb = resp
                    .observed
                    .expect("accepted observation events produce feedback");
                self.core.credit(audit, &fb);
                Some(fb)
            });
        self.core.after_observation(&mut self.replicas);
        (replica, feedback)
    }

    /// Answers one deadline query and decides admission by the conformal
    /// upper edge: admit iff `bound_s ≤ deadline_s` and the backlog has
    /// room. The decision is recorded; report the realized runtime via
    /// [`FleetServer::resolve`] to score it.
    ///
    /// # Panics
    ///
    /// Panics if `q.id` is already pending, or on an out-of-catalog
    /// workload/platform/interferer.
    pub fn deadline_query(&mut self, q: DeadlineQuery) -> AdmissionOutcome {
        let replicas = &mut self.replicas;
        self.core.deadline_query(&q, |r| {
            replicas[r].query_now(q.workload, q.platform, &q.interferers)
        })
    }

    /// Reports the realized runtime of a decided query, scoring its
    /// admission decision (SLO met/missed for admitted queries,
    /// would-have-met/missed audit for shed ones). Returns whether the
    /// query had been admitted, or `None` for an unknown id.
    pub fn resolve(&mut self, id: u64, realized_s: f64) -> Option<bool> {
        self.core.resolve(id, realized_s)
    }

    /// Runs a merge round now. With the coordinator reachable this is a
    /// coordinator round: absorb every live replica's window summary into
    /// the converged fleet view (subject to the fault plan's drop/delay
    /// draws), fit the fleet calibration on the union, and install it into
    /// every live replica — unless **no** window advanced since the last
    /// round, in which case the refit and the installs are skipped
    /// entirely (the fleet calibration clock stood still; counted in
    /// [`FleetStats::skipped_installs`]). During a coordinator outage the
    /// round degrades to pairwise gossip (see the module docs) when the
    /// plan enables it, or does nothing beyond resetting the cadence.
    pub fn merge_now(&mut self) {
        self.core.merge_now(&mut self.replicas);
    }

    /// The currently installed fleet-level calibration (absent until the
    /// first merge finds a non-empty window).
    pub fn fleet_conformal(&self) -> Option<&PooledConformal> {
        self.core.fleet_conformal()
    }

    /// One replica's server (e.g. for its local stats or window).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn replica(&self, replica: usize) -> &PitotServer {
        &self.replicas[replica]
    }

    /// The degraded-window audit log: one entry per fault window the fleet
    /// has entered (crash or coordinator outage), attributing lost
    /// observations, coverage, degraded decisions, sheds, and SLO misses
    /// to it. Empty without an installed fault plan. An entry with
    /// `until_obs = None` is still open.
    pub fn degraded_audit(&self) -> &[DegradedWindow] {
        self.core.degraded_audit()
    }

    /// Aggregated counters across replicas plus coordinator-side records.
    pub fn stats(&self) -> FleetStats {
        self.core.stats(&self.replicas)
    }

    /// The bounded rejected-summary audit ring, oldest first: one record
    /// per summary the integrity screen refused, naming the offending
    /// replica (see [`FleetStats::rejected_summaries`] for the untruncated
    /// count). Empty while every sender is honest.
    pub fn rejected_audit(&self) -> &[RejectedSummary] {
        self.core.rejected_audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::AdmissionConfig;
    use pitot::{train, Objective, PitotConfig};
    use pitot_conformal::HeadSelection;
    use pitot_testbed::{split::Split, Testbed, TestbedConfig};
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

    fn fleet_cfg(replicas: usize, merge_every: usize) -> FleetConfig {
        let mut serve = ServeConfig::at(0.1);
        serve.window = 128;
        serve.selection = HeadSelection::NaiveXi;
        FleetConfig {
            serve,
            replicas,
            merge_every,
            admission: AdmissionConfig::default(),
            compression: Vec::new(),
        }
    }

    #[test]
    fn fleet_matches_centralized_calibration_bitwise() {
        // A 3-replica fleet and a 1-replica "fleet" (same total window
        // budget) fed the same stream must install the identical
        // calibration whenever their union windows coincide — here the
        // windows are large enough that nothing evicts, so after a merge
        // at the same point the union is literally the same set.
        let (dataset, split, trained) = fixture();
        let mut fleet = FleetServer::new(trained.clone(), &dataset, fleet_cfg(3, usize::MAX));
        let mut single = FleetServer::new(trained, &dataset, fleet_cfg(1, usize::MAX));

        let mut idx = split.test.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        idx.shuffle(&mut rng);
        idx.truncate(100);
        for (t, &i) in idx.iter().enumerate() {
            let obs = dataset.observations[i].clone();
            fleet.observe(t as f64, obs.clone());
            single.observe(t as f64, obs);
        }
        fleet.merge_now();
        single.merge_now();
        let (a, b) = (
            fleet.fleet_conformal().expect("fleet calibrated"),
            single.fleet_conformal().expect("single calibrated"),
        );
        assert_eq!(a.pool_calibrations(), b.pool_calibrations());
        for pool in 0..4 {
            assert_eq!(a.calibration_for(pool), b.calibration_for(pool));
        }
    }

    #[test]
    fn shards_are_disjoint_and_stable() {
        let (dataset, split, trained) = fixture();
        let fleet = FleetServer::new(trained, &dataset, fleet_cfg(4, 32));
        for &i in split.test.iter().take(200) {
            let o = &dataset.observations[i];
            let r = fleet.shard_for(o.workload, o.platform);
            assert!(r < 4);
            assert_eq!(r, fleet.shard_for(o.workload, o.platform));
        }
    }

    #[test]
    fn admission_sheds_infeasible_deadlines_and_scores_them() {
        let (dataset, split, trained) = fixture();
        let mut fleet = FleetServer::new(trained, &dataset, fleet_cfg(2, 64));
        fleet.seed_calibration(&split.val);

        let mut admitted = 0usize;
        let mut shed = 0usize;
        for (j, &i) in split.test.iter().take(120).enumerate() {
            let o = &dataset.observations[i];
            // Alternate generous and impossible budgets.
            let deadline = if j % 2 == 0 {
                f64::from(o.runtime_s) * 50.0
            } else {
                f64::from(o.runtime_s) * 1e-4
            };
            let out = fleet.deadline_query(DeadlineQuery {
                id: j as u64,
                workload: o.workload,
                platform: o.platform,
                interferers: o.interferers.clone(),
                deadline_s: deadline,
            });
            if out.decision.admitted() {
                admitted += 1;
            } else {
                shed += 1;
            }
            assert_eq!(
                fleet.resolve(j as u64, f64::from(o.runtime_s)),
                Some(out.decision.admitted())
            );
        }
        assert!(admitted > 0, "generous deadlines should admit");
        assert!(shed > 0, "impossible deadlines should shed");
        let stats = fleet.stats();
        assert_eq!(stats.admission.decisions(), 120);
        // Every impossible deadline was a correct shed; generous ones that
        // were admitted should overwhelmingly attain.
        assert!(stats.admission.shed_would_have_missed > 0);
        assert!(
            stats.admission.attainment() > 0.9,
            "attainment {} too low for 50x budgets",
            stats.admission.attainment()
        );
    }

    #[test]
    fn replicas_share_one_model_across_a_rejoin() {
        // Every replica borrows the fleet's one model and dataset: the
        // compressed replica, and its instance rebuilt at the rejoin, too.
        let (dataset, split, trained) = fixture();
        let mut cfg = fleet_cfg(3, 16);
        cfg.compression = vec![pitot::CompressionSpec::none(); 3];
        cfg.compression[1] = pitot::CompressionSpec::pruned_int8(0.5);
        let plan = FaultPlan::none(5).crash(1, 10, 40);
        let mut fleet = FleetServer::with_faults(trained, &dataset, cfg, plan);
        fleet.seed_calibration(&split.val);
        let (model, data) = (fleet.replica(0).trained(), fleet.replica(0).dataset());
        let (model, data) = (model as *const TrainedPitot, data as *const Dataset);
        let shared = |fleet: &FleetServer| {
            (0..fleet.n_replicas()).all(|r| {
                let replica = fleet.replica(r);
                std::ptr::eq(replica.trained(), model) && std::ptr::eq(replica.dataset(), data)
            })
        };
        assert!(shared(&fleet), "replicas hold their own copies");
        for (t, &i) in split.test.iter().take(60).enumerate() {
            fleet.observe(t as f64, dataset.observations[i].clone());
        }
        assert_eq!(fleet.stats().recoveries, 1, "replica 1 rejoined");
        assert!(shared(&fleet), "the rejoin rebuilt replica 1 with copies");
    }

    #[test]
    fn merge_cadence_counts_rounds() {
        let (dataset, split, trained) = fixture();
        let mut fleet = FleetServer::new(trained, &dataset, fleet_cfg(2, 10));
        for (t, &i) in split.test.iter().take(35).enumerate() {
            fleet.observe(t as f64, dataset.observations[i].clone());
        }
        // 35 observations at cadence 10 → 3 merge rounds.
        assert_eq!(fleet.stats().merges, 3);
        assert!(fleet.fleet_conformal().is_some());
        assert_eq!(fleet.stats().observations, 35);
        assert_eq!(
            fleet.stats().coverage(),
            fleet.stats().covered as f32 / 35.0
        );
    }
}
