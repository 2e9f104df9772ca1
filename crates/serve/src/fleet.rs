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
//!    cut off long enough): once the installed calibration's staleness
//!    exceeds [`crate::ServeConfig::staleness_threshold`], a replica serves
//!    from its own window at the widened miscoverage
//!    `ε × stale_epsilon_factor` — honestly wider bounds, tagged
//!    [`Prediction::degraded`] all the way into the admission audit.
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
//! - Observations pass each replica's ingest guard
//!   ([`crate::ServeConfig::ingest_guard`]), which quarantines — never
//!   silently drops — corrupt runtimes and MAD-outlier scores into an
//!   audited side buffer ([`crate::GuardStats`]).
//! - Summaries are verified **before** being absorbed, on every path
//!   (coordinator round, delayed delivery, retry, gossip join):
//!   per-segment checksums and structural sanity via
//!   [`pitot_conformal::MergeableWindow::verify`], plus receiver-side
//!   clock-plausibility screens for replays and skews. Each refusal is
//!   counted and recorded as a [`RejectedSummary`] naming the offending
//!   replica, so a Byzantine replica degrades only itself: the installed
//!   fleet calibration stays bitwise-pinned to what a clean-replica-only
//!   fleet would fit.

use crate::admission::{AdmissionDecision, AdmissionQueue};
use crate::config::{FleetConfig, ServeConfig};
use crate::fault::{DegradedCause, DegradedWindow, FaultPlan, RejectCause, RejectedSummary};
use crate::guard::GuardStats;
use crate::server::{ObservedFeedback, PitotServer, Prediction};
use pitot::TrainedPitot;
use pitot_conformal::{MergeableWindow, PooledConformal, PredictionSet, TamperMode};
use pitot_testbed::{Dataset, Observation};
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The clock jump a skew-injected summary carries — far beyond any honest
/// clock at the scales the harnesses run, so the receiver's plausibility
/// screen (see [`FleetServer::skew_threshold`]) separates it cleanly.
const SKEW_JUMP: u64 = 1 << 20;

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
    /// Dropped summaries abandoned after
    /// [`FaultPlan::max_retries`] failed retries (the next scheduled merge
    /// round picks the replica up again).
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

/// A dropped summary's retry bookkeeping: how many retries have failed and
/// when the next one becomes eligible (fleet-wide observation count, with
/// exponential backoff plus seeded jitter).
#[derive(Debug, Clone, Copy)]
struct RetryState {
    attempts: u32,
    next_at: usize,
}

/// A delayed summary in flight: absorbed once the coordinator's round
/// counter reaches `due_round`.
#[derive(Debug)]
struct DelayedSummary {
    due_round: usize,
    replica: u64,
    summary: MergeableWindow,
}

/// Everything needed to rebuild a crashed replica from scratch.
struct FleetTemplate {
    trained: TrainedPitot,
    dataset: Dataset,
    serve_cfg: ServeConfig,
}

/// Live state of an installed [`FaultPlan`]: which replicas are down, what
/// is mid-retry or mid-delay, per-replica gossip views, and the degraded
/// window audit log. All mutation happens in the fleet's single-threaded
/// control path, so every RNG draw has a fixed order — determinism across
/// `PITOT_THREADS` is preserved by construction.
struct FaultRuntime {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    /// A second, independently seeded stream for the *data* faults
    /// (corrupt runtimes, outlier bursts, replay/skew draws, tamper
    /// salts), so enabling telemetry noise never perturbs the control
    /// faults' drop/delay/gossip draws — and so a Byzantine replica's
    /// muted oracle twin can consume bitwise-identical draws.
    data_rng: ChaCha8Rng,
    /// Remaining length of the outlier burst in flight (0 = none).
    outlier_left: usize,
    /// Byzantine summary emissions so far (cycles the tamper mode).
    byz_emissions: usize,
    /// Per replica: the last cleanly emitted summary, held so a replay
    /// injection has a genuine stale duplicate to re-send.
    prev_summary: Vec<Option<MergeableWindow>>,
    injected_corrupt: usize,
    injected_outliers: usize,
    injected_replays: usize,
    injected_skews: usize,
    down: Vec<bool>,
    /// Per `plan.crashes` entry: whether the crash / rejoin has fired.
    crash_done: Vec<bool>,
    rejoin_done: Vec<bool>,
    /// Per `plan.crashes` entry: index of its open audit window.
    crash_audit: Vec<Option<usize>>,
    /// Per replica: pending retry of a dropped summary.
    retry: Vec<Option<RetryState>>,
    delayed: Vec<DelayedSummary>,
    /// Per replica: its gossip-converged view of the fleet (used only
    /// during coordinator outages).
    gossip: Vec<MergeableWindow>,
    audits: Vec<DegradedWindow>,
    /// Index of the currently open coordinator-outage audit, if any.
    outage_open: Option<usize>,
    /// Coordinator merge rounds seen (successful or skipped) — the clock
    /// delayed summaries are due against.
    round: usize,
    gossip_rounds: usize,
    lost_observations: usize,
    failover_queries: usize,
    dropped_summaries: usize,
    delayed_summaries: usize,
    retried_summaries: usize,
    merge_giveups: usize,
    recoveries: usize,
}

impl FaultRuntime {
    fn new(plan: FaultPlan, replicas: usize, n_heads: usize) -> Self {
        let n_crashes = plan.crashes.len();
        Self {
            rng: ChaCha8Rng::seed_from_u64(plan.seed ^ 0xFA_07_1C_A5),
            data_rng: ChaCha8Rng::seed_from_u64(plan.seed ^ 0xDA_7A_BA_D5),
            outlier_left: 0,
            byz_emissions: 0,
            prev_summary: vec![None; replicas],
            injected_corrupt: 0,
            injected_outliers: 0,
            injected_replays: 0,
            injected_skews: 0,
            down: vec![false; replicas],
            crash_done: vec![false; n_crashes],
            rejoin_done: vec![false; n_crashes],
            crash_audit: vec![None; n_crashes],
            retry: vec![None; replicas],
            delayed: Vec::new(),
            gossip: (0..replicas)
                .map(|_| MergeableWindow::empty(n_heads))
                .collect(),
            audits: Vec::new(),
            outage_open: None,
            round: 0,
            gossip_rounds: 0,
            lost_observations: 0,
            failover_queries: 0,
            dropped_summaries: 0,
            delayed_summaries: 0,
            retried_summaries: 0,
            merge_giveups: 0,
            recoveries: 0,
            plan,
        }
    }

    /// The most recently opened still-open degraded window (attribution
    /// target when several overlap).
    fn open_audit(&mut self) -> Option<&mut DegradedWindow> {
        self.audits.iter_mut().rev().find(|a| a.until_obs.is_none())
    }
}

/// The sharded serving layer: N replica [`PitotServer`]s on disjoint event
/// streams, one merged fleet calibration, and SLO-aware admission (see the
/// module docs).
pub struct FleetServer {
    cfg: FleetConfig,
    replicas: Vec<PitotServer>,
    /// The coordinator's converged view of every replica window.
    merged: MergeableWindow,
    fleet_conformal: Option<PooledConformal>,
    admission: AdmissionQueue,
    xis: Vec<f32>,
    since_merge: usize,
    merges: usize,
    skipped_installs: usize,
    /// Fleet-wide observations consumed (the fault schedule's clock).
    obs_seen: usize,
    /// Present iff a fault plan is installed (crash recovery needs to
    /// rebuild replicas from scratch).
    template: Option<Box<FleetTemplate>>,
    faults: Option<FaultRuntime>,
    /// Counters inherited from replaced (crashed) replica instances, so
    /// fleet totals survive a rejoin. Only the per-replica-summed fields
    /// are ever nonzero here.
    retired: FleetStats,
    /// Guard counters inherited from replaced (crashed) replica instances.
    retired_guard: GuardStats,
    /// Bounded audit ring of refused summaries, oldest first.
    rejected: Vec<RejectedSummary>,
    /// Total refusals ever (never truncated, unlike the ring).
    rejected_total: usize,
}

impl std::fmt::Debug for FleetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetServer")
            .field("replicas", &self.replicas.len())
            .field("merges", &self.merges)
            .field("has_fleet_conformal", &self.fleet_conformal.is_some())
            .field("admission", self.admission.stats())
            .finish_non_exhaustive()
    }
}

impl FleetServer {
    /// Builds a fleet of `cfg.replicas` servers around clones of one
    /// trained model and dataset. Each replica's local refresh cadence is
    /// overridden to "never": the coordinator owns every calibration
    /// refresh, so replicas serve exactly the fleet-level bounds between
    /// merges.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`FleetConfig::validate`]).
    pub fn new(trained: TrainedPitot, dataset: &Dataset, cfg: FleetConfig) -> Self {
        cfg.validate();
        let mut serve_cfg = cfg.serve.clone();
        // The coordinator owns refresh: local refits must never overwrite
        // an installed fleet calibration between merges.
        serve_cfg.refresh_every = usize::MAX;
        let xis = trained.model.config().objective.xis();
        // Per-replica compression: each replica serves (and calibrates)
        // through its own compressed tower cache; `cfg.compression` is the
        // single source of truth (the serve-level field is overridden).
        let replicas: Vec<PitotServer> = (0..cfg.replicas)
            .map(|r| {
                let mut rc = serve_cfg.clone();
                rc.compression = cfg.replica_compression(r);
                PitotServer::new(trained.clone(), dataset.clone(), rc)
            })
            .collect();
        let n_heads = trained.model.n_heads();
        let admission = AdmissionQueue::new(cfg.admission.clone());
        Self {
            cfg,
            replicas,
            merged: MergeableWindow::empty(n_heads),
            fleet_conformal: None,
            admission,
            xis,
            since_merge: 0,
            merges: 0,
            skipped_installs: 0,
            obs_seen: 0,
            template: None,
            faults: None,
            retired: FleetStats::default(),
            retired_guard: GuardStats::default(),
            rejected: Vec::new(),
            rejected_total: 0,
        }
    }

    /// Maximum rejected-summary audit records retained (the
    /// [`FleetStats::rejected_summaries`] counter is never truncated).
    pub const REJECT_RETAIN: usize = 1024;

    /// [`FleetServer::new`] with a deterministic fault schedule installed
    /// (see the module docs for the degradation ladder the fleet walks
    /// under it). Keeps a template of the trained model + dataset so
    /// crashed replicas can be rebuilt and rejoined warm.
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
        let mut fleet = Self::new(trained.clone(), dataset, cfg);
        let mut serve_cfg = fleet.cfg.serve.clone();
        serve_cfg.refresh_every = usize::MAX;
        let n_heads = trained.model.n_heads();
        fleet.template = Some(Box::new(FleetTemplate {
            trained,
            dataset: dataset.clone(),
            serve_cfg,
        }));
        fleet.faults = Some(FaultRuntime::new(plan, fleet.replicas.len(), n_heads));
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
        // Fibonacci hashing over the packed pair; any fixed mixing works,
        // it only has to be deterministic and reasonably balanced.
        let key = (u64::from(workload) << 32) | u64::from(platform);
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 33) % self.replicas.len() as u64) as usize
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
        assert!(!idx.is_empty(), "cannot seed from an empty index set");
        let n = self.replicas.len();
        let mut shards: Vec<Vec<usize>> = vec![Vec::with_capacity(idx.len().div_ceil(n)); n];
        for (i, &v) in idx.iter().enumerate() {
            shards[i % n].push(v);
        }
        for (replica, shard) in self.replicas.iter_mut().zip(&shards) {
            if !shard.is_empty() {
                replica.seed_calibration(shard);
            }
        }
        self.merge_now();
    }

    /// Routes one observation to its shard at simulated time `at_s` (must
    /// be monotone non-decreasing per replica). Returns the shard index and
    /// the replica's prequential feedback — `None` when the shard's
    /// replica is down under the installed fault plan (the observation is
    /// lost; counted in [`FleetStats::lost_observations`]). Every
    /// [`FleetConfig::merge_every`]-th observation triggers a coordinator
    /// merge + fleet-wide install (or a gossip round during an outage).
    pub fn observe(&mut self, at_s: f64, obs: Observation) -> (usize, Option<ObservedFeedback>) {
        let r = self.shard_for(obs.workload, obs.platform);
        (r, self.observe_at(r, at_s, obs))
    }

    /// [`FleetServer::observe`] with an explicit replica — for callers that
    /// partition streams themselves (per-site deployments where the shard
    /// is the site).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range, or as
    /// [`PitotServer::on_event`] panics.
    pub fn observe_at(
        &mut self,
        replica: usize,
        at_s: f64,
        obs: Observation,
    ) -> Option<ObservedFeedback> {
        self.tick();
        let obs = self.inject_data_faults(obs);
        if self.faults.as_ref().is_some_and(|f| f.down[replica]) {
            let f = self.faults.as_mut().expect("just checked");
            f.lost_observations += 1;
            if let Some(a) = f.open_audit() {
                a.lost_observations += 1;
            }
            self.after_observation();
            return None;
        }
        let resp = self.replicas[replica].on_event(at_s, crate::server::Event::Observe(obs));
        if resp.quarantined.is_some() {
            // Audited in the replica's guard counters — never judged, so
            // no prequential feedback.
            self.after_observation();
            return None;
        }
        let fb = resp
            .observed
            .expect("accepted observation events produce feedback");
        if let Some(f) = &mut self.faults {
            if let Some(a) = f.open_audit() {
                a.bounded += 1;
                if fb.covered {
                    a.covered += 1;
                }
            }
        }
        self.after_observation();
        Some(fb)
    }

    /// The fault plan's telemetry-corruption layer: with the data-fault
    /// knobs live, an observation's runtime may arrive as NaN/Inf/negative
    /// or scaled into an outlier burst. Draws come from the dedicated data
    /// RNG and are consumed even when the target replica is down, so the
    /// corruption stream is a fixed function of the schedule position.
    fn inject_data_faults(&mut self, mut obs: Observation) -> Observation {
        let Some(f) = &mut self.faults else {
            return obs;
        };
        if f.plan.corrupt_prob <= 0.0 && f.plan.outlier_prob <= 0.0 {
            return obs;
        }
        if f.outlier_left > 0 {
            f.outlier_left -= 1;
            obs.runtime_s *= f.plan.outlier_log_scale.exp();
            f.injected_outliers += 1;
            return obs;
        }
        let u: f32 = f.data_rng.gen_range(0.0f32..1.0);
        if u < f.plan.corrupt_prob {
            obs.runtime_s = match f.data_rng.gen_range(0u32..3) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                _ => -obs.runtime_s,
            };
            f.injected_corrupt += 1;
        } else if u < f.plan.corrupt_prob + f.plan.outlier_prob {
            f.outlier_left = f.data_rng.gen_range(1..=f.plan.outlier_burst_max) - 1;
            obs.runtime_s *= f.plan.outlier_log_scale.exp();
            f.injected_outliers += 1;
        }
        obs
    }

    /// Per-observation control-path work after the event itself: process
    /// due merge retries, then run the cadence merge.
    fn after_observation(&mut self) {
        self.process_due_retries();
        self.since_merge += 1;
        if self.since_merge >= self.cfg.merge_every {
            self.merge_now();
        }
    }

    /// Advances the fleet-wide observation clock and applies every fault
    /// transition due at it: outage audit opening, crashes (replica
    /// replaced by a tombstone of `down = true`; its gossip view and retry
    /// state cleared), and rejoins (replica rebuilt from the template,
    /// window replayed warm from the coordinator's held summary, current
    /// fleet calibration installed).
    fn tick(&mut self) {
        self.obs_seen += 1;
        let obs = self.obs_seen;
        let mut faults = match self.faults.take() {
            Some(f) => f,
            None => return,
        };
        if faults.plan.coordinator_down_at(obs) && faults.outage_open.is_none() {
            faults.outage_open = Some(faults.audits.len());
            faults.audits.push(DegradedWindow {
                cause: DegradedCause::CoordinatorOutage,
                from_obs: obs,
                until_obs: None,
                bounded: 0,
                covered: 0,
                lost_observations: 0,
                degraded_decisions: 0,
                shed: 0,
                slo_missed: 0,
            });
        }
        for k in 0..faults.plan.crashes.len() {
            let c = faults.plan.crashes[k];
            if !faults.crash_done[k] && obs >= c.at && obs < c.rejoin_at {
                faults.crash_done[k] = true;
                faults.down[c.replica] = true;
                faults.retry[c.replica] = None;
                faults.gossip[c.replica] = MergeableWindow::empty(self.merged.n_heads());
                faults.crash_audit[k] = Some(faults.audits.len());
                faults.audits.push(DegradedWindow {
                    cause: DegradedCause::ReplicaCrash { replica: c.replica },
                    from_obs: obs,
                    until_obs: None,
                    bounded: 0,
                    covered: 0,
                    lost_observations: 0,
                    degraded_decisions: 0,
                    shed: 0,
                    slo_missed: 0,
                });
            }
            if !faults.rejoin_done[k] && obs >= c.rejoin_at && faults.crash_done[k] {
                faults.rejoin_done[k] = true;
                faults.down[c.replica] = false;
                self.rejoin_replica(c.replica);
                if let Some(a) = faults.crash_audit[k].take() {
                    faults.audits[a].until_obs = Some(obs);
                }
                faults.recoveries += 1;
            }
        }
        self.faults = Some(faults);
    }

    /// Rebuilds a crashed replica from the template and rejoins it warm:
    /// replay the coordinator's held window summary (score-identical to
    /// the pre-crash window), then install the current fleet calibration.
    fn rejoin_replica(&mut self, r: usize) {
        // The crashed instance's counters survive into the fleet totals.
        let rs = self.replicas[r].stats();
        self.retired.observations += rs.observations;
        self.retired.queries += rs.queries;
        self.retired.covered += rs.covered;
        self.retired.bounded += rs.bounded;
        self.retired.degraded_bounded += rs.degraded_bounded;
        self.retired.degraded_covered += rs.degraded_covered;
        self.retired.fallback_refits += rs.fallback_refits;
        self.retired_guard = self.retired_guard.merged(&self.replicas[r].guard_stats());
        let t = self
            .template
            .as_ref()
            .expect("fault plans are installed with a template");
        // The rebuilt replica keeps its per-replica compression level: a
        // compressed replica rejoins compressed (its restored window scores
        // came from the compressed model).
        let mut serve_cfg = t.serve_cfg.clone();
        serve_cfg.compression = self.cfg.replica_compression(r);
        let mut server = PitotServer::new(t.trained.clone(), t.dataset.clone(), serve_cfg);
        if let Some((clock, entries)) = self.merged.replica_entries(r as u64) {
            server.restore_window(entries, clock);
        }
        if let Some(c) = &self.fleet_conformal {
            server.install_calibration(c.clone());
        }
        self.replicas[r] = server;
    }

    /// Answers one deadline query and decides admission by the conformal
    /// upper edge: admit iff `bound_s + slack ≤ deadline_s` and the backlog
    /// has room. The decision is recorded; report the realized runtime via
    /// [`FleetServer::resolve`] to score it.
    ///
    /// # Panics
    ///
    /// Panics if `q.id` is already pending, or on an out-of-catalog
    /// workload/platform/interferer.
    pub fn deadline_query(&mut self, q: DeadlineQuery) -> AdmissionOutcome {
        let home = self.shard_for(q.workload, q.platform);
        let mut replica = home;
        let mut failover = false;
        if let Some(f) = &self.faults {
            if f.down[home] {
                let n = self.replicas.len();
                replica = (1..n)
                    .map(|d| (home + d) % n)
                    .find(|&r| !f.down[r])
                    .expect("deadline_query: every replica in the fleet is down");
                failover = true;
            }
        }
        let prediction = self.replicas[replica].query_now(q.workload, q.platform, &q.interferers);
        let decision = self.admission.decide_tagged(
            q.id,
            f64::from(prediction.bound_s),
            q.deadline_s,
            prediction.degraded,
        );
        if let Some(f) = &mut self.faults {
            if failover {
                f.failover_queries += 1;
            }
            if let Some(a) = f.open_audit() {
                if prediction.degraded {
                    a.degraded_decisions += 1;
                }
                if !decision.admitted() {
                    a.shed += 1;
                }
            }
        }
        AdmissionOutcome {
            id: q.id,
            replica,
            decision,
            prediction,
            failover,
        }
    }

    /// Reports the realized runtime of a decided query, scoring its
    /// admission decision (SLO met/missed for admitted queries,
    /// would-have-met/missed audit for shed ones). Returns whether the
    /// query had been admitted, or `None` for an unknown id.
    pub fn resolve(&mut self, id: u64, realized_s: f64) -> Option<bool> {
        let missed_before = self.admission.stats().slo_missed;
        let res = self.admission.resolve(id, realized_s);
        if self.admission.stats().slo_missed > missed_before {
            if let Some(f) = &mut self.faults {
                if let Some(a) = f.open_audit() {
                    a.slo_missed += 1;
                }
            }
        }
        res
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
        self.since_merge = 0;
        if self.coordinator_down() {
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.plan.gossip_during_outage)
            {
                self.gossip_round();
            }
            return;
        }
        self.coordinator_round();
    }

    fn coordinator_down(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.plan.coordinator_down_at(self.obs_seen))
    }

    /// Materializes replica `r`'s window summary through the fault plan's
    /// tampering layer. `None` means the replica stays silent this round
    /// (a Byzantine replica in mute-oracle mode). Every RNG draw the
    /// tampering path makes is also made on the mute path, so a tampering
    /// fleet and its muted twin stay draw-aligned.
    fn emit_summary(
        server: &PitotServer,
        f: &mut FaultRuntime,
        r: usize,
        obs_seen: usize,
    ) -> Option<MergeableWindow> {
        let mut summary = server.window_summary(r as u64);
        if let Some(b) = f.plan.byzantine {
            if b.replica == r && obs_seen >= b.from {
                let salt = f.data_rng.gen_range(0u64..=u64::MAX);
                let mode = match f.byz_emissions % 4 {
                    0 => TamperMode::Checksum,
                    1 => TamperMode::Cardinality,
                    2 => TamperMode::NonFinite,
                    _ => TamperMode::Unsorted,
                };
                f.byz_emissions += 1;
                if b.mute {
                    return None;
                }
                summary.corrupt_run(r as u64, mode, salt);
                return Some(summary);
            }
        }
        if f.plan.replay_prob > 0.0 || f.plan.skew_prob > 0.0 {
            let u: f32 = f.data_rng.gen_range(0.0f32..1.0);
            if u < f.plan.replay_prob {
                if let Some(prev) = &f.prev_summary[r] {
                    f.injected_replays += 1;
                    return Some(prev.clone());
                }
            } else if u < f.plan.replay_prob + f.plan.skew_prob {
                f.injected_skews += 1;
                summary.skew_run_clock(r as u64, SKEW_JUMP);
                return Some(summary);
            }
        }
        f.prev_summary[r] = Some(summary.clone());
        Some(summary)
    }

    /// The largest clock an honest replica could plausibly have reached:
    /// the window clock advances once per push (at most one per fleet
    /// observation) plus once per wholesale rebuild (rescore or watchdog
    /// rollback, each gated on observations), on top of up to
    /// window-capacity seeded entries. Anything beyond is a skewed clock.
    fn skew_threshold(&self) -> u64 {
        (2 * self.obs_seen + self.cfg.serve.window + 1024) as u64
    }

    /// Records one refused summary in the counter and the bounded ring.
    fn reject(&mut self, replica: usize, cause: RejectCause) {
        self.rejected_total += 1;
        if self.rejected.len() >= Self::REJECT_RETAIN {
            self.rejected.remove(0);
        }
        self.rejected.push(RejectedSummary {
            replica,
            at_obs: self.obs_seen,
            cause,
        });
    }

    /// Screens an incoming summary from replica `r` and absorbs it into
    /// the coordinator's merged view only if it passes: structural
    /// verification (checksums, cardinality, sortedness, finiteness) on
    /// every path, plus clock-plausibility screens — a skew screen always,
    /// and a freshness screen on direct sends (`delayed = false`; delayed
    /// deliveries are legitimately stale, the CRDT clock makes them
    /// harmless). Returns whether the merged view changed; refusals are
    /// counted and audited, never silent.
    fn try_absorb(&mut self, r: u64, summary: &MergeableWindow, delayed: bool) -> bool {
        if let Err(e) = summary.verify() {
            self.reject(e.replica as usize, RejectCause::from_fault(e.fault));
            return false;
        }
        let held = self.merged.replica_clock(r);
        if let Some(c) = summary.replica_clock(r) {
            if c > self.skew_threshold() {
                self.reject(r as usize, RejectCause::SkewedClock);
                return false;
            }
            if !delayed && held.is_some_and(|h| c <= h) {
                self.reject(r as usize, RejectCause::Replayed);
                return false;
            }
        }
        self.merged.absorb(summary);
        self.merged.replica_clock(r) != held
    }

    /// Fits the fleet calibration on a merged view's union, rank-selected
    /// from the view's verified runs (bitwise the fit on `to_scored()`,
    /// without materialising the union). Fleet head selection never uses a
    /// validation set (FleetConfig rejects TightestOnValidation), so an
    /// empty selection set is fine.
    fn fit_union(&self, merged: &MergeableWindow) -> PooledConformal {
        let empty_preds: Vec<Vec<f32>> = vec![Vec::new(); merged.n_heads()];
        PooledConformal::fit_scored(
            merged,
            &PredictionSet {
                predictions: &empty_preds,
                targets_log: &[],
                pools: &[],
            },
            &self.xis,
            self.cfg.serve.selection,
            self.cfg.serve.epsilon,
        )
    }

    fn coordinator_round(&mut self) {
        let mut changed = false;
        let mut faults = self.faults.take();
        if let Some(f) = &mut faults {
            f.round += 1;
            // Deliver delayed summaries that have come due. The CRDT clock
            // makes a stale delivery harmless: absorb only changes the
            // held run when the delayed snapshot is still the newest.
            let round = f.round;
            let mut still_delayed = Vec::new();
            for d in std::mem::take(&mut f.delayed) {
                if d.due_round > round {
                    still_delayed.push(d);
                    continue;
                }
                changed |= self.try_absorb(d.replica, &d.summary, true);
            }
            f.delayed = still_delayed;
        }
        for r in 0..self.replicas.len() {
            if let Some(f) = &faults {
                if f.down[r] {
                    continue;
                }
            }
            // Skip replicas whose windows have not advanced since the
            // last merge: their held run is already current, and a
            // snapshot would deep-copy the sorted slices for nothing.
            if self.merged.replica_clock(r as u64) == Some(self.replicas[r].window_clock()) {
                continue;
            }
            let summary = if let Some(f) = &mut faults {
                if f.plan.drop_prob > 0.0 || f.plan.delay_prob > 0.0 {
                    let u: f32 = f.rng.gen_range(0.0f32..1.0);
                    if u < f.plan.drop_prob {
                        // Dropped in flight: schedule a bounded retry.
                        f.dropped_summaries += 1;
                        if f.plan.max_retries > 0 && f.retry[r].is_none() {
                            let jitter = f.rng.gen_range(0..f.plan.retry_backoff);
                            f.retry[r] = Some(RetryState {
                                attempts: 0,
                                next_at: self.obs_seen + f.plan.retry_delay(0, jitter),
                            });
                        }
                        continue;
                    }
                    if u < f.plan.drop_prob + f.plan.delay_prob {
                        // Delayed in flight: snapshot now (through the
                        // tampering layer), absorb later.
                        let due = f.round + f.rng.gen_range(1..=f.plan.delay_rounds_max);
                        if let Some(s) = Self::emit_summary(&self.replicas[r], f, r, self.obs_seen)
                        {
                            f.delayed.push(DelayedSummary {
                                due_round: due,
                                replica: r as u64,
                                summary: s,
                            });
                            f.delayed_summaries += 1;
                        }
                        continue;
                    }
                }
                // Summary arrived; any pending retry is obsolete. A `None`
                // emission is a Byzantine mute staying silent this round.
                f.retry[r] = None;
                match Self::emit_summary(&self.replicas[r], f, r, self.obs_seen) {
                    Some(s) => s,
                    None => continue,
                }
            } else {
                self.replicas[r].window_summary(r as u64)
            };
            changed |= self.try_absorb(r as u64, &summary, false);
        }
        self.faults = faults;
        if self.merged.is_empty() {
            return;
        }
        if !changed && self.fleet_conformal.is_some() {
            // Nothing advanced: the refit would reproduce the installed
            // calibration bitwise, and N clone-installs would be waste.
            self.skipped_installs += 1;
            self.close_outage_audit();
            return;
        }
        let conformal = self.fit_union(&self.merged);
        self.install_everywhere(conformal);
        self.merges += 1;
        self.close_outage_audit();
    }

    /// Installs a fleet calibration into every *live* replica (down
    /// replicas receive it at rejoin) and records it as the fleet's.
    fn install_everywhere(&mut self, conformal: PooledConformal) {
        for (r, replica) in self.replicas.iter_mut().enumerate() {
            if self.faults.as_ref().is_some_and(|f| f.down[r]) {
                continue;
            }
            replica.install_calibration(conformal.clone());
        }
        self.fleet_conformal = Some(conformal);
    }

    /// Closes the open coordinator-outage audit window, if its outage has
    /// cleared — called from successful coordinator rounds only, so
    /// "recovery complete" means a post-outage round actually ran.
    fn close_outage_audit(&mut self) {
        let obs = self.obs_seen;
        if let Some(f) = &mut self.faults {
            if !f.plan.coordinator_down_at(obs) {
                if let Some(k) = f.outage_open.take() {
                    f.audits[k].until_obs = Some(obs);
                }
            }
        }
    }

    /// One pairwise gossip round among live replicas: each refreshes its
    /// own run in its gossip view, a seeded shuffle pairs them up, each
    /// pair exchanges states (state-based CRDT join), and every live
    /// replica refits + installs a calibration from its own gossip view at
    /// the nominal ε. Repeated rounds converge every view to the
    /// coordinator's union fit (property-tested in `pitot-conformal`).
    fn gossip_round(&mut self) {
        let mut faults = self.faults.take().expect("gossip runs under faults");
        let live: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| !faults.down[r])
            .collect();
        for &r in &live {
            if faults.gossip[r].replica_clock(r as u64) != Some(self.replicas[r].window_clock()) {
                // Self-refresh goes through the tampering layer too: a
                // Byzantine replica corrupts (only) its own gossip view.
                if let Some(s) =
                    Self::emit_summary(&self.replicas[r], &mut faults, r, self.obs_seen)
                {
                    faults.gossip[r].absorb(&s);
                }
            }
        }
        let mut order = live.clone();
        order.shuffle(&mut faults.rng);
        for pair in order.chunks(2) {
            if let [a, b] = *pair {
                // Verify both sides before the state-based join: a corrupt
                // view (a Byzantine replica's own) is refused by every
                // partner, so the corruption never propagates.
                let mut refused = false;
                for side in [a, b] {
                    if let Err(e) = faults.gossip[side].verify() {
                        self.reject(e.replica as usize, RejectCause::from_fault(e.fault));
                        refused = true;
                    }
                }
                if refused {
                    continue;
                }
                let joined = faults.gossip[a].merge(&faults.gossip[b]);
                faults.gossip[a] = joined.clone();
                faults.gossip[b] = joined;
            }
        }
        faults.gossip_rounds += 1;
        self.faults = Some(faults);
        for &r in &live {
            let f = self.faults.as_ref().expect("just restored");
            if f.gossip[r].is_empty() || f.gossip[r].verify().is_err() {
                // A corrupt own view (already audited at the pairwise
                // join) must not be fitted: the Byzantine replica serves
                // its stale install until staleness triggers the widened
                // local fallback — it degrades only itself.
                continue;
            }
            let conformal = self.fit_union(&f.gossip[r]);
            // An install resets the replica's staleness clock: gossip is
            // the degradation ladder's middle rung, above stale-local
            // fallback.
            self.replicas[r].install_calibration(conformal);
        }
    }

    /// Attempts every due summary retry (dropped sends waiting out their
    /// backoff). A successful retry absorbs the replica's summary and
    /// refreshes the fleet calibration immediately — a partial merge
    /// between scheduled rounds; a failed one backs off exponentially
    /// until [`FaultPlan::max_retries`] is exhausted.
    fn process_due_retries(&mut self) {
        if self.faults.is_none() || self.coordinator_down() {
            return;
        }
        let obs = self.obs_seen;
        let due: Vec<usize> = {
            let f = self.faults.as_ref().expect("checked above");
            (0..self.replicas.len())
                .filter(|&r| f.retry[r].is_some_and(|s| obs >= s.next_at))
                .collect()
        };
        for r in due {
            self.attempt_retry(r);
        }
    }

    fn attempt_retry(&mut self, r: usize) {
        let mut faults = self.faults.take().expect("retry runs under faults");
        if faults.down[r] {
            faults.retry[r] = None;
            self.faults = Some(faults);
            return;
        }
        let u: f32 = faults.rng.gen_range(0.0f32..1.0);
        if u < faults.plan.drop_prob {
            // Retry failed too: back off exponentially (seeded jitter,
            // overflow-saturating — see [`FaultPlan::retry_delay`]) or
            // give up until the next scheduled round.
            faults.dropped_summaries += 1;
            let state = faults.retry[r].as_mut().expect("due retry has state");
            state.attempts += 1;
            if state.attempts >= faults.plan.max_retries {
                faults.retry[r] = None;
                faults.merge_giveups += 1;
            } else {
                let jitter = faults.rng.gen_range(0..faults.plan.retry_backoff);
                state.next_at = self
                    .obs_seen
                    .saturating_add(faults.plan.retry_delay(state.attempts, jitter));
            }
            self.faults = Some(faults);
            return;
        }
        faults.retry[r] = None;
        faults.retried_summaries += 1;
        let mut absorbed = false;
        if self.merged.replica_clock(r as u64) != Some(self.replicas[r].window_clock()) {
            if let Some(summary) =
                Self::emit_summary(&self.replicas[r], &mut faults, r, self.obs_seen)
            {
                absorbed = self.try_absorb(r as u64, &summary, false);
            }
        }
        self.faults = Some(faults);
        if absorbed && !self.merged.is_empty() {
            // A successful retry is a partial merge between rounds:
            // refresh the fleet calibration immediately.
            let conformal = self.fit_union(&self.merged);
            self.install_everywhere(conformal);
        }
    }

    /// The currently installed fleet-level calibration (absent until the
    /// first merge finds a non-empty window).
    pub fn fleet_conformal(&self) -> Option<&PooledConformal> {
        self.fleet_conformal.as_ref()
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
        self.faults.as_ref().map_or(&[], |f| &f.audits)
    }

    /// Aggregated counters across replicas plus coordinator-side records.
    pub fn stats(&self) -> FleetStats {
        let mut s = self.retired;
        s.merges = self.merges;
        s.skipped_installs = self.skipped_installs;
        s.rejected_summaries = self.rejected_total;
        s.admission = *self.admission.stats();
        if let Some(f) = &self.faults {
            s.gossip_rounds = f.gossip_rounds;
            s.lost_observations = f.lost_observations;
            s.failover_queries = f.failover_queries;
            s.dropped_summaries = f.dropped_summaries;
            s.delayed_summaries = f.delayed_summaries;
            s.retried_summaries = f.retried_summaries;
            s.merge_giveups = f.merge_giveups;
            s.recoveries = f.recoveries;
            s.injected_corrupt = f.injected_corrupt;
            s.injected_outliers = f.injected_outliers;
            s.injected_replays = f.injected_replays;
            s.injected_skews = f.injected_skews;
            s.byzantine_emissions = f.byz_emissions;
        }
        s.guard = self.retired_guard;
        for r in &self.replicas {
            let rs = r.stats();
            s.observations += rs.observations;
            s.queries += rs.queries;
            s.covered += rs.covered;
            s.bounded += rs.bounded;
            s.degraded_bounded += rs.degraded_bounded;
            s.degraded_covered += rs.degraded_covered;
            s.fallback_refits += rs.fallback_refits;
            s.guard = s.guard.merged(&r.guard_stats());
        }
        s
    }

    /// The bounded rejected-summary audit ring, oldest first: one record
    /// per summary the integrity screen refused, naming the offending
    /// replica (see [`FleetStats::rejected_summaries`] for the untruncated
    /// count). Empty while every sender is honest.
    pub fn rejected_audit(&self) -> &[RejectedSummary] {
        &self.rejected
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
