//! The fleet control core both executors drive.
//!
//! [`FleetControl`] makes every control decision of a replicated fleet: the
//! fault clock with crashes and warm rejoins, data-fault injection,
//! coordinator, gossip, retry and delay rounds, the stale-local fallback,
//! the summary screens with their reject and degraded-window audits,
//! failover routing, admission and resolve bookkeeping, the fleet fit, and
//! the stats fold. It runs on the caller's thread, so every seeded RNG draw
//! and every calibration install happens in one fixed order. It also owns
//! the fleet's one copy of its immutable model state: the dataset, the
//! trained model, and one tower cache per distinct compression level. Every
//! replica server borrows them, when it is built and when it rejoins, and
//! so does the concurrent runtime's read path.
//!
//! An executor owns only its data plane, and the core reaches replicas
//! through the three operations of [`Replicas`]: borrow replica `r`
//! quiesced, replace it, and install a calibration into it.
//! [`crate::FleetServer`] implements them over a plain vector of servers;
//! [`crate::ConcurrentFleet`] implements them over its lane shards, waiting
//! at `r`'s lane barrier first so every observation already routed to `r`
//! is judged before the core reads or changes it. Every change to a
//! replica's served calibration is such an install: a replica never refits
//! on its own (its refresh cadence is `usize::MAX`, and its watchdog
//! rollback leaves the refit to the next install). Both executors run this
//! one code path, which is why the concurrent runtime is the simulated
//! fleet's bitwise twin for every [`FaultPlan`].

use crate::admission::AdmissionQueue;
use crate::config::{FleetConfig, ServeConfig};
use crate::fault::{DegradedCause, DegradedWindow, FaultPlan, RejectCause, RejectedSummary};
use crate::fleet::{AdmissionOutcome, DeadlineQuery, FleetServer, FleetStats};
use crate::server::{fit_served, ObservedFeedback, PitotServer, Prediction, Served};
use pitot::{TowerCache, TrainedPitot};
use pitot_conformal::{MergeableWindow, PooledConformal, TamperMode};
use pitot_testbed::{Dataset, Observation};
use rand::{seq::SliceRandom, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The clock jump a skew-injected summary carries — far beyond any honest
/// clock at the scales the harnesses run, so the receiver's plausibility
/// screen (see [`FleetControl::skew_threshold`]) separates it cleanly.
const SKEW_JUMP: u64 = 1 << 20;

/// The data plane a [`FleetControl`] drives.
pub(crate) trait Replicas {
    /// Runs `f` on replica `r` once every observation already routed to it
    /// has been judged.
    fn quiesced<T>(&self, r: usize, f: impl FnOnce(&PitotServer) -> T) -> T;

    /// Swaps in a freshly built, uncalibrated server for replica `r` once it
    /// is quiesced, returning the instance it replaced.
    fn replace(&mut self, r: usize, server: PitotServer) -> PitotServer;

    /// Installs `served` as replica `r`'s served calibration once it is
    /// quiesced.
    fn install(&mut self, r: usize, served: Arc<Served>);
}

impl Replicas for Vec<PitotServer> {
    fn quiesced<T>(&self, r: usize, f: impl FnOnce(&PitotServer) -> T) -> T {
        f(&self[r])
    }

    fn replace(&mut self, r: usize, server: PitotServer) -> PitotServer {
        std::mem::replace(&mut self[r], server)
    }

    fn install(&mut self, r: usize, served: Arc<Served>) {
        self[r].install(served);
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
    /// Per replica: the last cleanly emitted summary, held so a replay
    /// injection has a genuine stale duplicate to re-send.
    prev_summary: Vec<Option<MergeableWindow>>,
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
}

impl FaultRuntime {
    fn new(plan: FaultPlan, replicas: usize, n_heads: usize) -> Self {
        let n_crashes = plan.crashes.len();
        Self {
            rng: ChaCha8Rng::seed_from_u64(plan.seed ^ 0xFA_07_1C_A5),
            data_rng: ChaCha8Rng::seed_from_u64(plan.seed ^ 0xDA_7A_BA_D5),
            outlier_left: 0,
            prev_summary: vec![None; replicas],
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
            plan,
        }
    }

    /// Index of the most recently opened still-open degraded window (the
    /// attribution target when several overlap).
    fn open_audit_index(&self) -> Option<usize> {
        self.audits.iter().rposition(|a| a.until_obs.is_none())
    }

    fn open_audit(&mut self) -> Option<&mut DegradedWindow> {
        self.open_audit_index().map(|k| &mut self.audits[k])
    }
}

/// Adds one replica instance's serving and guard counters into `s`.
fn fold_replica(s: &mut FleetStats, server: &PitotServer) {
    let rs = server.stats();
    s.observations += rs.observations;
    s.queries += rs.queries;
    s.covered += rs.covered;
    s.bounded += rs.bounded;
    s.degraded_bounded += rs.degraded_bounded;
    s.degraded_covered += rs.degraded_covered;
    s.guard = s.guard.merged(&server.guard_stats());
}

/// The fleet's control state machine (see the module docs).
pub(crate) struct FleetControl {
    cfg: FleetConfig,
    trained: Arc<TrainedPitot>,
    dataset: Arc<Dataset>,
    /// Per replica: the tower cache of its compression level, one `Arc`
    /// per distinct level.
    towers: Vec<Arc<TowerCache>>,
    /// The coordinator's converged view of every replica window.
    merged: MergeableWindow,
    fleet_conformal: Option<Arc<Served>>,
    admission: AdmissionQueue,
    xis: Vec<f32>,
    since_merge: usize,
    /// Fleet-wide observations consumed (the fault schedule's clock).
    obs_seen: usize,
    faults: Option<FaultRuntime>,
    /// The control path's own counters, plus the serving counters of
    /// replaced (crashed) replica instances so fleet totals survive a
    /// rejoin. Admission and live replicas are folded in by
    /// [`FleetControl::stats`].
    counts: FleetStats,
    /// Bounded audit ring of refused summaries, oldest first (the
    /// untruncated count is `counts.rejected_summaries`).
    rejected: Vec<RejectedSummary>,
}

impl std::fmt::Debug for FleetControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetControl")
            .field("merges", &self.counts.merges)
            .field("has_fleet_conformal", &self.fleet_conformal.is_some())
            .field("admission", self.admission.stats())
            .finish_non_exhaustive()
    }
}

impl FleetControl {
    /// The control state of a fault-free fleet serving `trained` over
    /// `dataset`. Builds the tower cache of each distinct compression level
    /// in [`FleetConfig::compression`] once.
    pub(crate) fn new(cfg: FleetConfig, trained: TrainedPitot, dataset: &Dataset) -> Self {
        let mut towers: Vec<Arc<TowerCache>> = Vec::with_capacity(cfg.replicas);
        for r in 0..cfg.replicas {
            let spec = cfg.replica_compression(r);
            let cache = match (0..r).find(|&q| cfg.replica_compression(q) == spec) {
                Some(q) => Arc::clone(&towers[q]),
                None => Arc::new(trained.compressed_tower_cache(dataset, &spec)),
            };
            towers.push(cache);
        }
        let admission = AdmissionQueue::new(cfg.admission.clone());
        Self {
            merged: MergeableWindow::empty(trained.model.n_heads()),
            fleet_conformal: None,
            admission,
            xis: trained.model.config().objective.xis(),
            trained: Arc::new(trained),
            dataset: Arc::new(dataset.clone()),
            towers,
            since_merge: 0,
            obs_seen: 0,
            faults: None,
            counts: FleetStats::default(),
            rejected: Vec::new(),
            cfg,
        }
    }

    /// Installs a (validated) fault plan.
    pub(crate) fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultRuntime::new(
            plan,
            self.cfg.replicas,
            self.merged.n_heads(),
        ));
    }

    /// A fresh server for replica `r` over the fleet's shared model,
    /// dataset and `r`'s tower cache, so a rebuilt replica keeps its
    /// compression level (its restored window scores came from that
    /// level). Its local refresh cadence is overridden to "never": the core
    /// owns every calibration refresh, so a replica serves exactly what the
    /// core last installed — its watchdog rollback does not refit either.
    pub(crate) fn replica_server(&self, r: usize) -> PitotServer {
        let mut serve_cfg = self.cfg.serve.clone();
        serve_cfg.refresh_every = usize::MAX;
        PitotServer::shared(
            Arc::clone(&self.trained),
            Arc::clone(&self.dataset),
            Arc::clone(&self.towers[r]),
            serve_cfg,
        )
    }

    /// The fleet configuration.
    pub(crate) fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The fleet's trained model.
    pub(crate) fn trained(&self) -> &Arc<TrainedPitot> {
        &self.trained
    }

    /// Per replica: the tower cache it scores with.
    pub(crate) fn towers(&self) -> &[Arc<TowerCache>] {
        &self.towers
    }

    /// The replica a `(workload, platform)` pair is sharded to: a pure
    /// deterministic hash, so one entity's events always land on the same
    /// replica (disjoint streams by construction).
    pub(crate) fn shard_for(&self, workload: u32, platform: u32) -> usize {
        // Fibonacci hashing over the packed pair; any fixed mixing works,
        // it only has to be deterministic and reasonably balanced.
        let key = (u64::from(workload) << 32) | u64::from(platform);
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 33) % self.cfg.replicas as u64) as usize
    }

    /// Splits seed indices round-robin into one disjoint set per replica.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty.
    pub(crate) fn seed_sets(&self, idx: &[usize]) -> Vec<Vec<usize>> {
        assert!(!idx.is_empty(), "cannot seed from an empty index set");
        let n = self.cfg.replicas;
        let mut sets: Vec<Vec<usize>> = vec![Vec::with_capacity(idx.len().div_ceil(n)); n];
        for (i, &v) in idx.iter().enumerate() {
            sets[i % n].push(v);
        }
        sets
    }

    /// Ingress for one observation bound for `replica`: advance the fault
    /// clock, inject data faults, and check the replica is live. Returns the
    /// observation to apply together with the degraded-window audit its
    /// feedback is credited to (see [`FleetControl::credit`]), or `None`
    /// when the replica is down and the observation is lost. The executor
    /// calls [`FleetControl::after_observation`] next in either case.
    pub(crate) fn route_observation(
        &mut self,
        reps: &mut impl Replicas,
        replica: usize,
        obs: Observation,
    ) -> Option<(Observation, Option<usize>)> {
        self.tick(reps);
        let obs = self.inject_data_faults(obs);
        let Some(f) = &mut self.faults else {
            return Some((obs, None));
        };
        if f.down[replica] {
            self.counts.lost_observations += 1;
            if let Some(a) = f.open_audit() {
                a.lost_observations += 1;
            }
            return None;
        }
        Some((obs, f.open_audit_index()))
    }

    /// Credits one judged observation's feedback to the audit
    /// [`FleetControl::route_observation`] chose for it. The audit is fixed
    /// at routing, so feedback that returns after a merge closed that audit
    /// still counts in it.
    pub(crate) fn credit(&mut self, audit: Option<usize>, fb: &ObservedFeedback) {
        if let Some(k) = audit {
            let f = self
                .faults
                .as_mut()
                .expect("audits exist only under a fault plan");
            f.audits[k].bounded += 1;
            if fb.covered {
                f.audits[k].covered += 1;
            }
        }
    }

    /// Per-observation control-path work after the event itself: process
    /// due merge retries, then run the cadence merge.
    pub(crate) fn after_observation(&mut self, reps: &mut impl Replicas) {
        self.process_due_retries(reps);
        self.since_merge += 1;
        if self.since_merge >= self.cfg.merge_every {
            self.merge_now(reps);
        }
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
            self.counts.injected_outliers += 1;
            return obs;
        }
        let u: f32 = f.data_rng.gen_range(0.0f32..1.0);
        if u < f.plan.corrupt_prob {
            obs.runtime_s = match f.data_rng.gen_range(0u32..3) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                _ => -obs.runtime_s,
            };
            self.counts.injected_corrupt += 1;
        } else if u < f.plan.corrupt_prob + f.plan.outlier_prob {
            f.outlier_left = f.data_rng.gen_range(1..=f.plan.outlier_burst_max) - 1;
            obs.runtime_s *= f.plan.outlier_log_scale.exp();
            self.counts.injected_outliers += 1;
        }
        obs
    }

    /// Advances the fleet-wide observation clock and applies every fault
    /// transition due at it: outage audit opening, crashes (replica
    /// marked `down`; its gossip view and retry state cleared), and rejoins
    /// (see [`FleetControl::rejoin_replica`]).
    fn tick(&mut self, reps: &mut impl Replicas) {
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
                self.rejoin_replica(reps, c.replica);
                if let Some(a) = faults.crash_audit[k].take() {
                    faults.audits[a].until_obs = Some(obs);
                }
                self.counts.recoveries += 1;
            }
        }
        self.faults = Some(faults);
    }

    /// Rebuilds a crashed replica over the shared model state and rejoins
    /// it warm: replay the coordinator's held window summary
    /// (score-identical to the pre-crash window), then install the current
    /// fleet calibration. The crashed instance's counters survive into the
    /// fleet totals.
    fn rejoin_replica(&mut self, reps: &mut impl Replicas, r: usize) {
        let mut server = self.replica_server(r);
        if let Some((clock, entries)) = self.merged.replica_entries(r as u64) {
            server.restore_window(entries, clock);
        }
        fold_replica(&mut self.counts, &reps.replace(r, server));
        if let Some(c) = &self.fleet_conformal {
            reps.install(r, Arc::clone(c));
        }
    }

    /// Answers one deadline query and decides admission by the conformal
    /// upper edge. A query whose home shard is down fails over to the next
    /// live replica; `predict` answers it on the chosen replica.
    ///
    /// # Panics
    ///
    /// Panics if `q.id` is already pending or every replica is down.
    pub(crate) fn deadline_query(
        &mut self,
        q: &DeadlineQuery,
        predict: impl FnOnce(usize) -> Prediction,
    ) -> AdmissionOutcome {
        let home = self.shard_for(q.workload, q.platform);
        let mut replica = home;
        let mut failover = false;
        if let Some(f) = &self.faults {
            if f.down[home] {
                let n = self.cfg.replicas;
                replica = (1..n)
                    .map(|d| (home + d) % n)
                    .find(|&r| !f.down[r])
                    .expect("deadline_query: every replica in the fleet is down");
                failover = true;
            }
        }
        let prediction = predict(replica);
        let decision = self.admission.decide_tagged(
            q.id,
            f64::from(prediction.bound_s),
            q.deadline_s,
            prediction.degraded,
        );
        if let Some(f) = &mut self.faults {
            if failover {
                self.counts.failover_queries += 1;
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

    /// Scores a decided query against its realized runtime, attributing a
    /// fresh SLO miss to the open degraded window. `None` for an unknown id.
    pub(crate) fn resolve(&mut self, id: u64, realized_s: f64) -> Option<bool> {
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
    /// round degrades to pairwise gossip when the plan enables it, or does
    /// nothing beyond resetting the cadence. Either way the tick ends with
    /// the stale-local fallback (see [`FleetControl::refit_stale`]).
    pub(crate) fn merge_now(&mut self, reps: &mut impl Replicas) {
        self.since_merge = 0;
        if !self.coordinator_down() {
            self.coordinator_round(reps);
        } else if self
            .faults
            .as_ref()
            .is_some_and(|f| f.plan.gossip_during_outage)
        {
            self.gossip_round(reps);
        }
        self.refit_stale(reps);
    }

    /// Rung 3 of the degradation ladder: every live replica whose served
    /// calibration is more than [`ServeConfig::staleness_threshold`] window
    /// pushes old gets a fallback fit on its own window at the widened
    /// miscoverage `ε ×` [`ServeConfig::STALE_EPSILON_FACTOR`], installed
    /// tagged degraded. The window is read quiesced and directly — never through
    /// the tampering layer — and no fault RNG is drawn. A fallback ages
    /// like any install, so a replica still cut off refits it every
    /// `staleness_threshold` pushes; a coordinator, gossip, retry or rejoin
    /// install replaces it.
    fn refit_stale(&mut self, reps: &mut impl Replicas) {
        let serve = &self.cfg.serve;
        if serve.staleness_threshold == 0 {
            return;
        }
        let (threshold, widened) = (
            serve.staleness_threshold as u64,
            serve.epsilon * ServeConfig::STALE_EPSILON_FACTOR,
        );
        for r in 0..self.cfg.replicas {
            if self.faults.as_ref().is_some_and(|f| f.down[r]) {
                continue;
            }
            let fallback = reps.quiesced(r, |s| {
                (s.staleness() > threshold).then(|| s.fit_window(widened))
            });
            if let Some(conformal) = fallback {
                let served = Served {
                    conformal,
                    degraded: true,
                };
                reps.install(r, Arc::new(served));
                self.counts.fallback_refits += 1;
            }
        }
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
        &mut self,
        reps: &impl Replicas,
        f: &mut FaultRuntime,
        r: usize,
    ) -> Option<MergeableWindow> {
        let mut summary = reps.quiesced(r, |s| s.window_summary(r as u64));
        if let Some(b) = f.plan.byzantine {
            if b.replica == r && self.obs_seen >= b.from {
                let salt = f.data_rng.gen_range(0u64..=u64::MAX);
                let mode = match self.counts.byzantine_emissions % 4 {
                    0 => TamperMode::Checksum,
                    1 => TamperMode::Cardinality,
                    2 => TamperMode::NonFinite,
                    _ => TamperMode::Unsorted,
                };
                self.counts.byzantine_emissions += 1;
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
                    self.counts.injected_replays += 1;
                    return Some(prev.clone());
                }
            } else if u < f.plan.replay_prob + f.plan.skew_prob {
                self.counts.injected_skews += 1;
                summary.skew_run_clock(r as u64, SKEW_JUMP);
                return Some(summary);
            }
        }
        f.prev_summary[r] = Some(summary.clone());
        Some(summary)
    }

    /// Whether replica `r`'s window has moved past the clock `view` holds
    /// for it (a replica whose held run is current needs no snapshot).
    fn advanced(reps: &impl Replicas, view: &MergeableWindow, r: usize) -> bool {
        view.replica_clock(r as u64) != Some(reps.quiesced(r, PitotServer::window_clock))
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
        self.counts.rejected_summaries += 1;
        if self.rejected.len() >= FleetServer::REJECT_RETAIN {
            self.rejected.remove(0);
        }
        self.rejected.push(RejectedSummary {
            replica,
            at_obs: self.obs_seen,
            cause,
        });
    }

    /// Screens an incoming summary from replica `r` and absorbs it into
    /// the coordinator's merged view only if it passes. On every path the
    /// summary must hold exactly one run, keyed by `r` (the checksum does
    /// not cover the replica id, so without this screen one replica could
    /// replace another's held run), and must pass structural verification
    /// (cardinality, finiteness, sortedness, checksum). Then come the clock
    /// screens: a skew screen always, and a freshness screen on direct
    /// sends (`delayed = false`; delayed deliveries are legitimately stale,
    /// the CRDT clock makes them harmless). Returns whether the merged view
    /// changed; refusals are counted and audited, never silent.
    fn try_absorb(&mut self, r: u64, summary: &MergeableWindow, delayed: bool) -> bool {
        if !summary.replicas().map(|(id, _)| id).eq([r]) {
            self.reject(r as usize, RejectCause::ForeignRun);
            return false;
        }
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
    /// without materialising the union).
    fn fit_union(&self, merged: &MergeableWindow) -> PooledConformal {
        fit_served(
            merged,
            &self.xis,
            self.cfg.serve.selection,
            self.cfg.serve.epsilon,
        )
    }

    fn coordinator_round(&mut self, reps: &mut impl Replicas) {
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
        for r in 0..self.cfg.replicas {
            if let Some(f) = &faults {
                if f.down[r] {
                    continue;
                }
            }
            // Skip replicas whose windows have not advanced since the
            // last merge: their held run is already current, and a
            // snapshot would deep-copy the sorted slices for nothing.
            if !Self::advanced(reps, &self.merged, r) {
                continue;
            }
            let summary = if let Some(f) = &mut faults {
                if f.plan.drop_prob > 0.0 || f.plan.delay_prob > 0.0 {
                    let u: f32 = f.rng.gen_range(0.0f32..1.0);
                    if u < f.plan.drop_prob {
                        // Dropped in flight: schedule a bounded retry.
                        self.counts.dropped_summaries += 1;
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
                        if let Some(s) = self.emit_summary(reps, f, r) {
                            f.delayed.push(DelayedSummary {
                                due_round: due,
                                replica: r as u64,
                                summary: s,
                            });
                            self.counts.delayed_summaries += 1;
                        }
                        continue;
                    }
                }
                // Summary arrived; any pending retry is obsolete. A `None`
                // emission is a Byzantine mute staying silent this round.
                f.retry[r] = None;
                match self.emit_summary(reps, f, r) {
                    Some(s) => s,
                    None => continue,
                }
            } else {
                reps.quiesced(r, |s| s.window_summary(r as u64))
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
            self.counts.skipped_installs += 1;
            self.close_outage_audit();
            return;
        }
        let conformal = self.fit_union(&self.merged);
        self.install_everywhere(reps, conformal);
        self.counts.merges += 1;
        self.close_outage_audit();
    }

    /// Installs a fleet calibration into every *live* replica (down
    /// replicas receive it at rejoin) and records it as the fleet's. Every
    /// replica shares the one `Arc`.
    fn install_everywhere(&mut self, reps: &mut impl Replicas, conformal: PooledConformal) {
        let served = Served::fresh(conformal);
        for r in 0..self.cfg.replicas {
            if self.faults.as_ref().is_some_and(|f| f.down[r]) {
                continue;
            }
            reps.install(r, Arc::clone(&served));
        }
        self.fleet_conformal = Some(served);
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
    fn gossip_round(&mut self, reps: &mut impl Replicas) {
        let mut faults = self.faults.take().expect("gossip runs under faults");
        let live: Vec<usize> = (0..self.cfg.replicas)
            .filter(|&r| !faults.down[r])
            .collect();
        for &r in &live {
            if Self::advanced(reps, &faults.gossip[r], r) {
                // Self-refresh goes through the tampering layer too: a
                // Byzantine replica corrupts (only) its own gossip view.
                if let Some(s) = self.emit_summary(reps, &mut faults, r) {
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
        self.counts.gossip_rounds += 1;
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
            reps.install(r, Served::fresh(conformal));
        }
    }

    /// Attempts every due summary retry (dropped sends waiting out their
    /// backoff). A successful retry absorbs the replica's summary and
    /// refreshes the fleet calibration immediately — a partial merge
    /// between scheduled rounds; a failed one backs off exponentially
    /// until [`FaultPlan::max_retries`] is exhausted.
    fn process_due_retries(&mut self, reps: &mut impl Replicas) {
        if self.faults.is_none() || self.coordinator_down() {
            return;
        }
        let obs = self.obs_seen;
        let due: Vec<usize> = {
            let f = self.faults.as_ref().expect("checked above");
            (0..self.cfg.replicas)
                .filter(|&r| f.retry[r].is_some_and(|s| obs >= s.next_at))
                .collect()
        };
        for r in due {
            self.attempt_retry(reps, r);
        }
    }

    fn attempt_retry(&mut self, reps: &mut impl Replicas, r: usize) {
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
            self.counts.dropped_summaries += 1;
            let state = faults.retry[r].as_mut().expect("due retry has state");
            state.attempts += 1;
            if state.attempts >= faults.plan.max_retries {
                faults.retry[r] = None;
                self.counts.merge_giveups += 1;
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
        self.counts.retried_summaries += 1;
        let mut absorbed = false;
        if Self::advanced(reps, &self.merged, r) {
            if let Some(summary) = self.emit_summary(reps, &mut faults, r) {
                absorbed = self.try_absorb(r as u64, &summary, false);
            }
        }
        self.faults = Some(faults);
        if absorbed && !self.merged.is_empty() {
            // A successful retry is a partial merge between rounds:
            // refresh the fleet calibration immediately.
            let conformal = self.fit_union(&self.merged);
            self.install_everywhere(reps, conformal);
        }
    }

    /// The currently installed fleet-level calibration (absent until the
    /// first merge finds a non-empty window).
    pub(crate) fn fleet_conformal(&self) -> Option<&PooledConformal> {
        self.fleet_conformal.as_deref().map(|s| &s.conformal)
    }

    /// The degraded-window audit log (empty without a fault plan).
    pub(crate) fn degraded_audit(&self) -> &[DegradedWindow] {
        self.faults.as_ref().map_or(&[], |f| &f.audits)
    }

    /// The bounded rejected-summary audit ring, oldest first.
    pub(crate) fn rejected_audit(&self) -> &[RejectedSummary] {
        &self.rejected
    }

    /// Aggregated counters: every replica's (and every replaced instance's)
    /// serving and guard counters plus the control path's own records.
    pub(crate) fn stats(&self, reps: &impl Replicas) -> FleetStats {
        let mut s = self.counts;
        s.admission = *self.admission.stats();
        for r in 0..self.cfg.replicas {
            reps.quiesced(r, |server| fold_replica(&mut s, server));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdmissionConfig;
    use pitot::{train, PitotConfig};
    use pitot_conformal::WindowedScores;
    use pitot_testbed::{split::Split, Testbed, TestbedConfig};

    /// A two-replica control core over a barely trained model: the summary
    /// screens never read the model.
    fn control() -> FleetControl {
        let dataset = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&dataset, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.steps = 2;
        let trained = train(&dataset, &split, &cfg);
        let fleet = FleetConfig {
            serve: ServeConfig::at(0.1),
            replicas: 2,
            merge_every: 32,
            admission: AdmissionConfig::default(),
            compression: Vec::new(),
        };
        FleetControl::new(fleet, trained, &dataset)
    }

    /// Replica `replica`'s honest summary after `pushes` entries through a
    /// small window, so its run's clock is `pushes`.
    fn summary(replica: u64, pushes: usize, n_heads: usize) -> MergeableWindow {
        let mut w = WindowedScores::new(8, n_heads);
        for i in 0..pushes {
            w.push_scores(vec![(i % 5) as f32; n_heads], i % 2);
        }
        MergeableWindow::snapshot(replica, &w)
    }

    #[test]
    fn a_summary_holding_another_replicas_run_is_refused() {
        let mut core = control();
        let n_heads = core.merged.n_heads();
        assert!(core.try_absorb(1, &summary(1, 10, n_heads), false));
        // Replica 0 sends a checksum-valid run keyed 1, far ahead of
        // replica 1's clock yet under the skew screen: alone, beside its
        // own run, or with no run at all.
        let forged = summary(1, 1000, n_heads);
        assert_eq!(forged.verify(), Ok(()));
        assert!(core.skew_threshold() > 1000);
        let beside_own = summary(0, 5, n_heads).merge(&forged);
        let refused = RejectedSummary {
            replica: 0,
            at_obs: 0,
            cause: RejectCause::ForeignRun,
        };
        for delayed in [false, true] {
            for bad in [&forged, &beside_own, &MergeableWindow::empty(n_heads)] {
                assert!(!core.try_absorb(0, bad, delayed));
                assert_eq!(core.rejected_audit().last(), Some(&refused));
            }
        }
        assert_eq!(core.counts.rejected_summaries, 6);
        // Replica 1's held run is untouched, so its next honest summary is
        // not mistaken for a replay; replica 0's own run still absorbs.
        assert_eq!(core.merged.replica_clock(1), Some(10));
        assert_eq!(core.merged.replica_clock(0), None);
        assert!(core.try_absorb(1, &summary(1, 20, n_heads), false));
        assert!(core.try_absorb(0, &summary(0, 5, n_heads), false));
        assert_eq!(core.counts.rejected_summaries, 6);
    }
}
