//! The real concurrent serving runtime — and its deterministic twin.
//!
//! Everything below [`crate::FleetServer`] runs on a simulated clock,
//! single-threaded: perfect for property tests, useless for the ROADMAP's
//! "heavy traffic from millions of users". [`ConcurrentFleet`] is the same
//! fleet semantics on OS threads:
//!
//! - **Sharded state behind MPSC lanes.** Replicas are grouped into lanes
//!   (`replica % lanes`); each lane owns an
//!   [`pitot_linalg::par::EventQueue`] and a worker thread. The ingress
//!   thread routes observations to their shard's lane and returns
//!   immediately; per-replica FIFO order is preserved by construction
//!   (one mutex-ordered queue per lane, one consumer).
//! - **Micro-batch coalescing.** A lane worker drains *everything* pending
//!   in one swap and scores the whole batch with a single row-parallel
//!   [`pitot::TrainedPitot::predict_log_runtime_cached`] pass — the deeper
//!   the backlog, the bigger the batch, exactly the load-adaptive batching
//!   the simulated server's `microbatch` knob only imitates.
//! - **A lock-free read path.** Deadline queries never touch shard state:
//!   the model and per-replica tower caches are immutable in fleet mode
//!   (fine-tuning is rejected by [`crate::FleetConfig::validate`]; a
//!   compressed replica answers from its compressed cache), and the served
//!   calibration is read through a [`crate::SnapshotCell`] — admission and
//!   prediction never block on window writes or calibration installs.
//! - **Barriered merges.** The coordinator round runs on the ingress
//!   thread after parking on each lane's [`pitot_linalg::par::Gauge`]
//!   until its backlog is drained, then absorbs summaries / fits / installs
//!   exactly as the simulated coordinator does, finishing with a snapshot
//!   install for the read path.
//!
//! # The deterministic twin
//!
//! The simulated-clock [`crate::FleetServer`] stays on as the oracle:
//! [`run_trace_simulated`] feeds a [`TraceEvent`] sequence through it, and
//! the twin-equivalence property suite (`crates/serve/tests/twin.rs`)
//! asserts the concurrent runtime produces **bitwise-identical**
//! [`TraceOutcome`]s, [`crate::FleetStats`], and degraded-window audits for
//! the same trace — across worker counts and `PITOT_THREADS` settings.
//! Equivalence holds by construction:
//!
//! - shard substreams are disjoint and per-replica FIFO, so every replica
//!   server sees the same command sequence as its simulated twin;
//! - calibration installs happen only at ingress-barriered merge points,
//!   so every observation is judged under the same installed calibration;
//! - queries, admission, fault transitions, and data-fault injection are
//!   serialized at ingress in trace order, so every seeded RNG draw happens
//!   in the twin's order;
//! - batched prediction is bitwise-identical to a batch of one (a pinned
//!   workspace property), so coalescing cannot perturb a single bit.
//!
//! The concurrent runtime supports the fault-plan subset whose draws happen
//! on the observation path (replica crashes with warm rejoin, corrupt
//! runtimes, outlier bursts). Coordinator-link faults (outages, drops,
//! delays, replays, skews, Byzantine replicas) draw RNG inside merge rounds
//! whose interleaving is only meaningful on the simulated clock — those
//! plans are rejected at construction with an explanatory panic, and the
//! simulated twin remains their harness.

use crate::admission::AdmissionQueue;
use crate::config::FleetConfig;
use crate::fault::{DegradedCause, DegradedWindow, FaultPlan, RejectCause, RejectedSummary};
use crate::fleet::{AdmissionOutcome, DeadlineQuery, FleetServer, FleetStats};
use crate::guard::GuardStats;
use crate::server::{ObservedFeedback, PitotServer, Prediction};
use crate::snapshot::{SeqLock, SnapshotCell};
use pitot::{TowerCache, TrainedPitot};
use pitot_conformal::{MergeableWindow, PooledConformal, PredictionSet};
use pitot_linalg::par::{EventQueue, Gauge};
use pitot_testbed::{Dataset, Observation, MAX_INTERFERERS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

/// One event of a serving trace — the common input language of the
/// concurrent runtime and its simulated twin.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A realized runtime arrives (routed to its shard).
    Observe(Observation),
    /// A deadline query is answered and admitted/shed at ingress.
    Deadline(DeadlineQuery),
    /// A previously decided query's realized runtime is reported.
    Resolve {
        /// The query's correlation id.
        id: u64,
        /// Realized runtime in seconds.
        realized_s: f64,
    },
}

/// What one [`TraceEvent`] produced — comparable across runtimes (the twin
/// suite asserts equality of whole outcome vectors).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOutcome {
    /// An observation was routed.
    Observed {
        /// Its home shard replica.
        replica: usize,
        /// Prequential feedback; `None` when the replica was down (the
        /// observation is lost) or ingest quarantined it.
        feedback: Option<ObservedFeedback>,
    },
    /// A deadline query was decided.
    Decided(AdmissionOutcome),
    /// A resolve was scored (`None` for an unknown id).
    Resolved(Option<bool>),
}

/// Runs a trace through the simulated-clock [`FleetServer`] — the
/// deterministic twin the concurrent runtime is pinned against.
///
/// Event `i` is applied at simulated time `start_at + i`; pass the running
/// event count as `start_at` when feeding one fleet several traces, so the
/// simulated clock stays monotone (the concurrent runtime tracks the same
/// offset internally).
pub fn run_trace_simulated(
    fleet: &mut FleetServer,
    start_at: f64,
    events: &[TraceEvent],
) -> Vec<TraceOutcome> {
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| match ev {
            TraceEvent::Observe(obs) => {
                let (replica, feedback) = fleet.observe(start_at + i as f64, obs.clone());
                TraceOutcome::Observed { replica, feedback }
            }
            TraceEvent::Deadline(q) => TraceOutcome::Decided(fleet.deadline_query(q.clone())),
            TraceEvent::Resolve { id, realized_s } => {
                TraceOutcome::Resolved(fleet.resolve(*id, *realized_s))
            }
        })
        .collect()
}

/// Knobs for a [`ConcurrentFleet`]: the fleet semantics plus the lane
/// worker count.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Fleet semantics (replicas, per-replica serving config, merge
    /// cadence, admission policy). Constraints beyond
    /// [`FleetConfig::validate`] apply — see [`ConcurrentConfig::validate`].
    pub fleet: FleetConfig,
    /// Lane worker threads. `None` (the default) uses
    /// `min(replicas, pitot_linalg::par::threads())`; `Some(1)` forces the
    /// inline single-threaded mode (no worker threads — useful to compare
    /// worker counts inside one process, since the linalg pool size is
    /// latched process-wide). Capped at the replica count.
    pub workers: Option<usize>,
}

impl ConcurrentConfig {
    /// Defaults at miscoverage `epsilon` with the given replica count and
    /// automatic worker sizing.
    ///
    /// # Panics
    ///
    /// As [`ConcurrentConfig::validate`].
    pub fn at(epsilon: f32, replicas: usize) -> Self {
        let cfg = Self {
            fleet: FleetConfig::at(epsilon, replicas),
            workers: None,
        };
        cfg.validate();
        cfg
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an invalid fleet config ([`FleetConfig::validate`]), a
    /// zero worker override, a nonzero staleness threshold (the read path
    /// answers from the fleet snapshot, so a replica-local stale fallback
    /// would diverge from the twin — staleness remains a simulated-twin
    /// scenario), or an armed miscoverage watchdog (its rollback refits a
    /// replica-local calibration between merges, which the snapshot read
    /// path would never see).
    pub fn validate(&self) {
        self.fleet.validate();
        assert!(
            self.workers != Some(0),
            "ConcurrentConfig.workers = Some(0) is invalid: the runtime \
             needs at least one lane worker; use Some(1) for the inline \
             single-threaded mode or None for automatic sizing"
        );
        assert!(
            self.fleet.serve.staleness_threshold == 0,
            "ConcurrentConfig.fleet.serve.staleness_threshold = {} is not \
             supported by the concurrent runtime: deadline queries are \
             answered from the fleet calibration snapshot, so a \
             replica-local stale fallback could never be served and the \
             deterministic twin would diverge; use staleness_threshold = 0 \
             here and study staleness on the simulated FleetServer",
            self.fleet.serve.staleness_threshold
        );
        assert!(
            self.fleet.serve.watchdog_z == 0.0,
            "ConcurrentConfig.fleet.serve.watchdog_z = {} is not supported \
             by the concurrent runtime: a watchdog rollback refits a \
             replica-local calibration between merges, which the lock-free \
             snapshot read path would never observe; use watchdog_z = 0.0 \
             here (the ingest guard and MAD screen stay available) and \
             study the watchdog on the simulated FleetServer",
            self.fleet.serve.watchdog_z
        );
    }
}

/// Rejects fault-plan knobs whose RNG draws happen inside merge rounds —
/// only observation-path faults replay identically on the concurrent
/// runtime (see the module docs).
fn validate_plan_for_concurrent(plan: &FaultPlan) {
    assert!(
        plan.outages.is_empty(),
        "FaultPlan.outages = {:?} is not supported by the concurrent \
         runtime: outage windows gate merge rounds and gossip draws on the \
         simulated clock; use an outage-free plan here and study outages \
         on the simulated FleetServer twin",
        plan.outages
    );
    assert!(
        plan.drop_prob == 0.0 && plan.delay_prob == 0.0,
        "FaultPlan.drop_prob = {} / delay_prob = {} is not supported by \
         the concurrent runtime: drop/delay/retry draws happen inside \
         merge rounds whose control-RNG order is only defined on the \
         simulated clock; use 0.0 here and study lossy links on the \
         simulated FleetServer twin",
        plan.drop_prob,
        plan.delay_prob
    );
    assert!(
        plan.replay_prob == 0.0 && plan.skew_prob == 0.0,
        "FaultPlan.replay_prob = {} / skew_prob = {} is not supported by \
         the concurrent runtime: summary replay/skew draws happen at \
         emission inside merge rounds; use 0.0 here and study summary \
         integrity faults on the simulated FleetServer twin",
        plan.replay_prob,
        plan.skew_prob
    );
    assert!(
        plan.byzantine.is_none(),
        "FaultPlan.byzantine = {:?} is not supported by the concurrent \
         runtime: Byzantine emissions draw tamper salts inside merge \
         rounds; use byzantine = None here and study Byzantine replicas on \
         the simulated FleetServer twin",
        plan.byzantine
    );
}

/// A command shipped to a lane worker: one observation bound for one
/// replica, with everything needed to apply it and report back.
struct ShardCmd {
    replica: usize,
    /// Index into the current [`ConcurrentFleet::run_trace`] outcome
    /// vector.
    trace_idx: u32,
    /// Fleet-wide observation number at ingress (audit attribution key).
    obs_no: usize,
    at_s: f64,
    obs: Observation,
}

/// A lane worker's report for one processed observation.
struct ObsOutcome {
    trace_idx: u32,
    obs_no: usize,
    feedback: Option<ObservedFeedback>,
}

/// Live, lock-free progress counters of one lane, published through a
/// [`SeqLock`] after every processed batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneProgress {
    /// Observations processed by this lane.
    pub processed: u64,
    /// Batches drained (each batch is one row-parallel predict pass).
    pub batches: u64,
    /// Largest single coalesced batch so far.
    pub max_batch: u64,
}

/// The immutable model state every prediction reads: in fleet mode the
/// model never changes (fine-tuning is rejected), so the tower caches are
/// built once — one per replica, bitwise identical to each replica
/// server's own. Per-replica compression
/// ([`FleetConfig::replica_compression`]) makes the caches genuinely
/// distinct; a dense fleet holds `replicas` copies of the same cache,
/// matching the simulated twin's per-replica memory layout.
struct ReadState {
    trained: TrainedPitot,
    towers: Vec<TowerCache>,
}

/// Shared per-lane plumbing between ingress, worker, and coordinator.
struct LaneShared {
    queue: EventQueue<ShardCmd>,
    processed: Gauge,
    outbox: Mutex<Vec<ObsOutcome>>,
    progress: SeqLock<LaneProgress>,
}

struct Lane {
    shared: Arc<LaneShared>,
    /// Ingress-side count of commands routed to this lane (the barrier
    /// target for [`LaneShared::processed`]).
    routed: u64,
}

/// Concurrent fault runtime — the observation-path subset of the
/// simulated [`FleetServer`]'s fault machinery (see module docs).
struct CFaults {
    plan: FaultPlan,
    data_rng: ChaCha8Rng,
    outlier_left: usize,
    down: Vec<bool>,
    crash_done: Vec<bool>,
    rejoin_done: Vec<bool>,
    crash_audit: Vec<Option<usize>>,
    audits: Vec<DegradedWindow>,
    injected_corrupt: usize,
    injected_outliers: usize,
    lost_observations: usize,
    failover_queries: usize,
    recoveries: usize,
}

impl CFaults {
    fn new(plan: FaultPlan, replicas: usize) -> Self {
        let n_crashes = plan.crashes.len();
        Self {
            // Identical seeding to the simulated twin's data-path stream,
            // so corrupt/outlier draws replay bit-for-bit.
            data_rng: ChaCha8Rng::seed_from_u64(plan.seed ^ 0xDA_7A_BA_D5),
            outlier_left: 0,
            down: vec![false; replicas],
            crash_done: vec![false; n_crashes],
            rejoin_done: vec![false; n_crashes],
            crash_audit: vec![None; n_crashes],
            audits: Vec::new(),
            injected_corrupt: 0,
            injected_outliers: 0,
            lost_observations: 0,
            failover_queries: 0,
            recoveries: 0,
            plan,
        }
    }

    fn open_audit(&mut self) -> Option<&mut DegradedWindow> {
        self.audits.iter_mut().rev().find(|a| a.until_obs.is_none())
    }
}

/// Everything needed to rebuild a crashed replica warm.
struct Template {
    trained: TrainedPitot,
    dataset: Dataset,
    serve_cfg: crate::config::ServeConfig,
}

/// The concurrent serving runtime: [`FleetServer`] semantics on OS threads
/// (see the module docs for the architecture and the equivalence argument).
///
/// Drive it with [`ConcurrentFleet::run_trace`]; audits and stats are
/// consistent at every API boundary (each `run_trace` call barriers its
/// lanes and folds worker feedback back in before returning).
pub struct ConcurrentFleet {
    cfg: FleetConfig,
    /// Effective worker count; 1 = inline mode (no threads).
    workers: usize,
    lanes: Vec<Lane>,
    handles: Vec<std::thread::JoinHandle<()>>,
    shards: Arc<Vec<Mutex<PitotServer>>>,
    read: Arc<ReadState>,
    snapshot: Arc<SnapshotCell<PooledConformal>>,
    template: Template,
    merged: MergeableWindow,
    fleet_conformal: Option<PooledConformal>,
    admission: AdmissionQueue,
    xis: Vec<f32>,
    since_merge: usize,
    merges: usize,
    skipped_installs: usize,
    obs_seen: usize,
    events_seen: usize,
    /// Queries answered at ingress (replica servers never see queries;
    /// folded into [`FleetStats::queries`]).
    ingress_queries: usize,
    faults: Option<CFaults>,
    retired: FleetStats,
    retired_guard: GuardStats,
    rejected: Vec<RejectedSummary>,
    rejected_total: usize,
    /// Scratch batch for the inline (single-worker) mode.
    inline_batch: Vec<ShardCmd>,
}

impl std::fmt::Debug for ConcurrentFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentFleet")
            .field("replicas", &self.shards.len())
            .field("workers", &self.workers)
            .field("lanes", &self.lanes.len())
            .field("merges", &self.merges)
            .finish_non_exhaustive()
    }
}

/// Scores one drained batch in a single row-parallel pass, then applies
/// each observation to its shard in FIFO order — the coalescing heart of
/// the runtime. Shared by the lane workers and the inline mode.
fn process_batch(
    read: &ReadState,
    shards: &[Mutex<PitotServer>],
    batch: &mut Vec<ShardCmd>,
    out: &mut Vec<ObsOutcome>,
) {
    // Score against each destination replica's own tower cache (replicas
    // may serve compressed towers): one row-parallel pass per distinct
    // replica in the batch. Batched prediction is bitwise-identical to a
    // batch of one (pinned workspace property), so the grouping cannot
    // perturb a bit — and shard application below stays in FIFO order.
    let mut head_preds: Vec<Vec<f32>> = vec![Vec::new(); batch.len()];
    let mut idxs: Vec<usize> = Vec::new();
    for (rep, towers) in read.towers.iter().enumerate() {
        idxs.clear();
        idxs.extend(
            batch
                .iter()
                .enumerate()
                .filter(|(_, c)| c.replica == rep)
                .map(|(i, _)| i),
        );
        if idxs.is_empty() {
            continue;
        }
        let refs: Vec<&Observation> = idxs.iter().map(|&i| &batch[i].obs).collect();
        let preds = read.trained.predict_log_runtime_cached(towers, &refs);
        for (j, &i) in idxs.iter().enumerate() {
            head_preds[i] = preds.iter().map(|h| h[j]).collect();
        }
    }
    for (i, cmd) in batch.drain(..).enumerate() {
        let resp = shards[cmd.replica]
            .lock()
            .expect("shard mutex poisoned")
            .on_observation_prescored(cmd.at_s, cmd.obs, std::mem::take(&mut head_preds[i]));
        out.push(ObsOutcome {
            trace_idx: cmd.trace_idx,
            obs_no: cmd.obs_no,
            feedback: resp.observed,
        });
    }
}

/// A lane worker's main loop: park until commands (or shutdown), drain
/// everything pending, score + apply the batch, report, repeat.
fn lane_worker(read: Arc<ReadState>, shards: Arc<Vec<Mutex<PitotServer>>>, lane: Arc<LaneShared>) {
    let mut batch: Vec<ShardCmd> = Vec::new();
    let mut out: Vec<ObsOutcome> = Vec::new();
    let mut prog = LaneProgress::default();
    while lane.queue.drain_into(&mut batch) {
        let n = batch.len() as u64;
        process_batch(&read, &shards, &mut batch, &mut out);
        lane.outbox
            .lock()
            .expect("lane outbox poisoned")
            .append(&mut out);
        prog.processed += n;
        prog.batches += 1;
        prog.max_batch = prog.max_batch.max(n);
        lane.progress.write(prog);
        // The gauge moves last: once the barrier releases, the outbox
        // already holds this batch's feedback.
        lane.processed.add(n);
    }
}

impl ConcurrentFleet {
    /// Builds the concurrent fleet and spawns its lane workers (none in
    /// inline mode). Mirrors [`FleetServer::new`]: per-replica refresh is
    /// overridden to "never" — the coordinator owns every install.
    ///
    /// # Panics
    ///
    /// As [`ConcurrentConfig::validate`].
    pub fn new(trained: TrainedPitot, dataset: &Dataset, cfg: ConcurrentConfig) -> Self {
        cfg.validate();
        let replicas = cfg.fleet.replicas;
        let workers = cfg
            .workers
            .unwrap_or_else(|| pitot_linalg::par::threads().min(replicas))
            .min(replicas)
            .max(1);
        let mut serve_cfg = cfg.fleet.serve.clone();
        serve_cfg.refresh_every = usize::MAX;
        let xis = trained.model.config().objective.xis();
        let n_heads = trained.model.n_heads();
        let shards: Arc<Vec<Mutex<PitotServer>>> = Arc::new(
            (0..replicas)
                .map(|r| {
                    let mut rc = serve_cfg.clone();
                    rc.compression = cfg.fleet.replica_compression(r);
                    Mutex::new(PitotServer::new(trained.clone(), dataset.clone(), rc))
                })
                .collect(),
        );
        let read = Arc::new(ReadState {
            towers: (0..replicas)
                .map(|r| trained.compressed_tower_cache(dataset, &cfg.fleet.replica_compression(r)))
                .collect(),
            trained: trained.clone(),
        });
        let n_lanes = if workers > 1 { workers } else { 1 };
        let lanes: Vec<Lane> = (0..n_lanes)
            .map(|_| Lane {
                shared: Arc::new(LaneShared {
                    queue: EventQueue::new(),
                    processed: Gauge::new(),
                    outbox: Mutex::new(Vec::new()),
                    progress: SeqLock::new(LaneProgress::default()),
                }),
                routed: 0,
            })
            .collect();
        let handles = if workers > 1 {
            lanes
                .iter()
                .map(|lane| {
                    let read = Arc::clone(&read);
                    let shards = Arc::clone(&shards);
                    let shared = Arc::clone(&lane.shared);
                    std::thread::Builder::new()
                        .name("pitot-serve-lane".to_string())
                        .spawn(move || lane_worker(read, shards, shared))
                        .expect("spawning lane worker")
                })
                .collect()
        } else {
            Vec::new()
        };
        let admission = AdmissionQueue::new(cfg.fleet.admission.clone());
        Self {
            cfg: cfg.fleet,
            workers,
            lanes,
            handles,
            shards,
            read,
            snapshot: Arc::new(SnapshotCell::new()),
            template: Template {
                trained,
                dataset: dataset.clone(),
                serve_cfg,
            },
            merged: MergeableWindow::empty(n_heads),
            fleet_conformal: None,
            admission,
            xis,
            since_merge: 0,
            merges: 0,
            skipped_installs: 0,
            obs_seen: 0,
            events_seen: 0,
            ingress_queries: 0,
            faults: None,
            retired: FleetStats::default(),
            retired_guard: GuardStats::default(),
            rejected: Vec::new(),
            rejected_total: 0,
            inline_batch: Vec::new(),
        }
    }

    /// [`ConcurrentFleet::new`] with a deterministic fault schedule
    /// installed. Only the observation-path subset is supported (crashes
    /// with warm rejoin, corrupt runtimes, outlier bursts); plans with
    /// coordinator-link faults are rejected — see the module docs.
    ///
    /// # Panics
    ///
    /// As [`ConcurrentConfig::validate`] and [`FaultPlan::validate`], plus
    /// a panic naming the offending knob for unsupported plan features.
    pub fn with_faults(
        trained: TrainedPitot,
        dataset: &Dataset,
        cfg: ConcurrentConfig,
        plan: FaultPlan,
    ) -> Self {
        plan.validate(cfg.fleet.replicas);
        validate_plan_for_concurrent(&plan);
        let mut fleet = Self::new(trained, dataset, cfg);
        let replicas = fleet.shards.len();
        fleet.faults = Some(CFaults::new(plan, replicas));
        fleet
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.shards.len()
    }

    /// Effective lane worker count (1 = inline mode).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The replica a `(workload, platform)` pair is sharded to — the same
    /// pure hash as [`FleetServer::shard_for`].
    pub fn shard_for(&self, workload: u32, platform: u32) -> usize {
        let key = (u64::from(workload) << 32) | u64::from(platform);
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 33) % self.shards.len() as u64) as usize
    }

    /// Seeds every replica's calibration window from disjoint round-robin
    /// shards of `idx` and runs an immediate merge — mirrors
    /// [`FleetServer::seed_calibration`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty or contains an out-of-range index.
    pub fn seed_calibration(&mut self, idx: &[usize]) {
        assert!(!idx.is_empty(), "cannot seed from an empty index set");
        let n = self.shards.len();
        let mut sets: Vec<Vec<usize>> = vec![Vec::with_capacity(idx.len().div_ceil(n)); n];
        for (i, &v) in idx.iter().enumerate() {
            sets[i % n].push(v);
        }
        for (shard, set) in self.shards.iter().zip(&sets) {
            if !set.is_empty() {
                shard
                    .lock()
                    .expect("shard mutex poisoned")
                    .seed_calibration(set);
            }
        }
        self.merge_now();
    }

    /// Feeds a trace through the runtime and returns one outcome per
    /// event, bitwise-comparable to [`run_trace_simulated`] on a twin
    /// fleet. Blocks until every lane has drained, so outcomes, stats, and
    /// audits are final when this returns. Call repeatedly to stream —
    /// the internal event clock carries across calls.
    pub fn run_trace(&mut self, events: &[TraceEvent]) -> Vec<TraceOutcome> {
        let mut outcomes: Vec<TraceOutcome> = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            let at_s = self.events_seen as f64;
            self.events_seen += 1;
            match ev {
                TraceEvent::Observe(obs) => {
                    let replica = self.shard_for(obs.workload, obs.platform);
                    // Placeholder; patched from the lane outboxes below.
                    outcomes.push(TraceOutcome::Observed {
                        replica,
                        feedback: None,
                    });
                    self.ingest_observe(replica, i as u32, at_s, obs.clone());
                }
                TraceEvent::Deadline(q) => {
                    outcomes.push(TraceOutcome::Decided(self.ingest_deadline(q.clone())));
                }
                TraceEvent::Resolve { id, realized_s } => {
                    outcomes.push(TraceOutcome::Resolved(
                        self.ingest_resolve(*id, *realized_s),
                    ));
                }
            }
        }
        self.barrier_all();
        self.fold_outboxes(&mut outcomes);
        outcomes
    }

    /// Drains every lane outbox: patches the placeholder outcomes with the
    /// workers' feedback and attributes judged observations to the
    /// degraded-window audit that was open when they arrived — equivalent
    /// to the twin's live attribution, because an audit covers exactly the
    /// observation numbers in `[from_obs, until_obs)`.
    fn fold_outboxes(&mut self, outcomes: &mut [TraceOutcome]) {
        for lane in &self.lanes {
            let drained: Vec<ObsOutcome> =
                std::mem::take(&mut *lane.shared.outbox.lock().expect("lane outbox poisoned"));
            for o in drained {
                if let Some(f) = &mut self.faults {
                    if let Some(fb) = o.feedback {
                        let open = f.audits.iter_mut().rev().find(|a| {
                            a.from_obs <= o.obs_no && a.until_obs.is_none_or(|u| u > o.obs_no)
                        });
                        if let Some(a) = open {
                            a.bounded += 1;
                            if fb.covered {
                                a.covered += 1;
                            }
                        }
                    }
                }
                if let TraceOutcome::Observed { feedback, .. } = &mut outcomes[o.trace_idx as usize]
                {
                    *feedback = o.feedback;
                }
            }
        }
    }

    /// Ingress for one observation: advance the fault clock, inject data
    /// faults, drop it if the shard is down, otherwise route it to the
    /// shard's lane — then run the merge cadence. RNG draws and fault
    /// transitions all happen here, in trace order, exactly as on the twin.
    fn ingest_observe(&mut self, replica: usize, trace_idx: u32, at_s: f64, obs: Observation) {
        self.tick();
        let obs = self.inject_data_faults(obs);
        if self.faults.as_ref().is_some_and(|f| f.down[replica]) {
            let f = self.faults.as_mut().expect("just checked");
            f.lost_observations += 1;
            if let Some(a) = f.open_audit() {
                a.lost_observations += 1;
            }
            self.after_observation();
            return;
        }
        let obs_no = self.obs_seen;
        let lane_idx = replica % self.lanes.len();
        let cmd = ShardCmd {
            replica,
            trace_idx,
            obs_no,
            at_s,
            obs,
        };
        self.lanes[lane_idx].routed += 1;
        assert!(
            self.lanes[lane_idx].shared.queue.push(cmd),
            "lane queue closed while the fleet is live"
        );
        if self.workers == 1 {
            self.pump_inline(lane_idx);
        }
        self.after_observation();
    }

    /// Inline mode: play the lane worker's role on the ingress thread —
    /// drain whatever is pending and process it as one batch, keeping the
    /// gauge/outbox/progress bookkeeping identical to the threaded path.
    fn pump_inline(&mut self, lane_idx: usize) {
        let lane = &self.lanes[lane_idx].shared;
        let n = lane.queue.try_drain_into(&mut self.inline_batch) as u64;
        if n == 0 {
            return;
        }
        let mut out = Vec::with_capacity(self.inline_batch.len());
        process_batch(&self.read, &self.shards, &mut self.inline_batch, &mut out);
        lane.outbox
            .lock()
            .expect("lane outbox poisoned")
            .append(&mut out);
        let mut prog = lane.progress.read();
        prog.processed += n;
        prog.batches += 1;
        prog.max_batch = prog.max_batch.max(n);
        lane.progress.write(prog);
        lane.processed.add(n);
    }

    /// Parks until lane `lane_idx` has processed everything routed to it.
    fn barrier_lane(&self, lane_idx: usize) {
        let lane = &self.lanes[lane_idx];
        lane.shared.processed.wait_at_least(lane.routed);
    }

    /// Parks until every lane's backlog is drained — the quiescent point
    /// merges, rejoins, and stats reads run at.
    fn barrier_all(&self) {
        for i in 0..self.lanes.len() {
            self.barrier_lane(i);
        }
    }

    /// Mirror of the twin's fault-clock tick: advance the fleet-wide
    /// observation counter and apply every crash/rejoin due at it.
    fn tick(&mut self) {
        self.obs_seen += 1;
        let obs = self.obs_seen;
        let mut faults = match self.faults.take() {
            Some(f) => f,
            None => return,
        };
        for k in 0..faults.plan.crashes.len() {
            let c = faults.plan.crashes[k];
            if !faults.crash_done[k] && obs >= c.at && obs < c.rejoin_at {
                faults.crash_done[k] = true;
                faults.down[c.replica] = true;
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

    /// Mirror of the twin's data-fault injection — one draw sequence from
    /// the identically seeded data RNG, consumed in trace order.
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

    /// Rebuilds a crashed replica warm, exactly as the twin does: barrier
    /// its lane, retire the dead instance's counters, rebuild from the
    /// template, replay the coordinator's held window summary, and install
    /// the current fleet calibration.
    fn rejoin_replica(&mut self, r: usize) {
        self.barrier_lane(r % self.lanes.len());
        let mut shard = self.shards[r].lock().expect("shard mutex poisoned");
        let rs = shard.stats();
        self.retired.observations += rs.observations;
        self.retired.queries += rs.queries;
        self.retired.covered += rs.covered;
        self.retired.bounded += rs.bounded;
        self.retired.degraded_bounded += rs.degraded_bounded;
        self.retired.degraded_covered += rs.degraded_covered;
        self.retired.fallback_refits += rs.fallback_refits;
        self.retired_guard = self.retired_guard.merged(&shard.guard_stats());
        // A compressed replica rejoins compressed: rebuild under its
        // original per-replica compression spec, as the twin does.
        let mut serve_cfg = self.template.serve_cfg.clone();
        serve_cfg.compression = self.cfg.replica_compression(r);
        let mut server = PitotServer::new(
            self.template.trained.clone(),
            self.template.dataset.clone(),
            serve_cfg,
        );
        if let Some((clock, entries)) = self.merged.replica_entries(r as u64) {
            server.restore_window(entries, clock);
        }
        if let Some(c) = &self.fleet_conformal {
            server.install_calibration(c.clone());
        }
        *shard = server;
    }

    /// Per-observation control-path work after routing: the merge cadence
    /// (the twin's retry machinery is vacuous under supported plans).
    fn after_observation(&mut self) {
        self.since_merge += 1;
        if self.since_merge >= self.cfg.merge_every {
            self.merge_now();
        }
    }

    /// Runs a coordinator merge round now: barrier every lane, absorb live
    /// replicas' summaries, fit the union, install everywhere — and
    /// publish the calibration snapshot for the lock-free read path.
    pub fn merge_now(&mut self) {
        self.since_merge = 0;
        self.barrier_all();
        let mut changed = false;
        for r in 0..self.shards.len() {
            if self.faults.as_ref().is_some_and(|f| f.down[r]) {
                continue;
            }
            let summary = {
                let server = self.shards[r].lock().expect("shard mutex poisoned");
                // Same skip as the twin: an unadvanced window's held run is
                // already current.
                if self.merged.replica_clock(r as u64) == Some(server.window_clock()) {
                    continue;
                }
                server.window_summary(r as u64)
            };
            changed |= self.try_absorb(r as u64, &summary);
        }
        if self.merged.is_empty() {
            return;
        }
        if !changed && self.fleet_conformal.is_some() {
            self.skipped_installs += 1;
            return;
        }
        let conformal = self.fit_union();
        for (r, shard) in self.shards.iter().enumerate() {
            if self.faults.as_ref().is_some_and(|f| f.down[r]) {
                continue;
            }
            shard
                .lock()
                .expect("shard mutex poisoned")
                .install_calibration(conformal.clone());
        }
        self.snapshot.store(Arc::new(conformal.clone()));
        self.fleet_conformal = Some(conformal);
        self.merges += 1;
    }

    /// The twin's summary screens, verbatim: structural verification plus
    /// clock-plausibility (skew and replay), every refusal audited.
    fn try_absorb(&mut self, r: u64, summary: &MergeableWindow) -> bool {
        if let Err(e) = summary.verify() {
            self.reject(e.replica as usize, RejectCause::from_fault(e.fault));
            return false;
        }
        let held = self.merged.replica_clock(r);
        if let Some(c) = summary.replica_clock(r) {
            let threshold = (2 * self.obs_seen + self.cfg.serve.window + 1024) as u64;
            if c > threshold {
                self.reject(r as usize, RejectCause::SkewedClock);
                return false;
            }
            if held.is_some_and(|h| c <= h) {
                self.reject(r as usize, RejectCause::Replayed);
                return false;
            }
        }
        self.merged.absorb(summary);
        self.merged.replica_clock(r) != held
    }

    fn reject(&mut self, replica: usize, cause: RejectCause) {
        self.rejected_total += 1;
        if self.rejected.len() >= FleetServer::REJECT_RETAIN {
            self.rejected.remove(0);
        }
        self.rejected.push(RejectedSummary {
            replica,
            at_obs: self.obs_seen,
            cause,
        });
    }

    /// Fits the fleet calibration on the merged union, rank-selected from
    /// the merged runs — identical arithmetic to the twin's coordinator
    /// fit.
    fn fit_union(&self) -> PooledConformal {
        let empty_preds: Vec<Vec<f32>> = vec![Vec::new(); self.merged.n_heads()];
        PooledConformal::fit_scored(
            &self.merged,
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

    /// The lock-free read path: score the query against the answering
    /// replica's immutable tower cache (compressed replicas answer with
    /// their compressed towers, exactly as the twin's `query_now` does)
    /// and bound it with the current calibration snapshot — no shard
    /// lock, no queue, no waiting on writers.
    fn predict_read_path(&self, replica: usize, q: &DeadlineQuery) -> Prediction {
        let obs = Observation {
            workload: q.workload,
            platform: q.platform,
            interferers: q.interferers.clone(),
            runtime_s: 1.0, // unused by prediction
        };
        let preds = self
            .read
            .trained
            .predict_log_runtime_cached(&self.read.towers[replica], &[&obs]);
        let head_preds: Vec<f32> = preds.iter().map(|h| h[0]).collect();
        let pool = if self.cfg.serve.pool_by_arity {
            q.interferers.len().min(MAX_INTERFERERS)
        } else {
            0
        };
        let point = head_preds[0];
        let bound = match self.snapshot.load() {
            Some(c) => c.bound_log(&head_preds, pool),
            None => *head_preds.last().expect("at least one head"),
        };
        Prediction {
            id: 0,
            point_s: point.exp(),
            bound_s: bound.exp(),
            pool,
            // Staleness tracking is validated off, so the twin's replicas
            // never serve degraded either.
            degraded: false,
        }
    }

    /// Ingress for one deadline query: failover routing, snapshot-read
    /// prediction, admission — mirroring [`FleetServer::deadline_query`].
    fn ingest_deadline(&mut self, q: DeadlineQuery) -> AdmissionOutcome {
        let home = self.shard_for(q.workload, q.platform);
        let mut replica = home;
        let mut failover = false;
        if let Some(f) = &self.faults {
            if f.down[home] {
                let n = self.shards.len();
                replica = (1..n)
                    .map(|d| (home + d) % n)
                    .find(|&r| !f.down[r])
                    .expect("deadline_query: every replica in the fleet is down");
                failover = true;
            }
        }
        let prediction = self.predict_read_path(replica, &q);
        self.ingress_queries += 1;
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

    /// Mirror of [`FleetServer::resolve`], including audit attribution of
    /// fresh SLO misses.
    fn ingest_resolve(&mut self, id: u64, realized_s: f64) -> Option<bool> {
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

    /// Aggregated counters, assembled exactly as the twin's
    /// [`FleetServer::stats`] (barriers the lanes first so replica
    /// counters are settled). Ingress-answered queries are folded into
    /// [`FleetStats::queries`].
    pub fn stats(&self) -> FleetStats {
        self.barrier_all();
        let mut s = self.retired;
        s.merges = self.merges;
        s.skipped_installs = self.skipped_installs;
        s.rejected_summaries = self.rejected_total;
        s.admission = *self.admission.stats();
        if let Some(f) = &self.faults {
            s.lost_observations = f.lost_observations;
            s.failover_queries = f.failover_queries;
            s.recoveries = f.recoveries;
            s.injected_corrupt = f.injected_corrupt;
            s.injected_outliers = f.injected_outliers;
        }
        s.guard = self.retired_guard;
        for shard in self.shards.iter() {
            let server = shard.lock().expect("shard mutex poisoned");
            let rs = server.stats();
            s.observations += rs.observations;
            s.queries += rs.queries;
            s.covered += rs.covered;
            s.bounded += rs.bounded;
            s.degraded_bounded += rs.degraded_bounded;
            s.degraded_covered += rs.degraded_covered;
            s.fallback_refits += rs.fallback_refits;
            s.guard = s.guard.merged(&server.guard_stats());
        }
        s.queries += self.ingress_queries;
        s
    }

    /// The degraded-window audit log (finalized at every
    /// [`ConcurrentFleet::run_trace`] boundary) — comparable to
    /// [`FleetServer::degraded_audit`].
    pub fn degraded_audit(&self) -> &[DegradedWindow] {
        self.faults.as_ref().map_or(&[], |f| &f.audits)
    }

    /// The bounded rejected-summary audit ring, oldest first — comparable
    /// to [`FleetServer::rejected_audit`].
    pub fn rejected_audit(&self) -> &[RejectedSummary] {
        &self.rejected
    }

    /// The currently installed fleet-level calibration, via the same
    /// snapshot cell the read path uses.
    pub fn fleet_conformal(&self) -> Option<Arc<PooledConformal>> {
        self.snapshot.load()
    }

    /// Live per-lane progress counters, read lock-free off each lane's
    /// [`SeqLock`] — safe to poll from any thread while a trace runs.
    pub fn progress(&self) -> Vec<LaneProgress> {
        self.lanes
            .iter()
            .map(|l| l.shared.progress.read())
            .collect()
    }
}

impl Drop for ConcurrentFleet {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.shared.queue.close();
        }
        for h in self.handles.drain(..) {
            // A worker that panicked already reported via the test/process
            // harness; don't double-panic in drop.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::AdmissionConfig;
    use pitot_conformal::HeadSelection;

    fn message<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> String {
        let err = std::panic::catch_unwind(f).expect_err("must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic carries a message")
    }

    fn cfg(replicas: usize) -> ConcurrentConfig {
        let mut serve = ServeConfig::at(0.1);
        serve.window = 64;
        serve.selection = HeadSelection::NaiveXi;
        ConcurrentConfig {
            fleet: FleetConfig {
                serve,
                replicas,
                merge_every: 16,
                admission: AdmissionConfig::default(),
                compression: Vec::new(),
            },
            workers: Some(1),
        }
    }

    #[test]
    fn validation_rejects_zero_workers() {
        let m = message(|| {
            let mut c = cfg(2);
            c.workers = Some(0);
            c.validate();
        });
        assert!(m.contains("ConcurrentConfig.workers = Some(0)"), "{m}");
        assert!(m.contains("Some(1)"), "alternative: {m}");
    }

    #[test]
    fn validation_rejects_staleness_tracking() {
        let m = message(|| {
            let mut c = cfg(2);
            c.fleet.serve.staleness_threshold = 64;
            c.validate();
        });
        assert!(
            m.contains("ConcurrentConfig.fleet.serve.staleness_threshold = 64"),
            "field + value: {m}"
        );
        assert!(m.contains("staleness_threshold = 0"), "fix: {m}");
        assert!(m.contains("simulated FleetServer"), "alternative: {m}");
    }

    #[test]
    fn validation_rejects_watchdog() {
        let m = message(|| {
            let mut c = cfg(2);
            c.fleet.serve.ingest_guard = true;
            c.fleet.serve.watchdog_z = 4.0;
            c.validate();
        });
        assert!(
            m.contains("ConcurrentConfig.fleet.serve.watchdog_z = 4"),
            "field + value: {m}"
        );
        assert!(m.contains("watchdog_z = 0.0"), "fix: {m}");
    }

    #[test]
    fn unsupported_fault_plans_are_rejected_with_alternatives() {
        let m = message(|| {
            validate_plan_for_concurrent(&FaultPlan::none(1).coordinator_outage(10, 20));
        });
        assert!(m.contains("FaultPlan.outages"), "field: {m}");
        assert!(m.contains("simulated FleetServer twin"), "alternative: {m}");

        let m = message(|| {
            validate_plan_for_concurrent(&FaultPlan::none(1).drop_summaries(0.25));
        });
        assert!(m.contains("FaultPlan.drop_prob = 0.25"), "{m}");

        let m = message(|| {
            validate_plan_for_concurrent(&FaultPlan::none(1).delay_summaries(0.25, 3));
        });
        assert!(m.contains("delay_prob = 0.25"), "{m}");

        let m = message(|| {
            validate_plan_for_concurrent(&FaultPlan::none(1).replay_summaries(0.25));
        });
        assert!(m.contains("FaultPlan.replay_prob = 0.25"), "{m}");

        let m = message(|| {
            validate_plan_for_concurrent(&FaultPlan::none(1).skew_clocks(0.25));
        });
        assert!(m.contains("skew_prob = 0.25"), "{m}");

        let m = message(|| {
            validate_plan_for_concurrent(&FaultPlan::none(1).byzantine_replica(0, 5));
        });
        assert!(m.contains("FaultPlan.byzantine"), "field: {m}");

        // The supported observation-path subset passes.
        validate_plan_for_concurrent(
            &FaultPlan::none(1)
                .crash(0, 10, 20)
                .corrupt_observations(0.05)
                .outlier_bursts(0.02, 2.5, 4),
        );
    }
}
