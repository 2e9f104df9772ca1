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
//!   compressed replica answers from its compressed cache), and each
//!   replica's served calibration is read through its own
//!   [`crate::SnapshotCell`], published at every install into that replica
//!   — admission and prediction never block on window writes or
//!   calibration installs.
//! - **Barriered control.** Every control decision (merge, gossip, retry,
//!   rejoin, install) runs on the ingress thread in the fleet control core
//!   the simulated fleet also runs. The core reaches a replica only after
//!   parking on its lane's [`pitot_linalg::par::Gauge`] until the lane's
//!   backlog is drained.
//!
//! # The deterministic twin
//!
//! The simulated-clock [`crate::FleetServer`] stays on as the oracle:
//! [`run_trace_simulated`] feeds a [`TraceEvent`] sequence through it, and
//! the twin-equivalence property suite (`crates/serve/tests/twin.rs`)
//! asserts the concurrent runtime produces **bitwise-identical**
//! [`TraceOutcome`]s, [`crate::FleetStats`], and degraded-window and
//! rejected-summary audits for the same trace — across worker counts,
//! `PITOT_THREADS` settings, and every [`FaultPlan`] knob. Equivalence holds
//! by construction:
//!
//! - both executors drive **one control core**: the fault clock, data-fault
//!   injection, coordinator, gossip, retry and delay rounds, summary
//!   screens, audits, failover routing, admission, the fleet fit, and the
//!   stats fold are one code path, so every seeded RNG draw and every
//!   install happens in the same order on both;
//! - the core reads or changes a replica only once every observation
//!   already routed to it has been judged, so every observation is judged
//!   under the same installed calibration as on the twin;
//! - a replica's served calibration changes only through the core's
//!   installs at those barriers — coordinator, gossip, retry, rejoin, and
//!   the stale-local fallback alike; a replica never refits on its own lane
//!   (its watchdog rollback purges and leaves the refit to the next
//!   install), so the read path, which shares each install's `Arc`, always
//!   answers from the calibration the twin's replica serves;
//! - shard substreams are disjoint and per-replica FIFO, so every replica
//!   server sees the same command sequence as its simulated twin;
//! - the degraded window an observation's feedback is credited to is fixed
//!   when the observation is routed, so feedback that returns after a merge
//!   closed that window still lands where the twin puts it;
//! - batched prediction is bitwise-identical to a batch of one (a pinned
//!   workspace property), so coalescing cannot perturb a single bit.

use crate::config::FleetConfig;
use crate::control::{FleetControl, Replicas};
use crate::fault::{DegradedWindow, FaultPlan, RejectedSummary};
use crate::fleet::{AdmissionOutcome, DeadlineQuery, FleetServer, FleetStats};
use crate::server::{self, ObservedFeedback, PitotServer, Prediction, Served};
use crate::snapshot::{SeqLock, SnapshotCell};
use pitot::{TowerCache, TrainedPitot};
use pitot_conformal::PooledConformal;
use pitot_linalg::par::{EventQueue, Gauge};
use pitot_testbed::{Dataset, Observation};
use std::sync::{Arc, Mutex, MutexGuard};

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
    /// cadence, admission policy) — every config the simulated
    /// [`FleetServer`] accepts.
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
    /// Panics on an invalid fleet config ([`FleetConfig::validate`]) or a
    /// zero worker override.
    pub fn validate(&self) {
        self.fleet.validate();
        assert!(
            self.workers != Some(0),
            "ConcurrentConfig.workers = Some(0) is invalid: the runtime \
             needs at least one lane worker; use Some(1) for the inline \
             single-threaded mode or None for automatic sizing"
        );
    }
}

/// A command shipped to a lane worker: one observation bound for one
/// replica, with everything needed to apply it and report back.
struct ShardCmd {
    replica: usize,
    /// Index into the current [`ConcurrentFleet::run_trace`] outcome
    /// vector.
    trace_idx: u32,
    /// The degraded window its feedback is credited to, fixed at ingress.
    audit: Option<usize>,
    at_s: f64,
    obs: Observation,
}

/// A lane worker's report for one processed observation.
struct ObsOutcome {
    trace_idx: u32,
    audit: Option<usize>,
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

/// The lane data plane the control core drives: replica shards behind
/// MPSC lanes, their workers, and the read path's towers and per-replica
/// calibration cells.
struct LanePlane {
    /// Effective worker count; 1 = inline mode (no threads).
    workers: usize,
    lanes: Vec<Lane>,
    handles: Vec<std::thread::JoinHandle<()>>,
    shards: Arc<Vec<Mutex<PitotServer>>>,
    read: Arc<ReadState>,
    /// Per replica: the calibration it serves, as the read path sees it.
    snapshots: Vec<SnapshotCell<Served>>,
    /// Scratch batch for the inline (single-worker) mode.
    inline_batch: Vec<ShardCmd>,
}

/// The concurrent serving runtime: [`FleetServer`] semantics on OS threads
/// (see the module docs for the architecture and the equivalence argument).
///
/// Drive it with [`ConcurrentFleet::run_trace`]; audits and stats are
/// consistent at every API boundary (each `run_trace` call barriers its
/// lanes and folds worker feedback back in before returning).
pub struct ConcurrentFleet {
    core: FleetControl,
    plane: LanePlane,
    events_seen: usize,
    /// Queries answered at ingress (replica servers never see queries;
    /// folded into [`FleetStats::queries`]).
    ingress_queries: usize,
}

impl std::fmt::Debug for ConcurrentFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentFleet")
            .field("replicas", &self.plane.shards.len())
            .field("workers", &self.plane.workers)
            .field("lanes", &self.plane.lanes.len())
            .field("control", &self.core)
            .finish()
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
            audit: cmd.audit,
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

impl LanePlane {
    /// Routes one command to its replica's lane (processed on the spot in
    /// inline mode).
    fn push(&mut self, cmd: ShardCmd) {
        let lane_idx = cmd.replica % self.lanes.len();
        self.lanes[lane_idx].routed += 1;
        assert!(
            self.lanes[lane_idx].shared.queue.push(cmd),
            "lane queue closed while the fleet is live"
        );
        if self.workers == 1 {
            self.pump_inline(lane_idx);
        }
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

    /// Parks until every lane's backlog is drained.
    fn barrier_all(&self) {
        for lane in &self.lanes {
            lane.shared.processed.wait_at_least(lane.routed);
        }
    }

    /// Replica `r`'s server, locked once its lane has processed everything
    /// routed to it.
    fn shard(&self, r: usize) -> MutexGuard<'_, PitotServer> {
        let lane = &self.lanes[r % self.lanes.len()];
        lane.shared.processed.wait_at_least(lane.routed);
        self.shards[r].lock().expect("shard mutex poisoned")
    }

    /// Empties every lane outbox (call after [`LanePlane::barrier_all`]).
    fn drain_outboxes(&self) -> Vec<ObsOutcome> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            all.append(&mut lane.shared.outbox.lock().expect("lane outbox poisoned"));
        }
        all
    }

    /// The lock-free read path: score the query in `pool` against the
    /// answering replica's immutable tower cache (compressed replicas
    /// answer with their compressed towers, exactly as the twin's
    /// `query_now` does) and bound it with that replica's calibration
    /// snapshot — no shard lock, no queue, no waiting on writers.
    fn predict(&self, replica: usize, q: &DeadlineQuery, pool: usize) -> Prediction {
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
        let served = self.snapshots[replica].load();
        server::prediction(served.as_deref(), 0, &head_preds, pool)
    }
}

impl Replicas for LanePlane {
    fn quiesced<T>(&self, r: usize, f: impl FnOnce(&PitotServer) -> T) -> T {
        f(&self.shard(r))
    }

    fn replace(&mut self, r: usize, server: PitotServer) -> PitotServer {
        let old = std::mem::replace(&mut *self.shard(r), server);
        // The replacement serves no calibration until one is installed.
        self.snapshots[r] = SnapshotCell::new();
        old
    }

    fn install(&mut self, r: usize, served: Arc<Served>) {
        self.shard(r).install(Arc::clone(&served));
        self.snapshots[r].store(served);
    }
}

impl Drop for LanePlane {
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

impl ConcurrentFleet {
    /// Builds the concurrent fleet and spawns its lane workers (none in
    /// inline mode). Replicas are built as [`FleetServer::new`] builds
    /// them: per-replica refresh is overridden to "never" — the
    /// coordinator owns every install.
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
        let core = FleetControl::new(cfg.fleet, &trained);
        let shards: Arc<Vec<Mutex<PitotServer>>> = Arc::new(
            (0..replicas)
                .map(|r| Mutex::new(core.replica_server(r, trained.clone(), dataset.clone())))
                .collect(),
        );
        let read = Arc::new(ReadState {
            towers: (0..replicas)
                .map(|r| {
                    trained.compressed_tower_cache(dataset, &core.config().replica_compression(r))
                })
                .collect(),
            trained,
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
        Self {
            core,
            plane: LanePlane {
                workers,
                lanes,
                handles,
                shards,
                read,
                snapshots: (0..replicas).map(|_| SnapshotCell::new()).collect(),
                inline_batch: Vec::new(),
            },
            events_seen: 0,
            ingress_queries: 0,
        }
    }

    /// [`ConcurrentFleet::new`] with a deterministic fault schedule
    /// installed. Every plan [`FaultPlan::validate`] accepts runs here,
    /// bitwise-identically to [`FleetServer::with_faults`].
    ///
    /// # Panics
    ///
    /// As [`ConcurrentConfig::validate`] and [`FaultPlan::validate`].
    pub fn with_faults(
        trained: TrainedPitot,
        dataset: &Dataset,
        cfg: ConcurrentConfig,
        plan: FaultPlan,
    ) -> Self {
        plan.validate(cfg.fleet.replicas);
        let mut fleet = Self::new(trained.clone(), dataset, cfg);
        fleet.core.install_faults(plan, trained, dataset);
        fleet
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.plane.shards.len()
    }

    /// Effective lane worker count (1 = inline mode).
    pub fn workers(&self) -> usize {
        self.plane.workers
    }

    /// The replica a `(workload, platform)` pair is sharded to — the same
    /// pure hash as [`FleetServer::shard_for`].
    pub fn shard_for(&self, workload: u32, platform: u32) -> usize {
        self.core.shard_for(workload, platform)
    }

    /// Seeds every replica's calibration window from disjoint round-robin
    /// shards of `idx` and runs an immediate merge, as
    /// [`FleetServer::seed_calibration`] does.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty or contains an out-of-range index.
    pub fn seed_calibration(&mut self, idx: &[usize]) {
        for (r, set) in self.core.seed_sets(idx).iter().enumerate() {
            if set.is_empty() {
                continue;
            }
            let mut shard = self.plane.shard(r);
            shard.seed_calibration(set);
            // The seeded local fit is what the replica serves until the
            // merge below (or a later one) installs over it.
            if let Some(served) = shard.served() {
                self.plane.snapshots[r].store(Arc::clone(served));
            }
        }
        self.core.merge_now(&mut self.plane);
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
            outcomes.push(match ev {
                TraceEvent::Observe(obs) => {
                    let replica = self.shard_for(obs.workload, obs.platform);
                    let routed = self
                        .core
                        .route_observation(&mut self.plane, replica, obs.clone());
                    if let Some((obs, audit)) = routed {
                        self.plane.push(ShardCmd {
                            replica,
                            trace_idx: i as u32,
                            audit,
                            at_s,
                            obs,
                        });
                    }
                    self.core.after_observation(&mut self.plane);
                    // Placeholder; patched from the lane outboxes below.
                    TraceOutcome::Observed {
                        replica,
                        feedback: None,
                    }
                }
                TraceEvent::Deadline(q) => {
                    let (plane, core) = (&self.plane, &mut self.core);
                    let pool = core.config().serve.pool_key(q.interferers.len());
                    self.ingress_queries += 1;
                    TraceOutcome::Decided(core.deadline_query(q, |r| plane.predict(r, q, pool)))
                }
                TraceEvent::Resolve { id, realized_s } => {
                    TraceOutcome::Resolved(self.core.resolve(*id, *realized_s))
                }
            });
        }
        self.plane.barrier_all();
        for o in self.plane.drain_outboxes() {
            if let Some(fb) = &o.feedback {
                self.core.credit(o.audit, fb);
            }
            if let TraceOutcome::Observed { feedback, .. } = &mut outcomes[o.trace_idx as usize] {
                *feedback = o.feedback;
            }
        }
        outcomes
    }

    /// Runs a merge round now, exactly as [`FleetServer::merge_now`] does:
    /// each replica is read or installed into once its lane has drained,
    /// and every install is published to that replica's read-path
    /// snapshot.
    pub fn merge_now(&mut self) {
        self.core.merge_now(&mut self.plane);
    }

    /// Aggregated counters, assembled exactly as the twin's
    /// [`FleetServer::stats`] (each replica's counters are read once its
    /// lane has drained). Ingress-answered queries are folded into
    /// [`FleetStats::queries`].
    pub fn stats(&self) -> FleetStats {
        let mut s = self.core.stats(&self.plane);
        s.queries += self.ingress_queries;
        s
    }

    /// The degraded-window audit log (finalized at every
    /// [`ConcurrentFleet::run_trace`] boundary) — comparable to
    /// [`FleetServer::degraded_audit`].
    pub fn degraded_audit(&self) -> &[DegradedWindow] {
        self.core.degraded_audit()
    }

    /// The bounded rejected-summary audit ring, oldest first — comparable
    /// to [`FleetServer::rejected_audit`].
    pub fn rejected_audit(&self) -> &[RejectedSummary] {
        self.core.rejected_audit()
    }

    /// The currently installed fleet-level calibration — comparable to
    /// [`FleetServer::fleet_conformal`].
    pub fn fleet_conformal(&self) -> Option<Arc<PooledConformal>> {
        self.core
            .fleet_conformal()
            .map(|c| Arc::new(c.conformal.clone()))
    }

    /// Live per-lane progress counters, read lock-free off each lane's
    /// [`SeqLock`] — safe to poll from any thread while a trace runs.
    pub fn progress(&self) -> Vec<LaneProgress> {
        self.plane
            .lanes
            .iter()
            .map(|l| l.shared.progress.read())
            .collect()
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
}
