//! The real concurrent serving runtime — and its deterministic twin.
//!
//! Everything below [`crate::FleetServer`] runs on a simulated clock,
//! single-threaded: perfect for property tests, useless for the ROADMAP's
//! "heavy traffic from millions of users". [`ConcurrentFleet`] is the same
//! fleet semantics on OS threads:
//!
//! - **Sharded state behind MPSC lanes.** Replicas are grouped into lanes
//!   (`replica % lanes`); each lane owns an
//!   [`pitot_linalg::par::EventQueue`]. The ingress thread routes
//!   observations to their shard's lane and moves on; per-replica FIFO
//!   order is preserved by construction (one mutex-ordered queue per lane,
//!   one consumer).
//! - **The ingress owns lane 0.** Lanes 1.. each get a worker thread; lane
//!   0 gets none. The ingress drains its backlog itself whenever it settles
//!   that lane: at every barrier, and before it touches a lane-0 replica.
//!   So `n` lanes run `n − 1` threads beside the caller, and one lane (the
//!   inline mode) runs none — the ingress owns every replica.
//! - **Lane coalescing.** Whoever drains a lane takes *everything* pending
//!   in one swap and retires it in one step, the same for every lane: each
//!   destination replica's server gets its share of the batch, scores it
//!   with one row-parallel prediction pass into its own reused matrix and
//!   applies it in FIFO order (the code [`crate::PitotServer::on_event`]
//!   runs for a batch of one); then the outbox, and the lane's gauge last.
//!   The deeper the backlog, the bigger the batch.
//! - **A lock-free read path.** Deadline queries never touch shard state:
//!   the model and tower caches are immutable in fleet mode (fine-tuning is
//!   rejected by [`crate::FleetConfig::validate`]), so the read path holds
//!   the same `Arc`s the control core built and every replica server
//!   shares (a compressed replica answers from its level's cache), and
//!   each replica's served calibration is the `Arc` its last install
//!   shared with the shard. The ingress answers every query and makes
//!   every install, so that `Arc` lives on the ingress alone; lane workers
//!   hold only the shards and their own lane, so ownership keeps them from
//!   ever reaching it.
//! - **Barriered control.** Every control decision (merge, gossip, retry,
//!   rejoin, install) runs on the ingress thread in the fleet control core
//!   the simulated fleet also runs. The core reaches a replica only once
//!   its lane is settled: lane 0 drained by the ingress, any other lane
//!   waited on through its [`pitot_linalg::par::Gauge`] until its worker
//!   has retired the backlog. A drain that panics closes its lane's gauge,
//!   so the barrier fails naming the lane instead of parking forever.
//!
//! # The deterministic twin
//!
//! The simulated-clock [`crate::FleetServer`] stays on as the oracle:
//! [`run_trace_simulated`] feeds a [`TraceEvent`] sequence through it, and
//! the twin-equivalence property suite (`crates/serve/tests/twin.rs`)
//! asserts the concurrent runtime produces **bitwise-identical**
//! [`TraceOutcome`]s, [`crate::FleetStats`], and degraded-window and
//! rejected-summary audits for the same trace — across lane counts,
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
use pitot::{TowerCache, TrainedPitot};
use pitot_conformal::PooledConformal;
use pitot_linalg::par::{EventQueue, Gauge};
use pitot_linalg::Matrix;
use pitot_testbed::{Dataset, Observation};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

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
/// count.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Fleet semantics (replicas, per-replica serving config, merge
    /// cadence, admission policy) — every config the simulated
    /// [`FleetServer`] accepts.
    pub fleet: FleetConfig,
    /// Lane count `n`: replica `r` lives on lane `r % n`. The ingress
    /// thread drains lane 0 itself and every other lane gets one worker
    /// thread, so `n` lanes run `n − 1` threads beside the caller. `None`
    /// (the default) uses `pitot_linalg::par::threads()` lanes; `Some(1)`
    /// is the inline mode, where the ingress owns every lane and no thread
    /// is spawned (useful to compare lane counts inside one process, since
    /// the linalg pool size is latched process-wide). Capped at the replica
    /// count.
    pub workers: Option<usize>,
}

impl ConcurrentConfig {
    /// Defaults at miscoverage `epsilon` with the given replica count and
    /// automatic lane sizing.
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
             needs at least one lane; use Some(1) for the inline \
             single-threaded mode or None for automatic sizing"
        );
    }
}

/// A command routed to a lane: one observation bound for one replica, with
/// everything needed to apply it and report back.
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

/// A lane's report for one retired observation.
struct ObsOutcome {
    trace_idx: u32,
    audit: Option<usize>,
    feedback: Option<ObservedFeedback>,
}

/// Progress counters of one lane, updated with every retired batch
/// (see [`ConcurrentFleet::progress`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneProgress {
    /// Observations retired by this lane.
    pub processed: u64,
    /// Batches retired (each batch is one row-parallel predict pass per
    /// destination replica).
    /// Lane 0's batches are whatever the ingress finds pending when it
    /// settles the lane.
    pub batches: u64,
    /// Largest single coalesced batch so far.
    pub max_batch: u64,
}

/// What a lane has retired since the last barrier collected it, and its
/// counters — one mutex, taken once per retired batch.
#[derive(Default)]
struct Outbox {
    feedback: Vec<ObsOutcome>,
    progress: LaneProgress,
}

/// Per-lane plumbing shared by the ingress and the lane's drainer.
#[derive(Default)]
struct LaneShared {
    queue: EventQueue<ShardCmd>,
    /// Observations retired; closed if a drain panics.
    processed: Gauge,
    outbox: Mutex<Outbox>,
}

impl LaneShared {
    fn outbox(&self) -> MutexGuard<'_, Outbox> {
        self.outbox.lock().expect("lane outbox poisoned")
    }
}

struct Lane {
    shared: Arc<LaneShared>,
    /// Ingress-side count of commands routed to this lane (the barrier
    /// target for [`LaneShared::processed`]).
    routed: u64,
}

/// The lane data plane the control core drives: replica shards behind
/// MPSC lanes, the workers of lanes 1.., and the read path's model, tower
/// caches and per-replica served calibrations.
struct LanePlane {
    lanes: Vec<Lane>,
    /// Worker threads of lanes 1.. (the ingress drains lane 0).
    handles: Vec<JoinHandle<()>>,
    shards: Arc<Vec<Mutex<PitotServer>>>,
    /// The control core's model and per-replica tower caches.
    trained: Arc<TrainedPitot>,
    towers: Vec<Arc<TowerCache>>,
    /// Per replica: the calibration it serves — the `Arc` its last install
    /// shared with the shard. Only the ingress reaches it.
    served: Vec<Option<Arc<Served>>>,
    /// The read path's query row and prediction matrix, reused by every
    /// query.
    query: Observation,
    preds: Matrix,
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
            .field("lanes", &self.plane.lanes.len())
            .field("control", &self.core)
            .finish()
    }
}

/// Closes a lane's gauge when a panic unwinds through a retire, so a
/// barrier on that lane fails instead of parking forever.
struct CloseOnUnwind<'a>(&'a Gauge);

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// Retires one drained batch of `lane` — the one drain step of every lane,
/// whether the ingress or a worker runs it. Hands each destination
/// replica's server its share of the batch, in FIFO order, to score in one
/// pass and apply; posts feedback and counters to the outbox; and moves the
/// gauge last: once a barrier releases, the outbox already holds the batch.
/// Replicas are independent servers, outcomes are indexed by trace
/// position, and audit credits are sums, so the order replicas are applied
/// in within one batch changes nothing.
fn retire(shards: &[Mutex<PitotServer>], lane: &LaneShared, batch: &mut Vec<ShardCmd>) {
    let _close = CloseOnUnwind(&lane.processed);
    let n = batch.len() as u64;
    let mut out = Vec::with_capacity(batch.len());
    while let Some(r) = batch.first().map(|c| c.replica) {
        let start = out.len();
        out.extend(batch.iter().filter(|c| c.replica == r).map(|c| ObsOutcome {
            trace_idx: c.trace_idx,
            audit: c.audit,
            feedback: None,
        }));
        let mut slots = out[start..].iter_mut();
        let share = batch
            .extract_if(.., |c| c.replica == r)
            .map(|c| (c.at_s, c.obs));
        shards[r]
            .lock()
            .expect("shard mutex poisoned")
            .observe_batch(share, |resp| {
                slots.next().expect("one response per arrival").feedback = resp.observed;
            });
    }
    let mut outbox = lane.outbox();
    outbox.feedback.append(&mut out);
    let p = &mut outbox.progress;
    p.processed += n;
    p.batches += 1;
    p.max_batch = p.max_batch.max(n);
    drop(outbox);
    lane.processed.add(n);
}

/// The worker loop of lanes 1..: park until commands (or shutdown), drain
/// everything pending, retire it, repeat.
fn lane_worker(shards: Arc<Vec<Mutex<PitotServer>>>, lane: Arc<LaneShared>) {
    let mut batch: Vec<ShardCmd> = Vec::new();
    while lane.queue.drain_into(&mut batch) {
        retire(&shards, &lane, &mut batch);
    }
}

impl LanePlane {
    /// Routes one command to its replica's lane.
    fn push(&mut self, cmd: ShardCmd) {
        let n_lanes = self.lanes.len();
        let lane = &mut self.lanes[cmd.replica % n_lanes];
        lane.routed += 1;
        assert!(
            lane.shared.queue.push(cmd),
            "lane queue closed while the fleet is live"
        );
    }

    /// Settles lane `k`: on return, every observation routed to it has been
    /// retired. The ingress drains lane 0 itself; any other lane is waited
    /// on until its worker has drained it.
    ///
    /// # Panics
    ///
    /// Panics, naming the lane, if a panic killed the lane's drain before
    /// it retired its backlog.
    fn settle(&self, k: usize) {
        let lane = &self.lanes[k];
        if k == 0 {
            let mut batch = Vec::new();
            if lane.shared.queue.try_drain_into(&mut batch) > 0 {
                retire(&self.shards, &lane.shared, &mut batch);
            }
        }
        assert!(
            lane.shared.processed.wait_at_least(lane.routed),
            "lane {k} died retiring a batch: {} of its {} routed observations \
             were retired before a panic stopped its drain",
            lane.shared.processed.get(),
            lane.routed
        );
    }

    /// Settles every lane, lane 0 first, so the ingress drains its own
    /// lane while the workers drain theirs.
    fn barrier_all(&self) {
        (0..self.lanes.len()).for_each(|k| self.settle(k));
    }

    /// Replica `r`'s server, locked once its lane is settled.
    fn shard(&self, r: usize) -> MutexGuard<'_, PitotServer> {
        self.settle(r % self.lanes.len());
        self.shards[r].lock().expect("shard mutex poisoned")
    }

    /// Empties every lane outbox (call after [`LanePlane::barrier_all`]).
    fn drain_outboxes(&self) -> Vec<ObsOutcome> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            all.append(&mut lane.shared.outbox().feedback);
        }
        all
    }

    /// The lock-free read path: score the query in `pool` against the
    /// answering replica's tower cache (compressed replicas answer with
    /// their level's cache, exactly as the twin's `query_now` does) and
    /// bound it with that replica's served calibration — no shard lock, no
    /// queue, no waiting on a lane. Like `query_now`, it is one pass over
    /// the point head and the pool's bound head into a reused row and
    /// matrix.
    fn predict(&mut self, replica: usize, q: &DeadlineQuery, pool: usize) -> Prediction {
        server::refill(&mut self.query, q.workload, q.platform, &q.interferers);
        let served = self.served[replica].as_deref();
        let head = server::bound_head(served, pool, self.trained.model.n_heads());
        self.trained.predict_log_heads_into(
            &self.towers[replica],
            std::slice::from_ref(&self.query),
            &[0],
            |_| head,
            &mut self.preds,
        );
        server::prediction(served, self.preds.row(0), pool)
    }
}

impl Replicas for LanePlane {
    fn quiesced<T>(&self, r: usize, f: impl FnOnce(&PitotServer) -> T) -> T {
        f(&self.shard(r))
    }

    fn replace(&mut self, r: usize, server: PitotServer) -> PitotServer {
        let old = std::mem::replace(&mut *self.shard(r), server);
        // The replacement serves no calibration until one is installed.
        self.served[r] = None;
        old
    }

    fn install(&mut self, r: usize, served: Arc<Served>) {
        self.shard(r).install(Arc::clone(&served));
        self.served[r] = Some(served);
    }
}

impl Drop for LanePlane {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.shared.queue.close();
        }
        for h in self.handles.drain(..) {
            // A worker that panicked already failed its lane's barrier;
            // don't double-panic in drop.
            let _ = h.join();
        }
    }
}

impl ConcurrentFleet {
    /// Builds the concurrent fleet and spawns the workers of lanes 1..
    /// (none in inline mode). Replicas are built as [`FleetServer::new`]
    /// builds them, over one shared model, dataset and tower cache per
    /// compression level: per-replica refresh is overridden to "never" —
    /// the coordinator owns every install.
    ///
    /// # Panics
    ///
    /// As [`ConcurrentConfig::validate`].
    pub fn new(trained: TrainedPitot, dataset: &Dataset, cfg: ConcurrentConfig) -> Self {
        cfg.validate();
        let replicas = cfg.fleet.replicas;
        let n_lanes = cfg
            .workers
            .unwrap_or_else(pitot_linalg::par::threads)
            .min(replicas)
            .max(1);
        let core = FleetControl::new(cfg.fleet, trained, dataset);
        let shards: Arc<Vec<Mutex<PitotServer>>> = Arc::new(
            (0..replicas)
                .map(|r| Mutex::new(core.replica_server(r)))
                .collect(),
        );
        let lanes: Vec<Lane> = (0..n_lanes)
            .map(|_| Lane {
                shared: Arc::default(),
                routed: 0,
            })
            .collect();
        let handles = lanes[1..]
            .iter()
            .map(|lane| {
                let shards = Arc::clone(&shards);
                let shared = Arc::clone(&lane.shared);
                std::thread::Builder::new()
                    .name("pitot-serve-lane".to_string())
                    .spawn(move || lane_worker(shards, shared))
                    .expect("spawning lane worker")
            })
            .collect();
        let plane = LanePlane {
            lanes,
            handles,
            shards,
            trained: Arc::clone(core.trained()),
            towers: core.towers().to_vec(),
            served: vec![None; replicas],
            query: server::query_row(),
            preds: Matrix::default(),
        };
        Self {
            core,
            plane,
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
        let mut fleet = Self::new(trained, dataset, cfg);
        fleet.core.install_faults(plan);
        fleet
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.plane.shards.len()
    }

    /// This fresh fleet with replicas that keep every head: the all-heads
    /// oracle a kept-heads fleet is pinned to.
    #[cfg(test)]
    pub(crate) fn keeping_all_heads(mut self) -> Self {
        self.core.keep_all_heads();
        for r in 0..self.n_replicas() {
            let server = self.core.replica_server(r);
            self.plane.replace(r, server);
        }
        self
    }

    /// Effective lane count: the resolved [`ConcurrentConfig::workers`].
    /// The ingress drains lane 0, so `workers() - 1` worker threads run
    /// (none in the inline mode, `workers() == 1`).
    pub fn workers(&self) -> usize {
        self.plane.lanes.len()
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
            let seeded = {
                let mut shard = self.plane.shard(r);
                shard.seed_calibration(set);
                shard.served().cloned()
            };
            // The seeded local fit is what the replica serves until the
            // merge below (or a later one) installs over it.
            if seeded.is_some() {
                self.plane.served[r] = seeded;
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
                    let (plane, core) = (&mut self.plane, &mut self.core);
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
    /// each replica is read or installed into once its lane is settled,
    /// and the read path answers from each install from then on.
    pub fn merge_now(&mut self) {
        self.core.merge_now(&mut self.plane);
    }

    /// Aggregated counters, assembled exactly as the twin's
    /// [`FleetServer::stats`] (each replica's counters are read once its
    /// lane is settled). Ingress-answered queries are folded into
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
    pub fn fleet_conformal(&self) -> Option<&PooledConformal> {
        self.core.fleet_conformal()
    }

    /// Per-lane progress counters, lane 0 (the ingress's) first. Final at
    /// every [`ConcurrentFleet::run_trace`] boundary, where every lane is
    /// settled.
    pub fn progress(&self) -> Vec<LaneProgress> {
        self.plane
            .lanes
            .iter()
            .map(|l| l.shared.outbox().progress)
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

    /// The small testbed, its split, and a four-head model trained briefly.
    fn fixture() -> &'static (Dataset, pitot_testbed::split::Split, TrainedPitot) {
        static FIXTURE: std::sync::OnceLock<(Dataset, pitot_testbed::split::Split, TrainedPitot)> =
            std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let tb = pitot_testbed::Testbed::generate(&pitot_testbed::TestbedConfig::small());
            let dataset = tb.collect_dataset();
            let split = pitot_testbed::split::Split::stratified(&dataset, 0.6, 0);
            let mut model = pitot::PitotConfig::tiny();
            model.objective = pitot::Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
            model.steps = 300;
            let trained = pitot::train(&dataset, &split, &model);
            (dataset, split, trained)
        })
    }

    /// A seeded trace of `n` events over the test split: observations,
    /// deadline queries with unique ids, and resolves of pending queries.
    fn trace(seed: u64, n: usize) -> Vec<TraceEvent> {
        use rand::{Rng, SeedableRng};
        let (dataset, split, _) = fixture();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut pending: Vec<(u64, f64)> = Vec::new();
        (0..n as u64)
            .map(|id| {
                let obs = &dataset.observations[split.test[rng.gen_range(0..split.test.len())]];
                let draw: f32 = rng.gen_range(0.0..1.0);
                if draw < 0.6 {
                    TraceEvent::Observe(obs.clone())
                } else if draw < 0.85 || pending.is_empty() {
                    pending.push((id, f64::from(obs.runtime_s)));
                    TraceEvent::Deadline(DeadlineQuery {
                        id,
                        workload: obs.workload,
                        platform: obs.platform,
                        interferers: obs.interferers.clone(),
                        deadline_s: f64::from(obs.runtime_s) * rng.gen_range(0.75..3.0),
                    })
                } else {
                    let (id, realized_s) = pending.swap_remove(rng.gen_range(0..pending.len()));
                    TraceEvent::Resolve { id, realized_s }
                }
            })
            .collect()
    }

    #[test]
    fn fleets_keeping_heads_match_their_all_heads_oracles() {
        // Staleness tracking keeps a third head. Under an outage without
        // gossip, stale fallbacks fit at the widened ε; under one with
        // gossip, views are joined and fitted; crashed replicas rejoin by
        // replaying the coordinator's kept-head runs; dropped and delayed
        // summaries are retried. Every outcome, every replica's served
        // calibration, the fleet fit, the counters and the audits equal
        // those of the same fleet keeping every head, in both executors.
        let (dataset, split, trained) = fixture();
        let mut fleet = cfg(3).fleet;
        fleet.serve.drift_min = 32;
        fleet.serve.staleness_threshold = 32;
        let events = trace(7, 520);
        let mut stale = FaultPlan::none(41)
            .coordinator_outage(40, 220)
            .crash(1, 60, 150)
            .drop_summaries(0.2)
            .delay_summaries(0.1, 2);
        stale.gossip_during_outage = false;
        let gossip = FaultPlan::none(43)
            .coordinator_outage(250, 340)
            .crash(2, 100, 300)
            .drop_summaries(0.1);
        for plan in [stale, gossip] {
            let sim =
                || FleetServer::with_faults(trained.clone(), dataset, fleet.clone(), plan.clone());
            let (mut kept, mut oracle) = (sim(), sim().keeping_all_heads());
            assert_eq!(kept.replica(0).kept_heads(), [0, 2, 3]);
            assert_eq!(oracle.replica(0).kept_heads(), [0, 1, 2, 3]);
            kept.seed_calibration(&split.val);
            oracle.seed_calibration(&split.val);
            for (i, ev) in events.iter().enumerate() {
                let ev = std::slice::from_ref(ev);
                assert_eq!(
                    format!("{:?}", run_trace_simulated(&mut kept, i as f64, ev)),
                    format!("{:?}", run_trace_simulated(&mut oracle, i as f64, ev)),
                    "event {i}"
                );
                for r in 0..kept.n_replicas() {
                    assert_eq!(
                        format!("{:?}", kept.replica(r).conformal()),
                        format!("{:?}", oracle.replica(r).conformal()),
                        "replica {r} after event {i}"
                    );
                }
            }
            let s = kept.stats();
            assert_eq!(s, oracle.stats());
            assert!(s.recoveries > 0 && s.retried_summaries > 0, "{s:?}");
            assert!(s.fallback_refits + s.gossip_rounds > 0, "{s:?}");
            assert_eq!(kept.degraded_audit(), oracle.degraded_audit());
            assert_eq!(kept.rejected_audit(), oracle.rejected_audit());
            assert_eq!(
                format!("{:?}", kept.fleet_conformal()),
                format!("{:?}", oracle.fleet_conformal())
            );

            for workers in [1, 2] {
                let ccfg = ConcurrentConfig {
                    fleet: fleet.clone(),
                    workers: Some(workers),
                };
                let conc = || {
                    ConcurrentFleet::with_faults(
                        trained.clone(),
                        dataset,
                        ccfg.clone(),
                        plan.clone(),
                    )
                };
                let (mut kept, mut oracle) = (conc(), conc().keeping_all_heads());
                kept.seed_calibration(&split.val);
                oracle.seed_calibration(&split.val);
                assert_eq!(
                    format!("{:?}", kept.run_trace(&events)),
                    format!("{:?}", oracle.run_trace(&events)),
                    "{workers} lanes"
                );
                assert_eq!(kept.stats(), oracle.stats());
                assert_eq!(kept.degraded_audit(), oracle.degraded_audit());
                assert_eq!(kept.rejected_audit(), oracle.rejected_audit());
                assert_eq!(
                    format!("{:?}", kept.fleet_conformal()),
                    format!("{:?}", oracle.fleet_conformal())
                );
            }
        }
    }
}
