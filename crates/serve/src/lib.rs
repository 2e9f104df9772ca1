//! Online serving for Pitot: streaming predictions with sliding-window
//! conformal recalibration.
//!
//! The paper's deployment story is an edge orchestrator consuming calibrated
//! runtime bounds *as new observations stream in* (Sec 1; the Conclusion
//! names efficient online updates as the main extension). This crate closes
//! that loop on top of the enablers the rest of the workspace provides:
//!
//! - **Streaming events on a simulated clock.** A [`PitotServer`] consumes
//!   [`Event`]s — arriving [`pitot_testbed::Observation`]s — at monotone
//!   simulated timestamps, and answers reads synchronously
//!   ([`PitotServer::query_now`] for one row, [`PitotServer::query_batch`]
//!   for many, [`ServingPredictor`] for a placement policy), fully
//!   deterministically: the same event and read sequence always produces
//!   bitwise-identical predictions.
//! - **One scoring pass.** Every row a server scores goes through one
//!   row-parallel pass over the cached tower outputs into a row-major
//!   matrix the server reuses, so warm reads and warm observations
//!   allocate no matrix, through one read
//!   ([`pitot::TrainedPitot::predict_log_heads_into`]) of a head list plus
//!   one head per row. A read scores two heads per row: the point head,
//!   and the head the row's pool is calibrated on. An arriving observation
//!   scores the heads its window keeps ([`PitotServer::kept_heads`]: head
//!   0 and the heads the served selection picks) plus the head its judged
//!   bound reads; a seed or a fine-tune rescore scores the kept heads.
//!   A placement read through [`ServingPredictor`] is the same pass with
//!   its inner products looked up in the tower cache's completed-matrix
//!   tables ([`pitot::TrainedPitot::lookup_log_heads_into`]), which its
//!   site's few platforms fill once; every other pass computes them, so a
//!   fleet, whose traffic spreads over every platform, builds no table.
//! - **A sliding calibration window.** Every observation's nonconformity
//!   scores of the kept heads enter a [`pitot_conformal::WindowedScores`]
//!   ring (the moving
//!   calibration set of Gui et al.'s *conformalized matrix completion*);
//!   refreshing the served [`pitot_conformal::PooledConformal`] is a rank
//!   lookup over the incrementally maintained sorted slices, cheap enough to
//!   run once per observation.
//! - **Drift-triggered warm-start fine-tunes.** A rolling coverage monitor
//!   ([`CoverageMonitor`], binomial-slack test) watches prequential coverage
//!   of the served bounds; when it degrades beyond sampling noise the server
//!   fine-tunes its model in place, then re-scores the window under the
//!   updated model. The first fine-tune, the first after a compaction, and
//!   any after the streamed set has grown by
//!   [`ServeConfig::REBUILD_GROWTH`] build a fresh
//!   [`pitot::TrainContext::warm_start`], with offsets for new entities from
//!   [`pitot::ScalingBaseline::extend`]; the others resume the existing
//!   context ([`pitot::TrainContext::resume`]) with no setup cost.
//! - **A closed loop with the placement simulator.**
//!   [`run_closed_loop`] drives
//!   [`pitot_orchestrator::ClusterSim::run_with_observer`]: the server's
//!   bounds place jobs, realized runtimes stream back as observations, and
//!   the calibration window tracks the deployment distribution instead of a
//!   frozen holdout.
//! - **Multi-replica fleets.** A [`FleetServer`] shards disjoint event
//!   streams over N replica servers; a coordinator merges their window
//!   summaries ([`pitot_conformal::MergeableWindow`], a CRDT of sorted-run
//!   segments) on a cadence and installs one fleet-level calibration —
//!   bitwise identical to what a centralized server holding the union
//!   would fit.
//! - **SLO-aware admission.** A deadline-carrying query is admitted iff
//!   the conformal bound's upper edge fits its deadline and the backlog
//!   has room ([`AdmissionQueue`]): the first place the served intervals
//!   drive a control decision, with shed/admit decisions recorded and
//!   scored against realized runtimes.
//! - **Fault injection and degraded-mode serving.** A seeded, schedule-based
//!   [`FaultPlan`] ([`FleetServer::with_faults`]) injects replica crashes,
//!   coordinator outages, and dropped/delayed merge summaries; the fleet
//!   degrades along a ladder — fleet calibration → pairwise gossip CRDT
//!   merges → staleness-triggered local fallback with honestly widened
//!   intervals ([`ServeConfig::staleness_threshold`]), installed at merge
//!   ticks — and crashed replicas rejoin *warm* by replaying the
//!   coordinator's held window summary. Every fault window is audited
//!   ([`DegradedWindow`]) so coverage/SLO loss is attributable. See
//!   `docs/RESILIENCE.md`.
//! - **Trustworthy telemetry (fail-noisy, not fail-stop).** The same
//!   [`FaultPlan`] can corrupt the *data* instead of the links: NaN/Inf
//!   and negative runtimes, scale-outlier bursts, replayed and
//!   clock-skewed summaries, and a Byzantine replica emitting bogus score
//!   segments. Defenses are layered: every server quarantines corrupt
//!   runtimes and an ingest guard ([`ServeConfig::ingest_guard`])
//!   MAD-screens every observation, both into an audited side buffer
//!   ([`GuardStats`], [`QuarantineRecord`]) instead of panicking or
//!   silently dropping; the coordinator verifies per-segment checksums and sanity
//!   invariants before absorbing any summary, so a Byzantine replica
//!   degrades only itself; and a miscoverage watchdog
//!   ([`ServeConfig::watchdog_z`]) catches poisoning the guards missed,
//!   rolling the window back through a quarantine rescore
//!   ([`WatchdogIncident`]).
//! - **A real concurrent runtime with a deterministic twin.** A
//!   [`ConcurrentFleet`] runs the same fleet semantics on OS threads:
//!   sharded replica state behind per-lane MPSC event queues
//!   ([`pitot_linalg::par::EventQueue`]), lane 0 drained by the ingress
//!   thread itself and every other lane by one worker thread, lane
//!   coalescing that hands each replica's server its share of a drained
//!   batch to score in one row-parallel pass, and a lock-free read path:
//!   admission and prediction answer from the fleet's shared immutable
//!   model and towers and each replica's last installed calibration, so
//!   they never block on window writes or a lane's backlog. The
//!   simulated-clock [`FleetServer`] stays on as the deterministic twin:
//!   the same [`TraceEvent`] sequence through both runtimes yields
//!   bitwise-identical outcomes and audit counters
//!   ([`run_trace_simulated`]) under every [`FaultPlan`] and every
//!   [`ServeConfig`], property-tested across `PITOT_THREADS`. The twin holds by construction: both runtimes drive
//!   one fleet control core, which makes every control decision on the
//!   ingress thread, and every change to a replica's served calibration is
//!   an install that core makes at a barrier. See `docs/SERVING.md`.
//! - **Compressed inference towers.** Any fleet replica can serve from a
//!   compressed model ([`FleetConfig::compression`]): magnitude-pruned
//!   weights, weights rounded to int8 grids ([`pitot::CompressionSpec`]),
//!   or both. Compression only swaps the frozen tower cache a replica
//!   scores with — the conformal machinery recalibrates on the compressed
//!   model's own residuals, so coverage is restored at every compression
//!   level and the interval *width* absorbs the compression error
//!   (`ext-compress` measures the trade). A fleet holds one model and
//!   dataset and one tower cache per distinct level, shared by every
//!   replica; compressed replicas rejoin crashes compressed over their
//!   level's cache and replay bitwise in the concurrent runtime.
//!
//! # Examples
//!
//! ```
//! use pitot::{train, Objective, PitotConfig};
//! use pitot_serve::{Event, PitotServer, ServeConfig};
//! use pitot_testbed::{split::Split, Testbed, TestbedConfig};
//!
//! let testbed = Testbed::generate(&TestbedConfig::small());
//! let dataset = testbed.collect_dataset();
//! let split = Split::stratified(&dataset, 0.6, 0);
//! let mut cfg = PitotConfig::tiny();
//! cfg.objective = Objective::Quantiles(vec![0.5, 0.9]);
//! cfg.steps = 120;
//! let trained = train(&dataset, &split, &cfg);
//!
//! let mut server = PitotServer::new(trained, dataset.clone(), ServeConfig::at(0.1));
//! server.seed_calibration(&split.val);
//! // Stream: an observation arrives, then a query is answered.
//! let obs = dataset.observations[split.test[0]].clone();
//! let (workload, platform) = (obs.workload, obs.platform);
//! let fb = server.on_event(1.0, Event::Observe(obs)).observed.unwrap();
//! assert!(fb.bound_log.is_finite());
//! let p = server.query_now(workload, platform, &[]);
//! assert!(p.bound_s.is_finite());
//! assert_eq!(server.stats().queries, 1);
//! ```

// Every public item in this crate is part of the documented serving API;
// keep it that way (CI builds rustdoc with `-D warnings`).
#![deny(missing_docs)]

mod admission;
mod closed_loop;
mod concurrent;
mod config;
mod control;
mod drift;
mod fault;
mod fleet;
mod guard;
mod server;

pub use admission::{
    AdmissionConfig, AdmissionDecision, AdmissionQueue, AdmissionStats, ShedReason,
};
pub use closed_loop::{run_closed_loop, ServingPredictor};
pub use concurrent::{
    run_trace_simulated, ConcurrentConfig, ConcurrentFleet, LaneProgress, TraceEvent, TraceOutcome,
};
pub use config::{FleetConfig, ServeConfig};
pub use drift::CoverageMonitor;
pub use fault::{
    ByzantineReplica, CoordinatorOutage, DegradedCause, DegradedWindow, FaultPlan, RejectCause,
    RejectedSummary, ReplicaCrash,
};
pub use fleet::{AdmissionOutcome, DeadlineQuery, FleetServer, FleetStats};
pub use guard::{GuardStats, QuarantineCause, QuarantineRecord, WatchdogIncident};
pub use server::{Event, ObservedFeedback, PitotServer, Prediction, ServeResponse, ServeStats};
