//! Online serving for Pitot: streaming predictions with sliding-window
//! conformal recalibration.
//!
//! The paper's deployment story is an edge orchestrator consuming calibrated
//! runtime bounds *as new observations stream in* (Sec 1; the Conclusion
//! names efficient online updates as the main extension). This crate closes
//! that loop on top of the enablers the rest of the workspace provides:
//!
//! - **Streaming events on a simulated clock.** A [`PitotServer`] consumes
//!   [`Event`]s — arriving [`pitot_testbed::Observation`]s and placement
//!   queries — at monotone simulated timestamps, fully deterministically:
//!   the same event sequence always produces bitwise-identical predictions.
//! - **Micro-batched queries.** Queries buffer until
//!   [`ServeConfig::microbatch`] of them are pending (or a flush), then are
//!   answered in one row-parallel `predict_batch_into` pass over the cached
//!   tower outputs.
//! - **A sliding calibration window.** Every observation's nonconformity
//!   scores enter a [`pitot_conformal::WindowedScores`] ring (the moving
//!   calibration set of Gui et al.'s *conformalized matrix completion*);
//!   refreshing the served [`pitot_conformal::PooledConformal`] is a rank
//!   lookup over the incrementally maintained sorted slices, cheap enough to
//!   run once per observation.
//! - **Drift-triggered warm-start fine-tunes.** A rolling coverage monitor
//!   ([`CoverageMonitor`], binomial-slack test) watches prequential coverage
//!   of the served bounds; when it degrades beyond sampling noise the server
//!   fine-tunes its model in place via [`pitot::TrainContext::resume`] — no
//!   setup cost, no scaling refit — then re-scores the window under the
//!   updated model.
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
//! - **SLO-aware admission.** Deadline-carrying queries are admitted or
//!   shed by the conformal bound's upper edge ([`AdmissionQueue`]): the
//!   first place the served intervals drive a control decision, with
//!   shed/admit decisions recorded and scored against realized runtimes.
//! - **Fault injection and degraded-mode serving.** A seeded, schedule-based
//!   [`FaultPlan`] ([`FleetServer::with_faults`]) injects replica crashes,
//!   coordinator outages, and dropped/delayed merge summaries; the fleet
//!   degrades along a ladder — fleet calibration → pairwise gossip CRDT
//!   merges → staleness-triggered local fallback with honestly widened
//!   intervals ([`ServeConfig::staleness_threshold`]) — and crashed
//!   replicas rejoin *warm* by replaying the coordinator's held window
//!   summary. Every fault window is audited ([`DegradedWindow`]) so
//!   coverage/SLO loss is attributable. See `docs/RESILIENCE.md`.
//! - **Trustworthy telemetry (fail-noisy, not fail-stop).** The same
//!   [`FaultPlan`] can corrupt the *data* instead of the links: NaN/Inf
//!   and negative runtimes, scale-outlier bursts, replayed and
//!   clock-skewed summaries, and a Byzantine replica emitting bogus score
//!   segments. Defenses are layered: an ingest guard
//!   ([`ServeConfig::ingest_guard`]) validates and MAD-screens every
//!   observation, quarantining suspects into an audited side buffer
//!   ([`GuardStats`], [`QuarantineRecord`]) instead of silently dropping
//!   them; the coordinator verifies per-segment checksums and sanity
//!   invariants before absorbing any summary, so a Byzantine replica
//!   degrades only itself; and a miscoverage watchdog
//!   ([`ServeConfig::watchdog_z`]) catches poisoning the guards missed,
//!   rolling the window back through a quarantine rescore
//!   ([`WatchdogIncident`]).
//! - **A real concurrent runtime with a deterministic twin.** A
//!   [`ConcurrentFleet`] runs the same fleet semantics on OS threads:
//!   sharded replica state behind per-lane MPSC event queues
//!   ([`pitot_linalg::par::EventQueue`]), micro-batch coalescing into the
//!   row-parallel predict path, and a lock-free snapshot read path
//!   ([`SnapshotCell`], [`SeqLock`]) so admission and prediction never
//!   block on window writes or calibration installs. The simulated-clock
//!   [`FleetServer`] stays on as the deterministic twin: the same
//!   [`TraceEvent`] sequence through both runtimes yields bitwise-identical
//!   outcomes and audit counters ([`run_trace_simulated`]) under every
//!   [`FaultPlan`], property-tested across `PITOT_THREADS`. The twin holds
//!   by construction: both runtimes drive one fleet control core, which
//!   makes every control decision on the ingress thread. See
//!   `docs/SERVING.md`.
//! - **Compressed inference towers.** Any replica can serve from a
//!   compressed model ([`ServeConfig::compression`],
//!   [`FleetConfig::compression`]): magnitude-pruned weights, weights
//!   rounded to int8 grids ([`pitot::CompressionSpec`]), or both.
//!   Compression only swaps the frozen tower cache a replica scores with
//!   — the conformal machinery recalibrates on the compressed model's own
//!   residuals, so coverage is restored at every compression level and
//!   the interval *width* absorbs the compression error (`ext-compress`
//!   measures the trade). Compressed replicas rejoin
//!   crashes compressed and replay bitwise in the concurrent runtime.
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
//! let fb = server.on_event(1.0, Event::Observe(obs)).observed.unwrap();
//! assert!(fb.bound_log.is_finite());
//! let out = server.on_event(2.0, Event::Flush);
//! assert!(out.predictions.is_empty()); // nothing was queued yet
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
// The snapshot read-path cells are the serving layer's only sanctioned
// `unsafe` (alongside `pitot_linalg`'s kernels/pool): two small left-right /
// seqlock protocols with the safety arguments spelled out inline and
// stress-tested for torn reads. Everything else in this crate stays under
// the workspace-wide `unsafe_code = "deny"`.
#[allow(unsafe_code)]
mod snapshot;

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
pub use snapshot::{SeqLock, SnapshotCell};
