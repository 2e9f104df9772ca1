//! Deadline-aware edge orchestration on top of Pitot runtime predictions.
//!
//! The paper's introduction motivates runtime prediction with edge
//! orchestration: "an industrial controller on a manufacturing line may need
//! to complete within a given timeframe with high probability", and
//! orchestration frameworks "aim to ensure workload performance by placing
//! them on different available platforms" (Sec 1). This crate closes that
//! loop: it implements the placement problem those frameworks solve and shows
//! how point predictions versus calibrated bounds change placement quality.
//!
//! The pieces:
//!
//! - [`Job`]s arrive over time, each a workload from the testbed catalog with
//!   a completion deadline ([`JobStream`] generates Poisson-ish arrivals with
//!   feasible-but-tight deadlines);
//! - a [`RuntimePredictor`] answers "how long would workload `i` take on
//!   platform `j` next to the set `K`?" — either cheating
//!   ([`OraclePredictor`]), via the scaling baseline alone
//!   ([`ScalingPredictor`]), or via a trained Pitot model with optional
//!   conformal bounds ([`PitotPredictor`], which computes the towers once
//!   and reads each query's median head, or for a bound the head its
//!   pool's bound is calibrated on, from
//!   `pitot::TrainedPitot::lookup_log_heads_into`, whose inner products
//!   come from per-(platform, head) tables it fills once) — one row at a
//!   time, or a whole [`QueryBatch`] of rows in one read;
//! - a [`PlacementPolicy`] (the pluggable trait) turns predictions into
//!   placement decisions; [`BaselinePolicy`] ships the built-in family
//!   (random / least-loaded / greedy-fastest / deadline-aware), and the
//!   `pitot-sched` crate adds conformal risk-scoring policies;
//! - [`ClusterSim`] replays the stream against the testbed's ground truth
//!   with a rate-based interference model: co-located jobs slow each other
//!   down exactly as the data-collection physics dictate, so a policy that
//!   ignores interference pays for it;
//! - [`SimReport`] aggregates deadline violations, response times, and
//!   utilization;
//! - [`SiteFault`] windows ([`ClusterSim::with_site_faults`]) schedule
//!   fail-stop platform outages mid-run: running jobs are killed and
//!   re-queued (counted as [`SimReport::preemptions`]), and the platform
//!   offers no slots until its restore time — the cluster-side half of the
//!   fault-injection story (`pitot_serve::FaultPlan` is the serving half).
//!
//! The headline experiment (`pitot-repro orchestration`): a deadline-aware
//! policy driven by Pitot's conformal bounds at miscoverage ε keeps the
//! violation rate near ε while sustaining far higher goodput than
//! interference-blind greedy placement.
//!
//! # Examples
//!
//! ```
//! use pitot_orchestrator::{BaselinePolicy, ClusterSim, JobStream, OraclePredictor};
//! use pitot_testbed::{Testbed, TestbedConfig};
//!
//! let testbed = Testbed::generate(&TestbedConfig::small());
//! let jobs = JobStream::generate(&testbed, 50, 4.0, 0);
//! let oracle = OraclePredictor::new(&testbed);
//! let mut sim = ClusterSim::new(&testbed);
//! let report = sim.run(&jobs, &mut BaselinePolicy::greedy_fastest(), &oracle);
//! assert_eq!(report.completed, 50);
//! ```
//!
//! For the *online* story — completions streaming back into a predictor
//! that recalibrates mid-run — see [`ClusterSim::run_with_observer`] and
//! the `pitot-serve` crate built on top of it.

// Every public item in this crate is part of the documented orchestration
// API; keep it that way (CI builds rustdoc with `-D warnings`).
#![deny(missing_docs)]

mod job;
mod policy;
mod predictor;
mod report;
mod sim;

pub use job::{Job, JobStream};
pub use policy::{BaselinePolicy, PlacementPolicy, PolicyKind};
pub use predictor::{
    OraclePredictor, PitotPredictor, QueryBatch, RuntimePredictor, ScalingPredictor,
};
pub use report::{PolicyComparison, SimReport};
pub use sim::{ClusterSim, ClusterView, PlatformLoad, RunningJob, SiteFault, DEFAULT_CAPACITY};
