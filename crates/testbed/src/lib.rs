//! Synthetic heterogeneous WebAssembly edge-cluster simulator.
//!
//! The Pitot paper (MLSys 2025) evaluates on a physical cluster of 24 devices
//! running 249 WebAssembly benchmarks under 10 runtime configurations, with
//! up to three background workloads interfering (410,970 observations in
//! total). That testbed cannot ship with a reproduction, so this crate builds
//! the closest synthetic equivalent:
//!
//! - [`Device`]s mirror the paper's Table 2 (vendor, microarchitecture,
//!   frequency, cache hierarchy) and carry latent performance traits;
//! - [`RuntimeConfig`]s mirror Table 3 (interpreters, JIT and AOT compilers);
//! - [`Workload`]s are grouped into the paper's six benchmark suites, each
//!   with a synthetic opcode-count profile (the paper's workload features);
//! - a [`GroundTruth`] model composes workload difficulty, platform speed,
//!   low-rank workload×platform affinity, a contention-based interference
//!   model with threshold effects, and heteroscedastic lognormal noise;
//! - [`Dataset`] collects isolation and 2/3/4-way interference observations
//!   with timeout/crash exclusions, exactly like the paper's App C.3
//!   collection procedure;
//! - [`split::Split`] produces the replicated train/validation/test splits
//!   used throughout the evaluation (Sec 5.1).
//!
//! The simulator is seeded and fully deterministic: the same
//! [`TestbedConfig`] always yields the same cluster and dataset.
//!
//! # Examples
//!
//! ```
//! use pitot_testbed::{Testbed, TestbedConfig};
//!
//! let testbed = Testbed::generate(&TestbedConfig::small());
//! let dataset = testbed.collect_dataset();
//! assert!(dataset.observations.len() > 1000);
//! assert_eq!(dataset.workload_features.rows(), testbed.workloads().len());
//! ```

// Every public item in this crate is part of the documented workspace
// API; keep it that way (CI builds rustdoc with `-D warnings`).
#![deny(missing_docs)]

mod config;
mod device;
mod features;
mod io;
mod observe;
mod runtime;
pub mod shift;
pub mod split;
mod stats;
mod testbed;
mod truth;
mod workload;

pub use config::TestbedConfig;
pub use device::{Device, DeviceClass, Microarch};
pub use features::{FeatureConfig, Features};
pub use observe::{Dataset, Observation, Observations, MAX_INTERFERERS};
pub use runtime::{RuntimeConfig, RuntimeKind};
pub use shift::{arity_shift_split, device_arrival, DeviceArrival};
pub use stats::DatasetStats;
pub use testbed::{Platform, Testbed};
pub use truth::GroundTruth;
pub use workload::{Suite, Workload, OPCODE_GROUPS};
