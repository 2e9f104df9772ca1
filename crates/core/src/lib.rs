//! Pitot: interference-aware edge runtime prediction with conformal matrix
//! completion.
//!
//! This crate reproduces the method of Huang et al., *Interference-aware Edge
//! Runtime Prediction with Conformal Matrix Completion* (MLSys 2025). Pitot
//! predicts how long a workload will run on a heterogeneous edge platform
//! while other workloads interfere, and can wrap every prediction in a
//! provably calibrated upper bound. The pipeline:
//!
//! 1. [`ScalingBaseline`] — a log-linear "difficulty × speed" model fit by
//!    alternating minimization (paper Sec 3.2 / App B.1); the network then
//!    predicts only the *residual* of this baseline.
//! 2. [`PitotModel`] — a two-tower matrix-factorization network: MLPs embed
//!    workload and platform side information (plus per-entity learned
//!    features φ) into a shared space; the residual is the inner product
//!    `wᵢᵀpⱼ` plus an interference term `Σₜ (wᵢᵀv_s⁽ᵗ⁾)·α(Σₖ wₖᵀv_g⁽ᵗ⁾)`
//!    (paper Secs 3.3–3.4).
//! 3. [`train`] — AdaMax training with per-interference-mode batches and a
//!    weighted multi-objective loss (paper App B.3), returning a
//!    [`TrainedPitot`] with the best-validation checkpoint.
//! 4. [`TrainedPitot::fit_bounds`] — conformalized quantile regression with
//!    calibration pools and optimal quantile selection (paper Sec 3.5),
//!    yielding a [`pitot_conformal::PooledConformal`] that answers "what
//!    budget suffices with probability 1 − ε?". [`calibrate`] runs the same
//!    calibration for any predictor, and an [`EvalSet`] scores the fitted
//!    bounds on observations predicted once.
//!
//! # Examples
//!
//! ```no_run
//! use pitot::{train, PitotConfig};
//! use pitot_testbed::{split::Split, Testbed, TestbedConfig};
//!
//! let testbed = Testbed::generate(&TestbedConfig::small());
//! let dataset = testbed.collect_dataset();
//! let split = Split::stratified(&dataset, 0.5, 0);
//! let trained = train(&dataset, &split, &PitotConfig::fast());
//! let mape = trained.mape(&dataset, &split.test);
//! println!("test MAPE: {:.1}%", 100.0 * mape);
//! ```

// Every public item in this crate is part of the documented core prediction
// API; keep it that way (CI builds rustdoc with `-D warnings`).
#![deny(missing_docs)]

mod completed;
mod compress;
mod config;
mod eval;
mod model;
mod scaling;
mod train;
mod uncertainty;

pub use completed::tables_filled;
pub use compress::{CompressedTower, CompressionLevel, CompressionSpec};
pub use config::{InterferenceMode, LossSpace, Objective, OptimizerKind, PitotConfig};
pub use eval::{mape, mape_by_mode};
pub use model::{PitotModel, PlatformEmbeddings, TowerOutputs};
/// The row-major matrix [`TrainedPitot::predict_log_runtime_into`],
/// [`TrainedPitot::predict_log_heads_into`] and
/// [`TrainedPitot::lookup_log_heads_into`] write, so a caller can keep one
/// as a reused read buffer.
pub use pitot_linalg::Matrix;
pub use scaling::ScalingBaseline;
pub use train::{train, train_from, TowerCache, TrainContext, TrainProgress, TrainedPitot};
pub use uncertainty::{calibrate, EvalSet};
