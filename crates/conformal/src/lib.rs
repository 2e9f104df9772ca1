//! Conformal prediction for runtime upper bounds (paper Sec 3.5).
//!
//! Pitot predicts *runtime budgets*: a bound `C̃(ε)` such that the workload
//! finishes within the budget with probability at least `1 − ε`. This crate
//! implements the three calibration strategies the paper compares:
//!
//! - [`SplitConformal`]: one-sided split conformal regression over a single
//!   (squared-loss) prediction head — valid but not adaptive;
//! - conformalized quantile regression (CQR): the same calibration applied to
//!   quantile-regression heads, giving adaptive *and* valid bounds;
//! - [`PooledConformal`]: CQR with *calibration pools* keyed by the number of
//!   simultaneously-running workloads, plus the paper's *optimal quantile
//!   selection* (App B.2) which picks, per pool, the trained quantile head
//!   whose calibrated bound is tightest on a validation set. The pools are a
//!   Mondrian (group-conditional) partition: every offline experiment and
//!   every server calibrates through this one construction, and
//!   [`conditional_coverage`] checks it per pool.
//!
//! Beyond the paper's pipeline, the crate implements the neighbouring
//! conformal constructions the paper cites or motivates, for the
//! conformal-variants experiment:
//!
//! - [`TwoSidedCqr`]: interval-valued CQR (Romano et al.; paper footnote 4),
//!   whose lower edge doubles as a phase-shift/anomaly detector;
//! - [`ScaledConformal`]: dispersion-normalized scores (the "CQR-r" family
//!   of Sousa et al., 2022);
//! - [`rearrange_heads`]: monotone rearrangement fixing crossed quantile
//!   heads (never increases pinball loss);
//! - [`CoverageCurve`] and friends: diagnostics for marginal, per-group, and
//!   worst-group coverage.
//!
//! For online serving, [`WindowedScores`] maintains a sliding-window
//! calibration set incrementally — per-event binary-search edits of the
//! pre-sorted score slices, bitwise identical to re-scoring the window from
//! scratch — so a streaming service can refresh its bounds per observation
//! at rank-lookup cost. For multi-replica serving, [`MergeableWindow`]
//! snapshots replica windows into a CRDT of sorted-run segments whose merge
//! is commutative, associative, idempotent, and bitwise identical to a
//! from-scratch calibration on the union of the live windows — the
//! statistical basis being that exchangeable splits of the calibration set
//! preserve the coverage guarantee.
//!
//! All calibration happens in log-runtime space; since `exp` is monotone the
//! coverage guarantee transfers to linear space unchanged.
//!
//! # Examples
//!
//! ```
//! use pitot_conformal::SplitConformal;
//!
//! // Model under-predicts by ~0.1 in log space; conformal fixes coverage.
//! let preds: Vec<f32> = (0..100).map(|i| i as f32 * 0.01).collect();
//! let truths: Vec<f32> = preds.iter().map(|p| p + 0.1).collect();
//! let cal = SplitConformal::fit(&preds, &truths, 0.1);
//! assert!(cal.offset() >= 0.1);
//! assert!(cal.upper_bound_log(0.5) >= 0.6);
//! ```

// Every public item in this crate is part of the documented conformal API;
// keep it that way (CI builds rustdoc with `-D warnings`).
#![deny(missing_docs)]

mod diagnostics;
mod merge;
mod metrics;
mod pooled;
mod rearrange;
mod scaled;
mod scores;
mod split_conformal;
mod two_sided;

pub use diagnostics::{
    calibration_error, conditional_coverage, worst_group_coverage, CoverageCurve,
};
pub use merge::{MergeableWindow, ReplayEntry, SummaryError, SummaryFault, TamperMode};
pub use metrics::{coverage, overprovision_margin};
pub use pooled::{HeadSelection, PoolCalibration, PooledConformal, PredictionSet};
pub use rearrange::{crossing_rate, rearrange_heads};
pub use scaled::{head_spread, ScaledConformal, MIN_SCALE};
pub use scores::{CalibrationView, ScoredCalibration, SweepCalibration, WindowedScores};
pub use split_conformal::{calibrate_gamma, SplitConformal};
pub use two_sided::{interval_coverage, mean_interval_factor, Interval, TwoSidedCqr};
