//! Conformal risk-minimizing placement: acting on the interval edge.
//!
//! The paper's thesis is that calibrated runtime intervals are trustworthy
//! enough to *act* on. `pitot-serve` already acts on them for admission
//! (should this job run at all?); this crate acts on them for **placement**
//! (where should it run?). Every policy here implements the
//! [`PlacementPolicy`] trait from `pitot-orchestrator`, so the simulator's
//! `run_with_observer` / `pitot-serve`'s `run_closed_loop` drive them
//! unchanged — completions stream back into the sliding calibration window
//! mid-run, and the very next decision sees the recalibrated bounds.
//!
//! The policy lineup, ordered by how much of the prediction they use:
//!
//! - [`BaselinePolicy::random`] — ignores everything (the lower bar);
//! - [`BaselinePolicy::least_loaded`] — balances co-location counts,
//!   prediction-free;
//! - [`PointGreedy`] — minimizes own predicted runtime plus the predicted
//!   interference delta induced on residents, read at the **point**
//!   estimate;
//! - [`ConformalGreedy`] — the same risk structure read at the conformal
//!   **upper edge**: at miscoverage ε the realized runtime exceeds the
//!   edge with probability ≲ ε, so the argmin placement bounds risk
//!   rather than hoping the point estimate was right.
//!
//! Scoring lives in [`risk`] ([`risk::risk_argmin`]) and is shared by both
//! greedy policies; the induced-delta term reuses the model's interference
//! dot-product path by querying the resident's runtime with and without the
//! new arrival in its interferer set. A decision asks for all of its rows
//! in one batched read ([`RuntimePredictor::bound_batch_s`] or
//! [`RuntimePredictor::predict_batch_s`]), which a serving predictor
//! answers in one prediction pass.
//!
//! Determinism: placement decisions are bitwise-identical across
//! `PITOT_THREADS` settings (the scorer is a pure argmin over a snapshot;
//! randomized policies are seeded). [`Traced`] wraps any policy, records
//! the decision sequence, and folds it into a [`Traced::digest`] that CI
//! compares across processes with different thread counts; property tests
//! pin [`ConformalGreedy`] to a brute-force oracle.
//!
//! [`BaselinePolicy::random`]: pitot_orchestrator::BaselinePolicy::random
//! [`BaselinePolicy::least_loaded`]: pitot_orchestrator::BaselinePolicy::least_loaded
//! [`RuntimePredictor::bound_batch_s`]: pitot_orchestrator::RuntimePredictor::bound_batch_s
//! [`RuntimePredictor::predict_batch_s`]: pitot_orchestrator::RuntimePredictor::predict_batch_s

// Every public item in this crate is part of the documented scheduling
// API; keep it that way (CI builds rustdoc with `-D warnings`).
#![deny(missing_docs)]

mod policies;
pub mod risk;
mod trace;

pub use policies::{ConformalGreedy, PointGreedy};
pub use risk::Signal;
pub use trace::Traced;

// Re-export the trait so downstream code can depend on `pitot-sched`
// alone for policy work.
pub use pitot_orchestrator::PlacementPolicy;
