//! Experiment harness for the Pitot reproduction.
//!
//! One runner per table/figure of the paper's evaluation (Secs 4–5 and
//! Appendix D), all printing uniform `figure | series | x | mean ± 2se` rows
//! and returning structured [`report::Series`] data that the `pitot-repro`
//! binary serializes to JSON.
//!
//! Runners accept a [`harness::Harness`] built at either reduced
//! ([`harness::Scale::Fast`]) or paper ([`harness::Scale::Full`]) scale; the
//! output format is identical so results are comparable across scales.

// Every public item in this crate is part of the documented workspace
// API; keep it that way (CI builds rustdoc with `-D warnings`).
#![deny(missing_docs)]

pub mod ablations;
pub mod baseline_cmp;
pub mod baselines_ext;
pub mod chaos;
pub mod compress;
pub mod conformal_variants;
pub mod dataset_report;
mod digest;
pub mod embeddings;
pub mod fleet;
pub mod harness;
pub mod hyperparams;
pub mod methods;
pub mod online;
pub mod optimizer_cmp;
pub mod orchestration;
pub mod poison;
pub mod report;
pub mod sched;
pub mod serving;
pub mod shift;
pub mod uncertainty;

pub use harness::{Harness, Scale};
pub use methods::{Method, PitotPredictor};
pub use report::{Figure, Point, Series};
