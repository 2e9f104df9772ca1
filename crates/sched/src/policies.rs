//! The placement policies compared in the `ext-sched` experiment.

use crate::risk::{risk_argmin, Signal};
use pitot_orchestrator::{ClusterView, Job, PlacementPolicy, QueryBatch, RuntimePredictor};

/// Conformal risk-minimizing placement: scores every candidate by the
/// **upper edge** of the job's predicted runtime given the site's current
/// co-location set, plus the induced interference delta on residents (see
/// [`risk_argmin`]), and places on the argmin. Each decision is one walk
/// over the view and one batched read, into row, read and candidate buffers
/// the policy keeps across decisions.
///
/// With a calibrated predictor at miscoverage ε this minimizes a
/// quantity the realized runtime exceeds with probability ≲ ε — the
/// decision signal the paper's conformal intervals exist to provide.
#[derive(Debug, Clone, Default)]
pub struct ConformalGreedy {
    rows: QueryBatch,
    reads: Vec<f64>,
    candidates: Vec<usize>,
}

impl ConformalGreedy {
    /// A risk scorer with empty row, read and candidate buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PlacementPolicy for ConformalGreedy {
    fn place(
        &mut self,
        job: &Job,
        view: &ClusterView,
        predictor: &dyn RuntimePredictor,
    ) -> Option<usize> {
        risk_argmin(
            job,
            view,
            predictor,
            Signal::UpperEdge,
            &mut self.rows,
            &mut self.reads,
            &mut self.candidates,
        )
    }

    fn name(&self) -> &str {
        "conformal-greedy"
    }
}

/// The point-prediction ablation of [`ConformalGreedy`]: identical risk
/// structure, but scored on [`RuntimePredictor::predict_s`] instead of the
/// conformal upper edge. The gap between the two in `ext-sched` is the
/// value of acting on the interval edge rather than the point estimate.
#[derive(Debug, Clone, Default)]
pub struct PointGreedy {
    rows: QueryBatch,
    reads: Vec<f64>,
    candidates: Vec<usize>,
}

impl PointGreedy {
    /// A point-prediction scorer with empty row, read and candidate buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PlacementPolicy for PointGreedy {
    fn place(
        &mut self,
        job: &Job,
        view: &ClusterView,
        predictor: &dyn RuntimePredictor,
    ) -> Option<usize> {
        risk_argmin(
            job,
            view,
            predictor,
            Signal::Point,
            &mut self.rows,
            &mut self.reads,
            &mut self.candidates,
        )
    }

    fn name(&self) -> &str {
        "point-greedy"
    }
}
