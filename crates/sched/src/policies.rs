//! The placement policies compared in the `ext-sched` experiment.

use crate::risk::{risk_argmin, Signal};
use pitot_orchestrator::{ClusterView, Job, PlacementPolicy, QueryBatch, RuntimePredictor};

/// Conformal risk-minimizing placement: scores every candidate by the
/// **upper edge** of the job's predicted runtime given the site's current
/// co-location set, plus the induced interference delta on residents (see
/// [`risk_argmin`]), and places on the argmin. Each decision is one batched
/// read, into row and read buffers the policy keeps across decisions.
///
/// With a calibrated predictor at miscoverage ε this minimizes a
/// quantity the realized runtime exceeds with probability ≲ ε — the
/// decision signal the paper's conformal intervals exist to provide.
#[derive(Debug, Clone)]
pub struct ConformalGreedy {
    delta_weight: f64,
    rows: QueryBatch,
    reads: Vec<f64>,
}

impl ConformalGreedy {
    /// Risk scorer with the induced-interference term at full weight.
    pub fn new() -> Self {
        Self {
            delta_weight: 1.0,
            rows: QueryBatch::default(),
            reads: Vec::new(),
        }
    }

    /// Adjusts how much the induced interference delta on residents counts
    /// relative to the job's own bound (`0.0` = ignore residents, score
    /// the job's upper edge alone; `1.0` = seconds of resident slowdown
    /// trade one-for-one against seconds of own runtime).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn with_delta_weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "delta weight must be finite and non-negative, got {weight}"
        );
        self.delta_weight = weight;
        self
    }

    /// The configured induced-interference weight.
    pub fn delta_weight(&self) -> f64 {
        self.delta_weight
    }
}

impl Default for ConformalGreedy {
    fn default() -> Self {
        Self::new()
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
            self.delta_weight,
            &mut self.rows,
            &mut self.reads,
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
#[derive(Debug, Clone)]
pub struct PointGreedy {
    delta_weight: f64,
    rows: QueryBatch,
    reads: Vec<f64>,
}

impl PointGreedy {
    /// Point-prediction scorer with the induced-interference term at full
    /// weight.
    pub fn new() -> Self {
        Self {
            delta_weight: 1.0,
            rows: QueryBatch::default(),
            reads: Vec::new(),
        }
    }

    /// See [`ConformalGreedy::with_delta_weight`].
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn with_delta_weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "delta weight must be finite and non-negative, got {weight}"
        );
        self.delta_weight = weight;
        self
    }
}

impl Default for PointGreedy {
    fn default() -> Self {
        Self::new()
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
            self.delta_weight,
            &mut self.rows,
            &mut self.reads,
        )
    }

    fn name(&self) -> &str {
        "point-greedy"
    }
}
