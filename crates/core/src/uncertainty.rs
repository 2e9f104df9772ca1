//! Conformal runtime bounds for any predictor (paper Sec 3.5).
//!
//! The validation portion of the split doubles as the conformal holdout:
//! [`Split::holdout_halves`] divides it into a *calibration* half
//! (conformity scores) and a *selection* half (quantile-head choice), both
//! partitioned into pools by interference count. [`calibrate`] turns one
//! predictor's predictions of the two halves into a
//! [`SweepCalibration`], which fits a [`PooledConformal`] at any
//! miscoverage level; an [`EvalSet`] then scores any number of those fits
//! on observations predicted once.

use crate::train::{TowerCache, TrainedPitot};
use pitot_conformal::{
    coverage, overprovision_margin, HeadSelection, PooledConformal, PredictionSet, SweepCalibration,
};
use pitot_testbed::{split::Split, Dataset};

/// Observations predicted once, with their log-runtime targets and
/// interference-count pool keys, for scoring any number of conformal fits.
#[derive(Debug, Clone)]
pub struct EvalSet {
    preds: Vec<Vec<f32>>,
    targets: Vec<f32>,
    pools: Vec<usize>,
}

impl EvalSet {
    /// The observations `idx` of `dataset` with any predictor's head-major
    /// log-runtime predictions of them: `preds[h][b]` is head `h`'s
    /// prediction for `idx[b]`.
    ///
    /// # Panics
    ///
    /// Panics if a head's length differs from `idx`'s.
    pub fn new(dataset: &Dataset, idx: &[usize], preds: Vec<Vec<f32>>) -> Self {
        for (h, head) in preds.iter().enumerate() {
            assert_eq!(head.len(), idx.len(), "head {h} length mismatch");
        }
        let (targets, pools) = idx
            .iter()
            .map(|&i| {
                let o = &dataset.observations[i];
                (o.log_runtime(), o.interferers.len())
            })
            .unzip();
        Self {
            preds,
            targets,
            pools,
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Per-head predictions (head-major).
    pub fn preds(&self) -> &[Vec<f32>] {
        &self.preds
    }

    /// Log-space targets.
    pub fn targets(&self) -> &[f32] {
        &self.targets
    }

    /// The set as the conformal crate reads it.
    fn as_set(&self) -> PredictionSet<'_> {
        PredictionSet {
            predictions: &self.preds,
            targets_log: &self.targets,
            pools: &self.pools,
        }
    }

    /// Log-space bounds of `conformal` on this set.
    pub fn bounds_log(&self, conformal: &PooledConformal) -> Vec<f32> {
        conformal.bounds_log(&self.as_set())
    }

    /// Overprovisioning margin (paper Eq 11) of `conformal` on this set.
    pub fn margin(&self, conformal: &PooledConformal) -> f32 {
        overprovision_margin(&self.bounds_log(conformal), &self.targets)
    }

    /// Empirical coverage of `conformal` on this set.
    pub fn coverage(&self, conformal: &PooledConformal) -> f32 {
        coverage(&self.bounds_log(conformal), &self.targets)
    }
}

/// Prepares one predictor's conformal calibration on `split`'s holdout:
/// the one road from a model to its [`SweepCalibration`].
///
/// `predict` returns head-major log-runtime predictions for the indices it
/// is given, from whichever model serves the bounds. It is asked once for
/// the calibration half and then once for the selection half of
/// [`Split::holdout_halves`]. `xis` gives each head's training quantile.
///
/// # Panics
///
/// Panics if the validation split is empty, or if `predict` returns heads
/// of the wrong length.
pub fn calibrate(
    dataset: &Dataset,
    split: &Split,
    xis: Vec<f32>,
    mut predict: impl FnMut(&[usize]) -> Vec<Vec<f32>>,
) -> SweepCalibration {
    assert!(
        !split.val.is_empty(),
        "validation split required for calibration"
    );
    let (cal_idx, sel_idx) = split.holdout_halves();
    let cal = EvalSet::new(dataset, &cal_idx, predict(&cal_idx));
    let sel = EvalSet::new(dataset, &sel_idx, predict(&sel_idx));
    SweepCalibration::new(&cal.as_set(), sel.preds, sel.targets, sel.pools, xis)
}

impl TrainedPitot {
    /// Prepares the model's conformal calibration: [`calibrate`] on its
    /// own split, predicting the holdout halves once through `towers`.
    ///
    /// `towers` is whichever cache serves the bounds: the dense
    /// [`TrainedPitot::tower_cache`], or a compressed one, whose own
    /// residuals then calibrate it. Split conformal needs only the scores
    /// of the model that serves.
    ///
    /// # Panics
    ///
    /// Panics if the validation split is empty.
    pub fn calibration(&self, dataset: &Dataset, towers: &TowerCache) -> SweepCalibration {
        calibrate(
            dataset,
            &self.split,
            self.model.config().objective.xis(),
            |idx| self.log_heads(towers, dataset, idx),
        )
    }

    /// Fits conformal upper bounds at miscoverage `epsilon` using the
    /// model's validation split.
    ///
    /// `selection` picks between the paper's method
    /// ([`HeadSelection::TightestOnValidation`]), naive CQR, and plain split
    /// conformal for single-head models. The calibration reads the dense
    /// towers. Callers fitting several miscoverage levels should prepare
    /// [`TrainedPitot::calibration`] once and call [`SweepCalibration::fit`]
    /// per level.
    ///
    /// # Panics
    ///
    /// Panics if the validation split is empty or `epsilon ∉ (0, 1)`.
    pub fn fit_bounds(
        &self,
        dataset: &Dataset,
        epsilon: f32,
        selection: HeadSelection,
    ) -> PooledConformal {
        self.calibration(dataset, &self.tower_cache(dataset))
            .fit(epsilon, selection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train, Objective, PitotConfig};
    use pitot_testbed::{Testbed, TestbedConfig};

    #[test]
    fn bounds_cover_and_tighten() {
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&ds, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.objective = Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]);
        cfg.steps = 400;
        let trained = train(&ds, &split, &cfg);

        let eps = 0.1;
        let bounds = trained.fit_bounds(&ds, eps, HeadSelection::TightestOnValidation);
        let test: Vec<usize> = split.test.iter().copied().take(4000).collect();
        let eval = EvalSet::new(&ds, &test, trained.predict_log_runtime(&ds, &test));
        let cov = eval.coverage(&bounds);
        assert!(cov >= 1.0 - eps - 0.05, "coverage {cov}");

        // Bounds must sit above point predictions most of the time.
        let m = eval.margin(&bounds);
        assert!(m > 0.0 && m.is_finite(), "margin {m}");

        // Tighter epsilon ⇒ larger (or equal) margin.
        let loose = trained.fit_bounds(&ds, 0.3, HeadSelection::TightestOnValidation);
        let m_loose = eval.margin(&loose);
        assert!(m_loose <= m * 1.2, "loose margin {m_loose} vs strict {m}");
    }

    #[test]
    fn single_head_bounds_work_for_squared_models() {
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&ds, 0.6, 1);
        let trained = train(&ds, &split, &PitotConfig::tiny());
        let bounds = trained.fit_bounds(&ds, 0.1, HeadSelection::SingleHead);
        let test: Vec<usize> = split.test.iter().copied().take(2000).collect();
        let eval = EvalSet::new(&ds, &test, trained.predict_log_runtime(&ds, &test));
        let cov = eval.coverage(&bounds);
        assert!(cov >= 0.85, "coverage {cov}");
    }

    #[test]
    fn eval_set_bounds_are_the_per_row_bounds() {
        // An eval set answers each observation as a single-row read under
        // the same fit does, bitwise.
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&ds, 0.6, 2);
        let mut cfg = PitotConfig::tiny();
        cfg.objective = Objective::Quantiles(vec![0.5, 0.9, 0.95]);
        cfg.steps = 60;
        let trained = train(&ds, &split, &cfg);
        let towers = trained.tower_cache(&ds);
        let bounds = trained
            .calibration(&ds, &towers)
            .fit(0.1, HeadSelection::TightestOnValidation);
        let idx: Vec<usize> = split.test.iter().copied().step_by(97).collect();
        let eval = EvalSet::new(&ds, &idx, trained.predict_log_runtime(&ds, &idx));
        let mut row = pitot_linalg::Matrix::default();
        for (&i, got) in idx.iter().zip(eval.bounds_log(&bounds)) {
            let o = &ds.observations[i];
            trained.predict_log_runtime_into(&towers, &[o], &mut row);
            let want = bounds.bound_log(row.row(0), o.interferers.len());
            assert_eq!(got.to_bits(), want.to_bits(), "observation {i}");
        }
    }
}
