//! Conformal runtime bounds on top of a trained model (paper Sec 3.5).
//!
//! The validation portion of the split doubles as the conformal holdout:
//! it is divided in half into a *calibration* set (conformity scores) and a
//! *selection* set (quantile-head choice), both partitioned into pools by
//! interference count.

use crate::train::{TowerCache, TrainedPitot};
use pitot_conformal::{
    coverage, overprovision_margin, HeadSelection, PooledConformal, PredictionSet, SweepCalibration,
};
use pitot_testbed::Dataset;

/// A calibrated upper-bound predictor for workload runtimes.
#[derive(Debug, Clone)]
pub struct RuntimeBounds {
    conformal: PooledConformal,
}

/// One model's calibration data, prepared once: the holdout is predicted a
/// single time, nonconformity scores are partitioned and sorted, and every
/// subsequent [`RuntimeCalibration::fit`] — any miscoverage level, any head
/// selection — reduces to rank lookups plus head selection. This is what
/// makes an ε-sweep (every uncertainty figure) pay for prediction once
/// instead of once per point.
#[derive(Debug, Clone)]
pub struct RuntimeCalibration {
    sweep: SweepCalibration,
}

impl RuntimeCalibration {
    /// Fits bounds at one miscoverage level from the precomputed scores.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ (0, 1)`.
    pub fn fit(&self, epsilon: f32, selection: HeadSelection) -> RuntimeBounds {
        RuntimeBounds {
            conformal: self.sweep.fit(epsilon, selection),
        }
    }
}

impl TrainedPitot {
    /// Prepares the model's conformal calibration data: predicts the
    /// validation holdout once through `towers` (calibration + selection
    /// halves) and pre-sorts the nonconformity scores per pool.
    ///
    /// `towers` is whichever cache serves the bounds: the dense
    /// [`TrainedPitot::tower_cache`], or a compressed one, whose own
    /// residuals then calibrate it. Split conformal needs only the scores
    /// of the model that serves.
    ///
    /// # Panics
    ///
    /// Panics if the validation split is empty.
    pub fn calibration(&self, dataset: &Dataset, towers: &TowerCache) -> RuntimeCalibration {
        assert!(
            !self.split.val.is_empty(),
            "validation split required for calibration"
        );
        // Half the holdout calibrates, half drives head selection. The val
        // list is ordered by interference mode, so interleave rather than
        // bisect — both halves must contain every calibration pool.
        let (cal_idx, sel_idx) = split_holdout(&self.split.val);
        let cal_preds = self.log_heads(towers, dataset, &cal_idx);
        let sel_preds = self.log_heads(towers, dataset, &sel_idx);
        let (cal_t, cal_pool) = targets_and_pools(dataset, &cal_idx);
        let (sel_targets, sel_pools) = targets_and_pools(dataset, &sel_idx);

        RuntimeCalibration {
            sweep: SweepCalibration::new(
                &PredictionSet {
                    predictions: &cal_preds,
                    targets_log: &cal_t,
                    pools: &cal_pool,
                },
                sel_preds,
                sel_targets,
                sel_pools,
                self.model.config().objective.xis(),
            ),
        }
    }

    /// Fits conformal upper bounds at miscoverage `epsilon` using the
    /// model's validation split.
    ///
    /// `selection` picks between the paper's method
    /// ([`HeadSelection::TightestOnValidation`]), naive CQR, and plain split
    /// conformal for single-head models. The calibration reads the dense
    /// towers. Callers fitting several miscoverage levels should prepare
    /// [`TrainedPitot::calibration`] once and call [`RuntimeCalibration::fit`]
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
    ) -> RuntimeBounds {
        self.calibration(dataset, &self.tower_cache(dataset))
            .fit(epsilon, selection)
    }
}

impl RuntimeBounds {
    /// Runtime budgets (seconds) sufficient with probability `1 − ε` for the
    /// given observations.
    pub fn bounds_s(&self, trained: &TrainedPitot, dataset: &Dataset, idx: &[usize]) -> Vec<f32> {
        self.bounds_log(trained, dataset, idx)
            .into_iter()
            .map(|b| b.exp())
            .collect()
    }

    /// Log-space bounds for the given observations.
    pub fn bounds_log(&self, trained: &TrainedPitot, dataset: &Dataset, idx: &[usize]) -> Vec<f32> {
        let rows = trained.log_rows(&trained.tower_cache(dataset), dataset, idx);
        idx.iter()
            .zip(rows.iter_rows())
            .map(|(&oi, heads)| {
                let pool = dataset.observations[oi].interferers.len();
                self.conformal.bound_log(heads, pool)
            })
            .collect()
    }

    /// Empirical coverage of the bounds over the given observations.
    pub fn coverage(&self, trained: &TrainedPitot, dataset: &Dataset, idx: &[usize]) -> f32 {
        let bounds = self.bounds_log(trained, dataset, idx);
        let targets: Vec<f32> = idx
            .iter()
            .map(|&i| dataset.observations[i].log_runtime())
            .collect();
        coverage(&bounds, &targets)
    }

    /// Overprovisioning margin (paper Eq 11) over the given observations.
    pub fn margin(&self, trained: &TrainedPitot, dataset: &Dataset, idx: &[usize]) -> f32 {
        let bounds = self.bounds_log(trained, dataset, idx);
        let targets: Vec<f32> = idx
            .iter()
            .map(|&i| dataset.observations[i].log_runtime())
            .collect();
        overprovision_margin(&bounds, &targets)
    }

    /// The underlying pooled conformal calibration.
    pub fn conformal(&self) -> &PooledConformal {
        &self.conformal
    }

    /// Log-space bound computed directly from per-head log predictions for
    /// calibration pool `pool` (the number of interfering workloads).
    ///
    /// This is the query-path entry point: callers that read a row of heads
    /// from [`TrainedPitot::predict_log_runtime_into`] can bound synthetic
    /// placements without materializing dataset observations.
    pub fn bound_log_from_heads(&self, head_preds: &[f32], pool: usize) -> f32 {
        self.conformal.bound_log(head_preds, pool)
    }
}

/// Interleaves a holdout list into (calibration, selection) halves so both
/// contain every interference mode; a lone observation lands in both.
fn split_holdout(val: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let cal: Vec<usize> = val.iter().copied().step_by(2).collect();
    let sel: Vec<usize> = val.iter().copied().skip(1).step_by(2).collect();
    if sel.is_empty() {
        (cal.clone(), cal)
    } else {
        (cal, sel)
    }
}

fn targets_and_pools(dataset: &Dataset, idx: &[usize]) -> (Vec<f32>, Vec<usize>) {
    idx.iter()
        .map(|&i| {
            let o = &dataset.observations[i];
            (o.log_runtime(), o.interferers.len())
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train, Objective, PitotConfig};
    use pitot_testbed::{split::Split, Testbed, TestbedConfig};

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
        let cov = bounds.coverage(&trained, &ds, &test);
        assert!(cov >= 1.0 - eps - 0.05, "coverage {cov}");

        // Bounds must sit above point predictions most of the time.
        let m = bounds.margin(&trained, &ds, &test);
        assert!(m > 0.0 && m.is_finite(), "margin {m}");

        // Tighter epsilon ⇒ larger (or equal) margin.
        let loose = trained.fit_bounds(&ds, 0.3, HeadSelection::TightestOnValidation);
        let m_loose = loose.margin(&trained, &ds, &test);
        assert!(m_loose <= m * 1.2, "loose margin {m_loose} vs strict {m}");
    }

    #[test]
    fn single_head_bounds_work_for_squared_models() {
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&ds, 0.6, 1);
        let trained = train(&ds, &split, &PitotConfig::tiny());
        let bounds = trained.fit_bounds(&ds, 0.1, HeadSelection::SingleHead);
        let test: Vec<usize> = split.test.iter().copied().take(2000).collect();
        let cov = bounds.coverage(&trained, &ds, &test);
        assert!(cov >= 0.85, "coverage {cov}");
    }
}
