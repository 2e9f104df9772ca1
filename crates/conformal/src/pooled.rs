//! Pooled conformalized quantile regression with optimal quantile selection.
//!
//! The paper's full uncertainty pipeline (Sec 3.5, App B.2):
//!
//! 1. the model is trained with several quantile heads (ξ ∈ {50%, …, 99%});
//! 2. calibration data is *partitioned into pools* by the number of
//!    simultaneously-running workloads (runtime is far noisier under
//!    interference, and homogeneous calibration sets give tighter bounds
//!    while preserving conditional exchangeability);
//! 3. within each pool, every head is conformalized for the target ε, and
//!    the head whose calibrated bound is *tightest on a validation set* is
//!    selected (naive CQR would instead fix ξ = 1 − ε).

use crate::metrics::overprovision_margin;
use crate::scores::CalibrationView;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-head predictions for a set of observations, with targets and pool keys.
///
/// `predictions[h][i]` is head `h`'s log-space prediction for observation
/// `i`; `pools[i]` is the observation's calibration-pool key (the number of
/// interfering workloads in Pitot).
#[derive(Debug, Clone)]
pub struct PredictionSet<'a> {
    /// One prediction vector per head.
    pub predictions: &'a [Vec<f32>],
    /// Log-space ground-truth runtimes.
    pub targets_log: &'a [f32],
    /// Pool key per observation.
    pub pools: &'a [usize],
}

impl<'a> PredictionSet<'a> {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if heads are empty or lengths disagree.
    pub(crate) fn validate(&self) {
        assert!(!self.predictions.is_empty(), "at least one head required");
        for (h, p) in self.predictions.iter().enumerate() {
            assert_eq!(p.len(), self.targets_log.len(), "head {h} length mismatch");
        }
        assert_eq!(
            self.pools.len(),
            self.targets_log.len(),
            "pool key length mismatch"
        );
    }

    fn indices_in_pool(&self, pool: usize) -> Vec<usize> {
        self.pools
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == pool)
            .map(|(i, _)| i)
            .collect()
    }
}

/// How to pick the quantile head that a pool's bound is built on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HeadSelection {
    /// Only one head exists (split conformal over a squared-loss model).
    SingleHead,
    /// Naive CQR: use the head trained at ξ closest to `1 − ε`.
    NaiveXi,
    /// Paper's method: per pool, pick the head with the tightest calibrated
    /// bound on the validation set (App B.2).
    TightestOnValidation,
}

impl HeadSelection {
    /// The head this policy picks at miscoverage `miscoverage`, out of heads
    /// trained at the quantiles `xis`, when the pick reads no scores: head 0
    /// under [`HeadSelection::SingleHead`], and under
    /// [`HeadSelection::NaiveXi`] the head trained nearest `1 − ε` (the
    /// first of a tie). `None` under
    /// [`HeadSelection::TightestOnValidation`], whose pick depends on the
    /// validation set. [`PooledConformal::fit_scored`] picks through here,
    /// and so does a server deciding which heads its window keeps.
    ///
    /// # Panics
    ///
    /// Panics under [`HeadSelection::NaiveXi`] if `xis` is empty.
    pub fn fixed_head(self, xis: &[f32], miscoverage: f32) -> Option<usize> {
        match self {
            Self::SingleHead => Some(0),
            Self::NaiveXi => {
                let target = 1.0 - miscoverage;
                let head = (0..xis.len())
                    .min_by(|&a, &b| (xis[a] - target).abs().total_cmp(&(xis[b] - target).abs()))
                    .expect("at least one head");
                Some(head)
            }
            Self::TightestOnValidation => None,
        }
    }
}

/// Calibration result for one pool: the selected head and its offset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolCalibration {
    /// Index of the selected quantile head.
    pub head: usize,
    /// Conformal offset γ added to that head's prediction.
    pub gamma: f32,
}

/// A fully calibrated pooled upper-bound predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PooledConformal {
    miscoverage: f32,
    pools: BTreeMap<usize, PoolCalibration>,
    fallback: PoolCalibration,
}

impl PooledConformal {
    /// Minimum calibration-pool size before falling back to the global pool.
    pub const MIN_POOL: usize = 25;

    /// Fits pooled CQR from pre-scored calibration: a
    /// [`crate::ScoredCalibration`], or a merged [`crate::MergeableWindow`]
    /// read straight from its replica runs. Every offline fit and every
    /// served calibration goes through here.
    ///
    /// The calibration side reduces to rank lookups, so an ε-sweep (or a
    /// variant comparison) pays for prediction and sorting once. Each pool
    /// of at least [`PooledConformal::MIN_POOL`] observations gets its own
    /// head and offset; smaller pools answer with the global fallback.
    /// `validation` is read only by [`HeadSelection::TightestOnValidation`]
    /// (pass any set for the other policies). `xis` gives each head's
    /// training quantile and is read by [`HeadSelection::NaiveXi`].
    ///
    /// # Panics
    ///
    /// Panics if `miscoverage ∉ (0,1)`, if `xis` does not match the head
    /// count, or, under [`HeadSelection::TightestOnValidation`], if
    /// `validation` is inconsistent.
    pub fn fit_scored<C: CalibrationView>(
        calibration: &C,
        validation: &PredictionSet<'_>,
        xis: &[f32],
        selection: HeadSelection,
        miscoverage: f32,
    ) -> Self {
        assert!(miscoverage > 0.0 && miscoverage < 1.0);
        let n_heads = calibration.n_heads();
        assert_eq!(xis.len(), n_heads, "one training quantile per head");
        if selection == HeadSelection::TightestOnValidation {
            validation.validate();
        }

        let gamma_global = |head: usize| calibration.gamma(None, head, miscoverage);
        let fallback = Self::calibrate_pool(
            n_heads,
            &gamma_global,
            validation,
            &validation_indices_for(selection, validation, None),
            xis,
            selection,
            miscoverage,
        );

        let mut pools = BTreeMap::new();
        for (key, size) in calibration.pool_sizes() {
            if size < Self::MIN_POOL {
                continue; // fallback covers this pool
            }
            let val_idx = validation_indices_for(selection, validation, Some(key));
            let gamma_pool = |head: usize| calibration.gamma(Some(key), head, miscoverage);
            pools.insert(
                key,
                Self::calibrate_pool(
                    n_heads,
                    &gamma_pool,
                    validation,
                    &val_idx,
                    xis,
                    selection,
                    miscoverage,
                ),
            );
        }

        Self {
            miscoverage,
            pools,
            fallback,
        }
    }

    fn calibrate_pool(
        n_heads: usize,
        gamma_for: &dyn Fn(usize) -> f32,
        validation: &PredictionSet<'_>,
        val_idx: &[usize],
        xis: &[f32],
        selection: HeadSelection,
        miscoverage: f32,
    ) -> PoolCalibration {
        match selection.fixed_head(xis, miscoverage) {
            Some(head) => PoolCalibration {
                head,
                gamma: gamma_for(head),
            },
            None => {
                let mut best = PoolCalibration {
                    head: 0,
                    gamma: gamma_for(0),
                };
                let mut best_margin = f32::INFINITY;
                for head in 0..n_heads {
                    let gamma = gamma_for(head);
                    let (bounds, targets): (Vec<f32>, Vec<f32>) = val_idx
                        .iter()
                        .map(|&i| {
                            (
                                validation.predictions[head][i] + gamma,
                                validation.targets_log[i],
                            )
                        })
                        .unzip();
                    if bounds.is_empty() {
                        continue;
                    }
                    let margin = overprovision_margin(&bounds, &targets);
                    if margin < best_margin {
                        best_margin = margin;
                        best = PoolCalibration { head, gamma };
                    }
                }
                best
            }
        }
    }

    /// This fit with every pool answered by its global fallback: bitwise
    /// what a fit over the same sets with every pool key erased to one
    /// gives, since that fit's one pool is the whole set. The marginal
    /// (unpooled) arm of a pooling comparison.
    pub fn global(&self) -> Self {
        Self {
            miscoverage: self.miscoverage,
            pools: BTreeMap::new(),
            fallback: self.fallback,
        }
    }

    /// Target miscoverage rate ε.
    pub fn miscoverage(&self) -> f32 {
        self.miscoverage
    }

    /// The per-pool calibrations (pool key → selected head and offset).
    pub fn pool_calibrations(&self) -> &BTreeMap<usize, PoolCalibration> {
        &self.pools
    }

    /// The calibration used for a pool (falling back to the global one).
    pub fn calibration_for(&self, pool: usize) -> PoolCalibration {
        self.pools.get(&pool).copied().unwrap_or(self.fallback)
    }

    /// Upper bound in log space given every head's prediction for one
    /// observation and its pool key.
    ///
    /// # Panics
    ///
    /// Panics if `head_predictions` is shorter than the selected head index.
    pub fn bound_log(&self, head_predictions: &[f32], pool: usize) -> f32 {
        let cal = self.calibration_for(pool);
        head_predictions[cal.head] + cal.gamma
    }

    /// Vectorized [`PooledConformal::bound_log`] over a prediction set.
    pub fn bounds_log(&self, set: &PredictionSet<'_>) -> Vec<f32> {
        set.validate();
        (0..set.targets_log.len())
            .map(|i| {
                let cal = self.calibration_for(set.pools[i]);
                set.predictions[cal.head][i] + cal.gamma
            })
            .collect()
    }
}

fn validation_indices_for(
    selection: HeadSelection,
    validation: &PredictionSet<'_>,
    pool: Option<usize>,
) -> Vec<usize> {
    if selection != HeadSelection::TightestOnValidation {
        return Vec::new();
    }
    match pool {
        Some(key) => validation.indices_in_pool(key),
        None => (0..validation.targets_log.len()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_conformal::calibrate_gamma;
    use crate::{coverage, ScoredCalibration};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The production fit: score, partition and sort once, then
    /// [`PooledConformal::fit_scored`].
    fn scored_fit(
        calibration: &PredictionSet<'_>,
        validation: &PredictionSet<'_>,
        xis: &[f32],
        selection: HeadSelection,
        miscoverage: f32,
    ) -> PooledConformal {
        let scored = ScoredCalibration::new(calibration);
        PooledConformal::fit_scored(&scored, validation, xis, selection, miscoverage)
    }

    /// The raw-score oracle [`PooledConformal::fit_scored`] is pinned to:
    /// every offset is [`calibrate_gamma`] over freshly gathered scores,
    /// with no sorted view and no rank lookup.
    fn fit(
        calibration: &PredictionSet<'_>,
        validation: &PredictionSet<'_>,
        xis: &[f32],
        selection: HeadSelection,
        miscoverage: f32,
    ) -> PooledConformal {
        calibration.validate();
        let n_heads = calibration.predictions.len();
        let gamma_over = |idx: &[usize], head: usize| {
            let scores: Vec<f32> = idx
                .iter()
                .map(|&i| calibration.targets_log[i] - calibration.predictions[head][i])
                .collect();
            calibrate_gamma(&scores, miscoverage)
        };
        let all_idx: Vec<usize> = (0..calibration.targets_log.len()).collect();
        let fallback = PooledConformal::calibrate_pool(
            n_heads,
            &|head| gamma_over(&all_idx, head),
            validation,
            &validation_indices_for(selection, validation, None),
            xis,
            selection,
            miscoverage,
        );
        let mut pool_keys: Vec<usize> = calibration.pools.to_vec();
        pool_keys.sort_unstable();
        pool_keys.dedup();
        let mut pools = BTreeMap::new();
        for key in pool_keys {
            let cal_idx = calibration.indices_in_pool(key);
            if cal_idx.len() < PooledConformal::MIN_POOL {
                continue;
            }
            let calibrated = PooledConformal::calibrate_pool(
                n_heads,
                &|head| gamma_over(&cal_idx, head),
                validation,
                &validation_indices_for(selection, validation, Some(key)),
                xis,
                selection,
                miscoverage,
            );
            pools.insert(key, calibrated);
        }
        PooledConformal {
            miscoverage,
            pools,
            fallback,
        }
    }

    /// Builds a synthetic two-pool quantile-regression scenario: pool 0 has
    /// low noise, pool 1 high noise; heads predict mean + z_ξ·σ̂ with a
    /// systematically underestimated σ̂ (so conformal has work to do).
    fn scenario(seed: u64, n: usize) -> (Vec<Vec<f32>>, Vec<f32>, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let xis = [0.5f32, 0.8, 0.9, 0.95];
        let z = [0.0f32, 0.84, 1.28, 1.64];
        let mut preds = vec![Vec::with_capacity(n); xis.len()];
        let mut targets = Vec::with_capacity(n);
        let mut pools = Vec::with_capacity(n);
        for i in 0..n {
            let pool = i % 2;
            let sigma = if pool == 0 { 0.05 } else { 0.4 };
            let mean = rng.gen_range(-1.0f32..1.0);
            let noise: f32 = {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            };
            targets.push(mean + sigma * noise);
            pools.push(pool);
            for (h, &zh) in z.iter().enumerate() {
                // Underestimate sigma by 2x: quantile regression that is
                // adaptive but miscalibrated.
                preds[h].push(mean + zh * sigma * 0.5);
            }
        }
        (preds, targets, pools)
    }

    fn xis() -> Vec<f32> {
        vec![0.5, 0.8, 0.9, 0.95]
    }

    #[test]
    fn pooled_cqr_covers_each_pool() {
        let (cp, ct, cpool) = scenario(0, 2000);
        let (vp, vt, vpool) = scenario(1, 2000);
        let (tp, tt, tpool) = scenario(2, 4000);
        let cal = PredictionSet {
            predictions: &cp,
            targets_log: &ct,
            pools: &cpool,
        };
        let val = PredictionSet {
            predictions: &vp,
            targets_log: &vt,
            pools: &vpool,
        };
        let test = PredictionSet {
            predictions: &tp,
            targets_log: &tt,
            pools: &tpool,
        };
        let pc = scored_fit(&cal, &val, &xis(), HeadSelection::TightestOnValidation, 0.1);
        let bounds = pc.bounds_log(&test);
        for pool in [0usize, 1] {
            let idx: Vec<usize> = (0..tt.len()).filter(|&i| tpool[i] == pool).collect();
            let b: Vec<f32> = idx.iter().map(|&i| bounds[i]).collect();
            let t: Vec<f32> = idx.iter().map(|&i| tt[i]).collect();
            let cov = coverage(&b, &t);
            assert!(cov >= 0.87, "pool {pool} coverage {cov}");
        }
    }

    #[test]
    fn pooling_is_tighter_than_global_for_quiet_pool() {
        let (cp, ct, cpool) = scenario(3, 4000);
        let (vp, vt, vpool) = scenario(4, 4000);
        let (tp, tt, tpool) = scenario(5, 4000);
        let cal = PredictionSet {
            predictions: &cp,
            targets_log: &ct,
            pools: &cpool,
        };
        let val = PredictionSet {
            predictions: &vp,
            targets_log: &vt,
            pools: &vpool,
        };
        let pooled = scored_fit(&cal, &val, &xis(), HeadSelection::TightestOnValidation, 0.1);
        let global = pooled.global();

        // Quiet pool (0): pooled margin should beat global margin.
        let idx: Vec<usize> = (0..tt.len()).filter(|&i| tpool[i] == 0).collect();
        let margin = |pc: &PooledConformal| {
            let (b, t): (Vec<f32>, Vec<f32>) = idx
                .iter()
                .map(|&i| {
                    let preds: Vec<f32> = tp.iter().map(|h| h[i]).collect();
                    (pc.bound_log(&preds, tpool[i]), tt[i])
                })
                .unzip();
            overprovision_margin(&b, &t)
        };
        let m_pooled = margin(&pooled);
        let m_global = margin(&global);
        assert!(
            m_pooled < m_global,
            "pooled {m_pooled} should be tighter than global {m_global}"
        );
    }

    #[test]
    fn global_is_the_fit_over_one_pool() {
        // Erasing every pool key to one makes the whole set that pool, so
        // its calibration is the keyed fit's fallback, bitwise.
        let (cp, ct, cpool) = scenario(11, 1500);
        let (vp, vt, vpool) = scenario(12, 1500);
        let one_pool = vec![0usize; ct.len()];
        let set = |preds, targets, pools| PredictionSet {
            predictions: preds,
            targets_log: targets,
            pools,
        };
        for selection in [
            HeadSelection::SingleHead,
            HeadSelection::NaiveXi,
            HeadSelection::TightestOnValidation,
        ] {
            let keyed = scored_fit(
                &set(&cp, &ct, &cpool),
                &set(&vp, &vt, &vpool),
                &xis(),
                selection,
                0.1,
            )
            .global();
            let erased = scored_fit(
                &set(&cp, &ct, &one_pool),
                &set(&vp, &vt, &one_pool),
                &xis(),
                selection,
                0.1,
            );
            for key in 0..3 {
                assert_eq!(
                    keyed.calibration_for(key),
                    erased.calibration_for(0),
                    "{selection:?} pool {key}"
                );
            }
            assert!(keyed.pool_calibrations().is_empty());
        }
    }

    #[test]
    fn tightest_selection_beats_naive_on_margin() {
        let (cp, ct, cpool) = scenario(6, 4000);
        let (vp, vt, vpool) = scenario(7, 4000);
        let (tp, tt, tpool) = scenario(8, 4000);
        let cal = PredictionSet {
            predictions: &cp,
            targets_log: &ct,
            pools: &cpool,
        };
        let val = PredictionSet {
            predictions: &vp,
            targets_log: &vt,
            pools: &vpool,
        };
        let test = PredictionSet {
            predictions: &tp,
            targets_log: &tt,
            pools: &tpool,
        };
        let eps = 0.05;
        let tight = scored_fit(&cal, &val, &xis(), HeadSelection::TightestOnValidation, eps);
        let naive = scored_fit(&cal, &val, &xis(), HeadSelection::NaiveXi, eps);
        let mt = overprovision_margin(&tight.bounds_log(&test), &tt);
        let mn = overprovision_margin(&naive.bounds_log(&test), &tt);
        assert!(mt <= mn * 1.05, "tightest {mt} vs naive {mn}");
    }

    #[test]
    fn fit_scored_is_bitwise_identical_to_fit() {
        // The precomputed-score path must select the same heads and emit the
        // same offsets as the raw-score oracle, at every ε and selection.
        // Pool 99 holds fewer than MIN_POOL observations, so the fallback
        // answers for it and must agree too.
        let (cp, ct, mut cpool) = scenario(21, 2000);
        let (vp, vt, mut vpool) = scenario(22, 2000);
        for i in 0..PooledConformal::MIN_POOL - 1 {
            cpool[i * 7] = 99;
            vpool[i * 5] = 99;
        }
        let cal = PredictionSet {
            predictions: &cp,
            targets_log: &ct,
            pools: &cpool,
        };
        let val = PredictionSet {
            predictions: &vp,
            targets_log: &vt,
            pools: &vpool,
        };
        let scored = ScoredCalibration::new(&cal);
        for selection in [
            HeadSelection::SingleHead,
            HeadSelection::NaiveXi,
            HeadSelection::TightestOnValidation,
        ] {
            for eps in [0.02f32, 0.1, 0.3] {
                let oracle = fit(&cal, &val, &xis(), selection, eps);
                let via_scores = PooledConformal::fit_scored(&scored, &val, &xis(), selection, eps);
                assert!(!via_scores.pools.contains_key(&99), "pool 99 is small");
                assert_eq!(oracle, via_scores, "{selection:?} eps {eps}");
            }
        }
    }

    #[test]
    fn single_head_path_works() {
        let preds = vec![vec![0.0f32; 100]];
        let targets: Vec<f32> = (0..100).map(|i| (i as f32) / 1000.0).collect();
        let pools = vec![0usize; 100];
        let set = PredictionSet {
            predictions: &preds,
            targets_log: &targets,
            pools: &pools,
        };
        let pc = scored_fit(&set, &set, &[0.5], HeadSelection::SingleHead, 0.1);
        let cal = pc.calibration_for(0);
        assert_eq!(cal.head, 0);
        assert!(cal.gamma > 0.08, "gamma {}", cal.gamma);
    }

    #[test]
    fn small_pools_fall_back_to_global() {
        let (cp, ct, mut cpool) = scenario(9, 500);
        // Give 3 observations an exotic pool key.
        cpool[0] = 99;
        cpool[1] = 99;
        cpool[2] = 99;
        let cal = PredictionSet {
            predictions: &cp,
            targets_log: &ct,
            pools: &cpool,
        };
        let pc = scored_fit(&cal, &cal, &xis(), HeadSelection::NaiveXi, 0.1);
        assert!(!pc.pool_calibrations().contains_key(&99));
        // calibration_for still answers via the fallback.
        let _ = pc.calibration_for(99);
    }

    proptest! {
        /// End-to-end coverage property for the full pooled CQR pipeline.
        #[test]
        fn pooled_coverage_property(seed in 0u64..50, eps in 0.05f32..0.2) {
            let (cp, ct, cpool) = scenario(seed * 3 + 100, 1200);
            let (vp, vt, vpool) = scenario(seed * 3 + 101, 1200);
            let (tp, tt, tpool) = scenario(seed * 3 + 102, 1200);
            let cal = PredictionSet { predictions: &cp, targets_log: &ct, pools: &cpool };
            let val = PredictionSet { predictions: &vp, targets_log: &vt, pools: &vpool };
            let test = PredictionSet { predictions: &tp, targets_log: &tt, pools: &tpool };
            let pc = scored_fit(&cal, &val, &xis(), HeadSelection::TightestOnValidation, eps);
            let cov = coverage(&pc.bounds_log(&test), &tt);
            // Per-pool calibration halves the effective n; account for both
            // calibration- and test-side variance plus selection slack.
            let n_pool = (tt.len() / 2) as f32;
            let slack = 3.5 * (eps * (1.0 - eps) * 2.0 / n_pool).sqrt() + 0.01;
            prop_assert!(cov >= 1.0 - eps - slack, "coverage {cov} at ε {eps}");
        }
    }
}
