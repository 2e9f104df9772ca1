//! Calibration-pool robustness under interference-arity shift (extension).
//!
//! Sec 3.5 claims that conditioning calibration pools on the number of
//! simultaneously-running workloads "allows Pitot to maintain conditional
//! exchangeability even under distribution shift of I". This experiment
//! tests exactly that: the same trained model is calibrated once with the
//! paper's arity-keyed pools and once with a single global pool, then
//! evaluated on test sets whose arity mix shifts from calibration-like
//! (mostly isolation) to deployment-heavy (mostly 3–4-way interference).
//!
//! Expected shape: pooled calibration holds its nominal coverage at every
//! shift intensity; global calibration over-covers on easy mixes and
//! under-covers once heavy interference dominates.

use crate::harness::Harness;
use crate::methods::PitotPredictor;
use crate::report::{Figure, Point, Series};
use crate::uncertainty::{calibration, eval_set};
use pitot::{Objective, PitotConfig};
use pitot_conformal::HeadSelection;
use pitot_testbed::{arity_shift_split, MAX_INTERFERERS};

/// Test-set arity mixes, from calibration-like to heavily shifted.
/// (label, weight per interferer count 0..=3)
const SHIFTS: [(&str, [f32; MAX_INTERFERERS + 1]); 4] = [
    ("calibration-like", [3.0, 1.0, 1.0, 1.0]),
    ("balanced", [1.0, 1.0, 1.0, 1.0]),
    ("interference-heavy", [0.2, 0.8, 1.5, 1.5]),
    ("worst-case 4-way", [0.0, 0.0, 0.0, 1.0]),
];

/// Extension figure: coverage of pooled vs global calibration across arity
/// shifts at ε = 0.1.
pub fn ext_shift(h: &Harness) -> Figure {
    let mut fig = Figure::new(
        "ext-shift",
        "Pool-conditional coverage under interference-arity shift (extension)",
    );
    let eps = 0.1f32;
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    };

    let mut pooled_cov: Vec<Vec<f32>> = vec![Vec::new(); SHIFTS.len()];
    let mut global_cov: Vec<Vec<f32>> = vec![Vec::new(); SHIFTS.len()];
    for rep in 0..h.replicates {
        let split = h.split(0.5, rep);
        let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
        let model = PitotPredictor::new(trained);
        let pooled =
            calibration(&model, &h.dataset, &split).fit(eps, HeadSelection::TightestOnValidation);
        // The single-pool arm: the same fit with every pool answered by
        // its global fallback, bitwise a fit with the pool key erased.
        let global = pooled.global();

        for (s, (_, weights)) in SHIFTS.iter().enumerate() {
            let shifted = arity_shift_split(&h.dataset, 0.5, weights, rep as u64);
            let test: Vec<usize> = if h.eval_cap > 0 && shifted.test.len() > h.eval_cap {
                let stride = shifted.test.len().div_ceil(h.eval_cap);
                shifted.test.iter().copied().step_by(stride).collect()
            } else {
                shifted.test
            };
            let eval = eval_set(&model, &h.dataset, &test);
            pooled_cov[s].push(eval.coverage(&pooled));
            global_cov[s].push(eval.coverage(&global));
        }
    }

    for (label, covs) in [
        ("pooled (by arity)", pooled_cov),
        ("global (single pool)", global_cov),
    ] {
        fig.series.push(Series {
            label: label.into(),
            panel: format!("coverage at ε={eps}"),
            metric: "empirical coverage".into(),
            points: covs
                .into_iter()
                .enumerate()
                .map(|(s, values)| Point::from_replicates(s as f32, values))
                .collect(),
        });
    }
    for (s, (name, w)) in SHIFTS.iter().enumerate() {
        fig.notes
            .push(format!("x={s}: {name} (arity weights {w:?})"));
    }
    fig.notes.push(format!("nominal coverage: {}", 1.0 - eps));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn pooled_calibration_survives_shift_better_than_global() {
        let h = Harness::new(Scale::Fast);
        let fig = ext_shift(&h);
        let series = |label: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let pooled = series("pooled (by arity)");
        let global = series("global (single pool)");
        assert_eq!(pooled.points.len(), SHIFTS.len());

        // Pooled coverage stays near nominal at the heaviest shift;
        // global must be strictly worse there.
        let last = SHIFTS.len() - 1;
        let p_cov = pooled.points[last].mean;
        let g_cov = global.points[last].mean;
        assert!(
            p_cov >= 0.85,
            "pooled coverage {p_cov} under worst-case shift"
        );
        assert!(
            g_cov < p_cov,
            "global calibration should break under shift: {g_cov} vs pooled {p_cov}"
        );
    }
}
