//! Conformal-variant comparison (extension): the paper's pooled CQR versus
//! its methodological neighbours.
//!
//! The paper compares three calibration strategies (Fig 5). The conformal
//! literature it draws on offers more; this experiment adds the two nearest
//! alternatives, all wrapped around the *same* trained quantile model:
//!
//! - **pooled CQR** (the paper): per-arity pools + optimal head selection;
//! - **scaled conformal** (Sousa et al., the "CQR-r" family): one global
//!   offset on scores normalized by the ξ=0.9 − ξ=0.5 head spread;
//! - **split conformal** on the median head (non-adaptive reference);
//! - a **two-sided CQR** interval, reported in the notes, whose lower edge
//!   doubles as the paper's assumed phase-shift detector.
//!
//! Expected shape: pooled CQR and scaled conformal are close (both adapt),
//! with pooled CQR ahead where arity drives heteroscedasticity; plain split
//! conformal is widest. All must cover.

use crate::harness::Harness;
use crate::methods::PitotPredictor;
use crate::report::{Figure, Point, Series};
use crate::uncertainty::{epsilons, eval_set};
use pitot::{EvalSet, Objective, PitotConfig};
use pitot_baselines::LogPredictor;
use pitot_conformal::{
    coverage, head_spread, interval_coverage, mean_interval_factor, overprovision_margin,
    HeadSelection, ScaledConformal, SplitConformal, SweepCalibration, TwoSidedCqr,
};
use pitot_testbed::Dataset;

/// Index of the ξ=0.5 head in the paper's quantile spread.
const MEDIAN_HEAD: usize = 0;
/// Index of the ξ=0.9 head in the paper's quantile spread.
const HI_HEAD: usize = 4;

struct VariantEval {
    margin_no: f32,
    margin_with: f32,
    cov_all: f32,
}

/// One replicate's predictions and precomputed scores, shared by every
/// `(variant, ε)` pair: the calibration half is predicted and scored once,
/// the test sets are predicted once, and each fit below is a quantile
/// lookup over the appropriate score slice.
struct VariantData {
    calib: SweepCalibration,
    /// The calibration half, which the scaled and two-sided variants read.
    cal: EvalSet,
    /// Spread-normalized median-head scores (scaled conformal sweep).
    scaled_scores: Vec<f32>,
    eval_no: EvalSet,
    eval_with: EvalSet,
    eval_all: EvalSet,
}

impl VariantData {
    fn prepare(
        model: &dyn LogPredictor,
        dataset: &Dataset,
        split: &pitot_testbed::split::Split,
        no_idx: &[usize],
        with_idx: &[usize],
    ) -> Self {
        // `calibrate` asks for the calibration half first; keep that one
        // prediction for the variants that read it.
        let mut cal = None;
        let calib = pitot::calibrate(dataset, split, model.quantile_levels(), |idx| {
            let preds = model.predict_log(dataset, idx);
            cal.get_or_insert_with(|| EvalSet::new(dataset, idx, preds.clone()));
            preds
        });
        let cal = cal.expect("the calibration half was predicted");
        let (median, hi) = (&cal.preds()[MEDIAN_HEAD], &cal.preds()[HI_HEAD]);
        let scaled_scores: Vec<f32> = median
            .iter()
            .zip(cal.targets())
            .zip(head_spread(median, hi))
            .map(|((p, t), d)| (t - p) / d.max(pitot_conformal::MIN_SCALE))
            .collect();

        let all_idx: Vec<usize> = no_idx.iter().chain(with_idx).copied().collect();
        Self {
            calib,
            cal,
            scaled_scores,
            eval_no: eval_set(model, dataset, no_idx),
            eval_with: eval_set(model, dataset, with_idx),
            eval_all: eval_set(model, dataset, &all_idx),
        }
    }

    fn eval_variants(&self, eps: f32) -> Vec<(&'static str, VariantEval)> {
        let eval_bounds =
            |bound_for: &dyn Fn(&[Vec<f32>], usize) -> f32, set: &EvalSet| -> (f32, f32) {
                let bounds: Vec<f32> = (0..set.len()).map(|b| bound_for(set.preds(), b)).collect();
                (
                    overprovision_margin(&bounds, set.targets()),
                    coverage(&bounds, set.targets()),
                )
            };

        let mut out = Vec::new();

        // 1. Pooled CQR (the paper).
        {
            let pooled = self.calib.fit(eps, HeadSelection::TightestOnValidation);
            out.push((
                "pooled CQR (paper)",
                VariantEval {
                    margin_no: self.eval_no.margin(&pooled),
                    margin_with: self.eval_with.margin(&pooled),
                    cov_all: self.eval_all.coverage(&pooled),
                },
            ));
        }

        // 2. Scaled conformal: dispersion = hi-head − median-head spread.
        {
            let scaled = ScaledConformal::from_scores(&self.scaled_scores, eps);
            let bound_for = |preds: &[Vec<f32>], b: usize| {
                let d = (preds[HI_HEAD][b] - preds[MEDIAN_HEAD][b]).max(pitot_conformal::MIN_SCALE);
                scaled.upper_bound_log(preds[MEDIAN_HEAD][b], d)
            };
            let (m_no, _) = eval_bounds(&bound_for, &self.eval_no);
            let (m_with, _) = eval_bounds(&bound_for, &self.eval_with);
            let (_, cov) = eval_bounds(&bound_for, &self.eval_all);
            out.push((
                "scaled conformal (CQR-r)",
                VariantEval {
                    margin_no: m_no,
                    margin_with: m_with,
                    cov_all: cov,
                },
            ));
        }

        // 3. Plain split conformal on the median head.
        {
            let sc = SplitConformal::from_sorted_scores(
                self.calib.scored().sorted_scores(MEDIAN_HEAD),
                eps,
            );
            let bound_for =
                |preds: &[Vec<f32>], b: usize| sc.upper_bound_log(preds[MEDIAN_HEAD][b]);
            let (m_no, _) = eval_bounds(&bound_for, &self.eval_no);
            let (m_with, _) = eval_bounds(&bound_for, &self.eval_with);
            let (_, cov) = eval_bounds(&bound_for, &self.eval_all);
            out.push((
                "split conformal (median head)",
                VariantEval {
                    margin_no: m_no,
                    margin_with: m_with,
                    cov_all: cov,
                },
            ));
        }

        out
    }
}

/// Extension figure: tightness/coverage of conformal variants at the 50%
/// split, plus two-sided interval statistics in the notes.
pub fn ext_conformal_variants(h: &Harness) -> Figure {
    let mut fig = Figure::new(
        "ext-conformal",
        "Conformal variants around one trained model (extension)",
    );
    let eps_list = epsilons(h);
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    };

    let labels = [
        "pooled CQR (paper)",
        "scaled conformal (CQR-r)",
        "split conformal (median head)",
    ];
    let mut margins_no: Vec<Vec<Vec<f32>>> = vec![vec![Vec::new(); eps_list.len()]; labels.len()];
    let mut margins_with: Vec<Vec<Vec<f32>>> = vec![vec![Vec::new(); eps_list.len()]; labels.len()];
    let mut coverages: Vec<Vec<Vec<f32>>> = vec![vec![Vec::new(); eps_list.len()]; labels.len()];
    let mut interval_notes = Vec::new();

    for rep in 0..h.replicates {
        let split = h.split(0.5, rep);
        let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
        let model = PitotPredictor::new(trained);
        let no_idx = h.test_without_interference(&split);
        let with_idx = h.test_with_interference(&split);

        let data = VariantData::prepare(&model, &h.dataset, &split, &no_idx, &with_idx);
        for (e, &eps) in eps_list.iter().enumerate() {
            let results = data.eval_variants(eps);
            for (v, (label, ev)) in results.into_iter().enumerate() {
                debug_assert_eq!(label, labels[v]);
                margins_no[v][e].push(ev.margin_no);
                margins_with[v][e].push(ev.margin_with);
                coverages[v][e].push(ev.cov_all);
            }
        }

        // Quantile-head crossing diagnostic (reported in notes): how often
        // the independently trained ξ-heads actually cross, which is what
        // `PitotConfig::rearrange_quantiles` fixes. Then the two-sided
        // interval at ε = 0.1, over the same test predictions.
        if rep == 0 {
            let test = &data.eval_all;
            interval_notes.push(format!(
                "quantile-head crossing rate on test data: {:.1}% of observations",
                100.0 * pitot_conformal::crossing_rate(test.preds())
            ));
            let cal = &data.cal;
            let cqr2 = TwoSidedCqr::fit(
                &cal.preds()[MEDIAN_HEAD],
                &cal.preds()[HI_HEAD],
                cal.targets(),
                0.1,
            );
            let ivs = cqr2.intervals_log(&test.preds()[MEDIAN_HEAD], &test.preds()[HI_HEAD]);
            interval_notes.push(format!(
                "two-sided CQR at ε=0.1: coverage {:.3}, mean interval factor {:.2}x",
                interval_coverage(&ivs, test.targets()),
                mean_interval_factor(&ivs),
            ));
        }
    }

    for (v, label) in labels.iter().enumerate() {
        for (panel, data) in [
            ("without interference", &margins_no[v]),
            ("with interference", &margins_with[v]),
        ] {
            fig.series.push(Series {
                label: (*label).into(),
                panel: panel.into(),
                metric: "bound tightness".into(),
                points: data
                    .iter()
                    .zip(&eps_list)
                    .map(|(values, &eps)| Point::from_replicates(eps, values.clone()))
                    .collect(),
            });
        }
        fig.series.push(Series {
            label: (*label).into(),
            panel: "all test data".into(),
            metric: "coverage".into(),
            points: coverages[v]
                .iter()
                .zip(&eps_list)
                .map(|(values, &eps)| Point::from_replicates(eps, values.clone()))
                .collect(),
        });
    }
    fig.notes.extend(interval_notes);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn variants_cover_and_adaptive_beats_constant() {
        let h = Harness::new(Scale::Fast);
        let fig = ext_conformal_variants(&h);

        // Every variant covers at every ε (within sampling slack).
        for s in fig.series.iter().filter(|s| s.metric == "coverage") {
            for p in &s.points {
                assert!(
                    p.mean >= 1.0 - p.x - 0.05,
                    "{} under-covers at ε={}: {}",
                    s.label,
                    p.x,
                    p.mean
                );
            }
        }

        // At the strictest ε with interference, the paper's pooled CQR must
        // not lose badly to the non-adaptive reference.
        let margin_at = |label: &str| {
            let s = fig
                .series
                .iter()
                .find(|s| s.label == label && s.panel == "with interference")
                .unwrap_or_else(|| panic!("{label} missing"));
            s.points.last().expect("points").mean
        };
        let pooled = margin_at("pooled CQR (paper)");
        let plain = margin_at("split conformal (median head)");
        assert!(
            pooled <= plain * 1.1,
            "pooled CQR ({pooled}) should not be looser than split conformal ({plain})"
        );
    }
}
