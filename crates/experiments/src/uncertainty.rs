//! Uncertainty-quantification experiments (paper Figs 5, 6b, 8, 11).

use crate::harness::Harness;
use crate::methods::{Method, PitotPredictor};
use crate::report::{Figure, Point, Series};
use pitot::{EvalSet, Objective, PitotConfig};
use pitot_baselines::LogPredictor;
use pitot_conformal::{calibrate_gamma, overprovision_margin, HeadSelection, SweepCalibration};
use pitot_testbed::{split::Split, Dataset};

/// Miscoverage sweep used by the tightness figures.
pub fn epsilons(h: &Harness) -> Vec<f32> {
    match h.scale {
        crate::harness::Scale::Fast => vec![0.10, 0.08, 0.06, 0.04, 0.02],
        crate::harness::Scale::Full => (1..=10).rev().map(|i| i as f32 / 100.0).collect(),
    }
}

/// `model`'s conformal calibration on `split`'s holdout, each half
/// predicted once: [`pitot::calibrate`] fed by any [`LogPredictor`].
pub fn calibration(model: &dyn LogPredictor, dataset: &Dataset, split: &Split) -> SweepCalibration {
    pitot::calibrate(dataset, split, model.quantile_levels(), |idx| {
        model.predict_log(dataset, idx)
    })
}

/// `idx` predicted once by `model`, for scoring any number of fits.
pub fn eval_set(model: &dyn LogPredictor, dataset: &Dataset, idx: &[usize]) -> EvalSet {
    EvalSet::new(dataset, idx, model.predict_log(dataset, idx))
}

/// The three uncertainty strategies of Fig 5.
fn fig5_strategies(h: &Harness) -> Vec<(String, PitotConfig, HeadSelection)> {
    let quant = PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    };
    let squared = h.pitot_config();
    vec![
        (
            "Pitot".to_string(),
            quant.clone(),
            HeadSelection::TightestOnValidation,
        ),
        ("Naive CQR".to_string(), quant, HeadSelection::NaiveXi),
        (
            "Non-quantile".to_string(),
            squared,
            HeadSelection::SingleHead,
        ),
    ]
}

/// Fig 5: bound tightness across miscoverage rates at the 50% train split,
/// comparing the paper's CQR (with quantile selection) against naive CQR and
/// conformalized squared regression.
pub fn fig5(h: &Harness) -> Figure {
    let mut fig = Figure::new("fig5", "Bound tightness of CQR variants (50% split)");
    let eps_list = epsilons(h);
    for (label, cfg, selection) in fig5_strategies(h) {
        let mut pts_no: Vec<Vec<f32>> = vec![Vec::new(); eps_list.len()];
        let mut pts_with: Vec<Vec<f32>> = vec![Vec::new(); eps_list.len()];
        for rep in 0..h.replicates {
            let split = h.split(0.5, rep);
            let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
            let model = PitotPredictor::new(trained);
            // Predict calibration and test sets once; every ε reuses them.
            let calib = calibration(&model, &h.dataset, &split);
            let eval_no = eval_set(&model, &h.dataset, &h.test_without_interference(&split));
            let eval_with = eval_set(&model, &h.dataset, &h.test_with_interference(&split));
            for (e, &eps) in eps_list.iter().enumerate() {
                let conformal = calib.fit(eps, selection);
                pts_no[e].push(eval_no.margin(&conformal));
                pts_with[e].push(eval_with.margin(&conformal));
            }
        }
        push_eps_series(&mut fig, &label, &eps_list, pts_no, pts_with);
    }
    fig
}

/// Fig 6b: bound tightness versus the baselines at the 50% split.
pub fn fig6b(h: &Harness) -> Figure {
    let mut fig = Figure::new("fig6b", "Bound tightness vs baselines (50% split)");
    tightness_vs_baselines(h, &mut fig, 0.5);
    fig
}

/// Fig 11: the full grid — tightness vs baselines across train fractions.
/// The fast harness samples the grid at {10%, 50%, 90%}; `--full` covers
/// all nine splits like the paper.
pub fn fig11(h: &Harness) -> Figure {
    let mut fig = Figure::new("fig11", "Bound tightness vs baselines across train splits");
    let fractions: Vec<f32> = match h.scale {
        crate::harness::Scale::Fast => vec![0.1, 0.5, 0.9],
        crate::harness::Scale::Full => h.fractions.clone(),
    };
    for &fraction in &fractions {
        tightness_vs_baselines(h, &mut fig, fraction);
    }
    fig
}

fn tightness_vs_baselines(h: &Harness, fig: &mut Figure, fraction: f32) {
    let eps_list = epsilons(h);
    let quant_pitot = Method::Pitot(PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    });
    let methods: Vec<(Method, HeadSelection)> = vec![
        (quant_pitot, HeadSelection::TightestOnValidation),
        (
            Method::NeuralNetwork(h.nn_config()),
            HeadSelection::SingleHead,
        ),
        (
            Method::Attention(h.attention_config()),
            HeadSelection::SingleHead,
        ),
        (
            Method::MatrixFactorization(h.mf_config()),
            HeadSelection::SingleHead,
        ),
    ];
    for (method, selection) in methods {
        let mut pts_no: Vec<Vec<f32>> = vec![Vec::new(); eps_list.len()];
        let mut pts_with: Vec<Vec<f32>> = vec![Vec::new(); eps_list.len()];
        for rep in 0..h.replicates {
            let split = h.split(fraction, rep);
            let model = method.train(&h.dataset, &split, rep as u64);
            let calib = calibration(model.as_ref(), &h.dataset, &split);
            let eval_no = eval_set(
                model.as_ref(),
                &h.dataset,
                &h.test_without_interference(&split),
            );
            let eval_with = eval_set(
                model.as_ref(),
                &h.dataset,
                &h.test_with_interference(&split),
            );
            for (e, &eps) in eps_list.iter().enumerate() {
                let conformal = calib.fit(eps, selection);
                pts_no[e].push(eval_no.margin(&conformal));
                pts_with[e].push(eval_with.margin(&conformal));
            }
        }
        let label = format!("{} @ {:.0}%", method.label(), fraction * 100.0);
        push_eps_series(fig, &label, &eps_list, pts_no, pts_with);
    }
}

fn push_eps_series(
    fig: &mut Figure,
    label: &str,
    eps_list: &[f32],
    pts_no: Vec<Vec<f32>>,
    pts_with: Vec<Vec<f32>>,
) {
    fig.series.push(Series {
        label: label.to_string(),
        panel: "without interference".into(),
        metric: "bound tightness".into(),
        points: eps_list
            .iter()
            .zip(pts_no)
            .map(|(&x, v)| Point::from_replicates(x, v))
            .collect(),
    });
    fig.series.push(Series {
        label: label.to_string(),
        panel: "with interference".into(),
        metric: "bound tightness".into(),
        points: eps_list
            .iter()
            .zip(pts_with)
            .map(|(&x, v)| Point::from_replicates(x, v))
            .collect(),
    });
}

/// Fig 8: post-calibration tightness as a function of the quantile-regression
/// target quantile ξ, at ε = 0.05 (App B.2's motivation for quantile
/// selection).
pub fn fig8(h: &Harness) -> Figure {
    let mut fig = Figure::new(
        "fig8",
        "Bound tightness by target quantile (ε = 0.05, without interference)",
    );
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    };
    let xis = cfg.objective.xis();
    let eps = 0.05;
    let mut per_head: Vec<Vec<f32>> = vec![Vec::new(); xis.len()];
    for rep in 0..h.replicates {
        let split = h.split(0.5, rep);
        let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
        let model = PitotPredictor::new(trained);
        // Calibrate each head on the no-interference pool and measure margin
        // on the no-interference test set.
        let no_val: Vec<usize> = split
            .val
            .iter()
            .copied()
            .filter(|&i| h.dataset.observations[i].interferers.is_empty())
            .collect();
        let no_test = h.test_without_interference(&split);
        let cal_preds = model.predict_log(&h.dataset, &no_val);
        let test_preds = model.predict_log(&h.dataset, &no_test);
        let cal_t: Vec<f32> = no_val
            .iter()
            .map(|&i| h.dataset.observations[i].log_runtime())
            .collect();
        let test_t: Vec<f32> = no_test
            .iter()
            .map(|&i| h.dataset.observations[i].log_runtime())
            .collect();
        for (hd, head_preds) in cal_preds.iter().enumerate() {
            let scores: Vec<f32> = head_preds.iter().zip(&cal_t).map(|(p, t)| t - p).collect();
            let gamma = calibrate_gamma(&scores, eps);
            let bounds: Vec<f32> = test_preds[hd].iter().map(|p| p + gamma).collect();
            per_head[hd].push(overprovision_margin(&bounds, &test_t));
        }
    }
    fig.series.push(Series {
        label: "calibrated margin".into(),
        panel: "without interference".into(),
        metric: "bound tightness".into(),
        points: xis
            .iter()
            .zip(per_head)
            .map(|(&xi, v)| Point::from_replicates(xi, v))
            .collect(),
    });
    let best = fig.series[0]
        .points
        .iter()
        .min_by(|a, b| a.mean.total_cmp(&b.mean))
        .map(|p| p.x)
        .unwrap_or(f32::NAN);
    fig.notes.push(format!(
        "tightest target quantile ξ* = {best:.2} (naive CQR would use ξ = 0.95)"
    ));
    fig
}

/// Extension experiment (not in the paper's figures, motivated by its Sec 2
/// WCET discussion): measurement-based WCET bounds vs Pitot's conformal
/// bounds at matched coverage. WCET typically over-covers and pays an
/// order-of-magnitude larger overprovisioning margin.
pub fn wcet_extension(h: &Harness) -> Figure {
    let mut fig = Figure::new(
        "ext-wcet",
        "WCET-style bounds vs conformal bounds (50% split)",
    );
    let eps = 0.05;
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    };
    let mut rows: Vec<(String, Vec<f32>, Vec<f32>)> = vec![
        ("Pitot conformal".into(), Vec::new(), Vec::new()),
        ("WCET x1.2".into(), Vec::new(), Vec::new()),
        ("WCET x2.0".into(), Vec::new(), Vec::new()),
    ];
    for rep in 0..h.replicates {
        let split = h.split(0.5, rep);
        let no_idx = h.test_without_interference(&split);
        let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
        let model = PitotPredictor::new(trained);
        let conformal =
            calibration(&model, &h.dataset, &split).fit(eps, HeadSelection::TightestOnValidation);
        let eval_no = eval_set(&model, &h.dataset, &no_idx);
        rows[0].1.push(eval_no.margin(&conformal));
        rows[0].2.push(eval_no.coverage(&conformal));
        for (slot, factor) in [(1usize, 1.2f32), (2, 2.0)] {
            let wcet = pitot_baselines::WcetBaseline::from_split(&h.dataset, &split, factor);
            let bounds = wcet.predict_log(&h.dataset, &no_idx)[0].clone();
            let targets: Vec<f32> = no_idx
                .iter()
                .map(|&i| h.dataset.observations[i].log_runtime())
                .collect();
            rows[slot].1.push(overprovision_margin(&bounds, &targets));
            rows[slot]
                .2
                .push(pitot_conformal::coverage(&bounds, &targets));
        }
    }
    for (label, margins, coverages) in rows {
        fig.series.push(Series {
            label: label.clone(),
            panel: "without interference".into(),
            metric: "bound tightness".into(),
            points: vec![Point::from_replicates(eps, margins)],
        });
        fig.series.push(Series {
            label,
            panel: "without interference".into(),
            metric: "coverage".into(),
            points: vec![Point::from_replicates(eps, coverages)],
        });
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn generic_bounds_cover_for_a_baseline() {
        let mut h = Harness::new(Scale::Fast);
        h.eval_cap = 3000;
        let split = h.split(0.5, 0);
        let mut cfg = h.mf_config();
        cfg.train.steps = 300;
        let model = Method::MatrixFactorization(cfg).train(&h.dataset, &split, 0);
        let conformal =
            calibration(model.as_ref(), &h.dataset, &split).fit(0.1, HeadSelection::SingleHead);
        let eval = eval_set(
            model.as_ref(),
            &h.dataset,
            &h.test_without_interference(&split),
        );
        let cov = eval.coverage(&conformal);
        assert!(cov >= 0.85, "coverage {cov}");
        let m = eval.margin(&conformal);
        assert!(m > 0.0 && m.is_finite());
    }

    #[test]
    fn the_pitot_adapter_fits_what_the_model_fits() {
        // Through the generic path, the LogPredictor adapter calibrates
        // bitwise what the model's own fit_bounds does.
        let mut h = Harness::new(Scale::Fast);
        h.eval_cap = 3000;
        let split = h.split(0.5, 0);
        let cfg = PitotConfig {
            objective: Objective::paper_quantiles(),
            steps: 80,
            eval_every: 40,
            ..h.pitot_config()
        };
        let model = PitotPredictor::new(pitot::train(&h.dataset, &split, &cfg));
        let calib = calibration(&model, &h.dataset, &split);
        for selection in [
            HeadSelection::SingleHead,
            HeadSelection::NaiveXi,
            HeadSelection::TightestOnValidation,
        ] {
            for eps in [0.02f32, 0.1, 0.3] {
                assert_eq!(
                    calib.fit(eps, selection),
                    model.trained().fit_bounds(&h.dataset, eps, selection),
                    "{selection:?} eps {eps}"
                );
            }
        }
    }
}
