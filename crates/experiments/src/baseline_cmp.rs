//! Baseline comparison (paper Fig 6a / Fig 9b and the Sec 5.3 headline
//! numbers).

use crate::harness::Harness;
use crate::methods::Method;
use crate::report::{Figure, Point, Series};
use crate::uncertainty::{calibration, epsilons, eval_set};
use pitot::{Objective, PitotConfig};
use pitot_conformal::HeadSelection;

fn comparison_methods(h: &Harness) -> Vec<Method> {
    vec![
        Method::Pitot(h.pitot_config()),
        Method::NeuralNetwork(h.nn_config()),
        Method::Attention(h.attention_config()),
        Method::MatrixFactorization(h.mf_config()),
    ]
}

/// Fig 6a (uncropped: Fig 9b): MAPE of Pitot vs the three baselines across
/// train fractions, with and without interference.
pub fn fig6a(h: &Harness) -> Figure {
    let mut fig = Figure::new("fig6a", "Error vs baselines");
    for method in comparison_methods(h) {
        let mut no_points = Vec::new();
        let mut with_points = Vec::new();
        for &fraction in &h.fractions {
            let mut no_reps = Vec::new();
            let mut with_reps = Vec::new();
            for rep in 0..h.replicates {
                let split = h.split(fraction, rep);
                let model = method.train(&h.dataset, &split, rep as u64);
                let no_idx = h.test_without_interference(&split);
                let with_idx = h.test_with_interference(&split);
                no_reps.push(model.mape(&h.dataset, &no_idx));
                with_reps.push(model.mape(&h.dataset, &with_idx));
            }
            no_points.push(Point::from_replicates(fraction, no_reps));
            with_points.push(Point::from_replicates(fraction, with_reps));
        }
        fig.series.push(Series {
            label: method.label().to_string(),
            panel: "without interference".into(),
            metric: "MAPE".into(),
            points: no_points,
        });
        fig.series.push(Series {
            label: method.label().to_string(),
            panel: "with interference".into(),
            metric: "MAPE".into(),
            points: with_points,
        });
    }

    // Headline numbers (Sec 5.3): best Pitot error and improvement vs the
    // next-best baseline at the richest split.
    if let Some(pitot_s) = fig.series_for("Pitot", "without interference") {
        if let Some(best) = pitot_s.points.iter().map(|p| p.mean).reduce(f32::min) {
            fig.notes.push(format!(
                "Pitot best error without interference: {:.1}%",
                best * 100.0
            ));
        }
    }
    summarize_improvement(&mut fig);
    fig
}

/// Adds average/max improvement-vs-next-best-baseline notes across all
/// panels and x positions (the paper's "up to 48% less error, average 36%").
fn summarize_improvement(fig: &mut Figure) {
    let mut improvements = Vec::new();
    let panels = ["without interference", "with interference"];
    for panel in panels {
        let pitot = match fig.series_for("Pitot", panel) {
            Some(s) => s.points.clone(),
            None => continue,
        };
        for (pi, p) in pitot.iter().enumerate() {
            let mut best_baseline = f32::INFINITY;
            for s in fig
                .series
                .iter()
                .filter(|s| s.panel == panel && s.label != "Pitot")
            {
                if let Some(bp) = s.points.get(pi) {
                    best_baseline = best_baseline.min(bp.mean);
                }
            }
            if best_baseline.is_finite() && best_baseline > 0.0 {
                improvements.push(1.0 - p.mean / best_baseline);
            }
        }
    }
    if !improvements.is_empty() {
        let avg = pitot_linalg::mean(&improvements);
        let max = improvements
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        fig.notes.push(format!(
            "error vs next-best baseline: average {:.0}% less, up to {:.0}% less",
            avg * 100.0,
            max * 100.0
        ));
    }
}

/// The Sec 5.3 summary: error and tightness improvements over the next-best
/// baseline, aggregated from fresh 50%-split runs.
pub fn summary(h: &Harness) -> Figure {
    let mut fig = Figure::new("summary", "Sec 5.3 headline numbers (50% split)");
    let split_frac = 0.5;
    let eps = *epsilons(h).last().unwrap_or(&0.02);

    // Error comparison.
    let mut errors: Vec<(String, f32)> = Vec::new();
    for method in comparison_methods(h) {
        let mut reps = Vec::new();
        for rep in 0..h.replicates {
            let split = h.split(split_frac, rep);
            let model = method.train(&h.dataset, &split, rep as u64);
            let no_idx = h.test_without_interference(&split);
            reps.push(model.mape(&h.dataset, &no_idx));
        }
        errors.push((method.label().to_string(), pitot_linalg::mean(&reps)));
        fig.series.push(Series {
            label: method.label().to_string(),
            panel: "without interference".into(),
            metric: "MAPE".into(),
            points: vec![Point::from_replicates(split_frac, reps)],
        });
    }

    // Tightness comparison at the strictest epsilon.
    let quant = Method::Pitot(PitotConfig {
        objective: Objective::paper_quantiles(),
        ..h.pitot_config()
    });
    let mut margins: Vec<(String, f32)> = Vec::new();
    let bound_methods: Vec<(Method, HeadSelection)> = vec![
        (quant, HeadSelection::TightestOnValidation),
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
    for (method, selection) in bound_methods {
        let mut reps = Vec::new();
        for rep in 0..h.replicates {
            let split = h.split(split_frac, rep);
            let model = method.train(&h.dataset, &split, rep as u64);
            let conformal = calibration(model.as_ref(), &h.dataset, &split).fit(eps, selection);
            let no_idx = h.test_without_interference(&split);
            reps.push(eval_set(model.as_ref(), &h.dataset, &no_idx).margin(&conformal));
        }
        margins.push((method.label().to_string(), pitot_linalg::mean(&reps)));
        fig.series.push(Series {
            label: method.label().to_string(),
            panel: format!("bound tightness @ eps={eps}"),
            metric: "bound tightness".into(),
            points: vec![Point::from_replicates(split_frac, reps)],
        });
    }

    let note = |items: &[(String, f32)], what: &str| -> Option<String> {
        let pitot = items.iter().find(|(l, _)| l == "Pitot")?.1;
        let next_best = items
            .iter()
            .filter(|(l, _)| l != "Pitot")
            .map(|(_, v)| *v)
            .fold(f32::INFINITY, f32::min);
        Some(format!(
            "Pitot {what}: {pitot:.4}; next-best baseline {next_best:.4} ({:.0}% better)",
            (1.0 - pitot / next_best) * 100.0
        ))
    };
    if let Some(n) = note(&errors, "error") {
        fig.notes.push(n);
    }
    if let Some(n) = note(&margins, "tightness") {
        fig.notes.push(n);
    }
    fig
}
