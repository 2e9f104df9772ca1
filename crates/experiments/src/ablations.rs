//! Method ablations (paper Fig 4a–d): loss formulation, side information,
//! interference handling, and the interference activation function.

use crate::harness::Harness;
use crate::report::{Figure, Point, Series};
use pitot::{InterferenceMode, LossSpace, PitotConfig};
use pitot_nn::Activation;

/// Runs an error-vs-train-fraction sweep over named Pitot variants and
/// reports MAPE with and without interference as separate panels (the
/// paper's two-panel layout).
pub fn pitot_error_curve(
    h: &Harness,
    id: &str,
    title: &str,
    variants: &[(String, PitotConfig)],
) -> Figure {
    let mut fig = Figure::new(id, title);
    for (label, cfg) in variants {
        let mut no_points = Vec::new();
        let mut with_points = Vec::new();
        for &fraction in &h.fractions {
            let mut no_reps = Vec::new();
            let mut with_reps = Vec::new();
            for rep in 0..h.replicates {
                let split = h.split(fraction, rep);
                let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
                let no_idx = h.test_without_interference(&split);
                let with_idx = h.test_with_interference(&split);
                no_reps.push(trained.mape(&h.dataset, &no_idx));
                with_reps.push(trained.mape(&h.dataset, &with_idx));
            }
            no_points.push(Point::from_replicates(fraction, no_reps));
            with_points.push(Point::from_replicates(fraction, with_reps));
        }
        fig.series.push(Series {
            label: label.clone(),
            panel: "without interference".into(),
            metric: "MAPE".into(),
            points: no_points,
        });
        fig.series.push(Series {
            label: label.clone(),
            panel: "with interference".into(),
            metric: "MAPE".into(),
            points: with_points,
        });
    }
    fig
}

/// Fig 4a: log-residual objective vs plain log objective vs naive
/// proportional loss.
pub fn fig4a(h: &Harness) -> Figure {
    let base = h.pitot_config();
    let variants = vec![
        ("Log-Residual Objective".to_string(), base.clone()),
        (
            "Log Objective".to_string(),
            PitotConfig {
                loss_space: LossSpace::Log,
                ..base.clone()
            },
        ),
        (
            "Naive Proportional Loss".to_string(),
            PitotConfig {
                loss_space: LossSpace::NaiveProportional,
                ..base
            },
        ),
    ];
    pitot_error_curve(h, "fig4a", "Loss formulation ablation", &variants)
}

/// Fig 4b (and its uncropped twin Fig 9a): workload/platform side
/// information ablation.
pub fn fig4b(h: &Harness) -> Figure {
    let base = h.pitot_config();
    let variants = vec![
        ("All Features".to_string(), base.clone()),
        (
            "Platform Features Only".to_string(),
            PitotConfig {
                use_workload_features: false,
                ..base.clone()
            },
        ),
        (
            "Workload Features Only".to_string(),
            PitotConfig {
                use_platform_features: false,
                ..base.clone()
            },
        ),
        (
            "No Features".to_string(),
            PitotConfig {
                use_workload_features: false,
                use_platform_features: false,
                // Without side information the learned features carry the
                // whole embedding; give them a little more width.
                learned_features: base.learned_features.max(4),
                ..base
            },
        ),
    ];
    pitot_error_curve(h, "fig4b", "Side information ablation", &variants)
}

/// Fig 4c: interference-aware vs discard vs ignore.
pub fn fig4c(h: &Harness) -> Figure {
    let base = h.pitot_config();
    let variants = vec![
        ("Interference-Aware".to_string(), base.clone()),
        (
            "Discard".to_string(),
            PitotConfig {
                interference: InterferenceMode::Discard,
                ..base.clone()
            },
        ),
        (
            "Ignore".to_string(),
            PitotConfig {
                interference: InterferenceMode::Ignore,
                ..base
            },
        ),
    ];
    pitot_error_curve(h, "fig4c", "Interference handling ablation", &variants)
}

/// Fig 4d: interference activation function vs simple multiplicative model.
pub fn fig4d(h: &Harness) -> Figure {
    let base = h.pitot_config();
    let variants = vec![
        ("With Activation Function".to_string(), base.clone()),
        (
            "Simple Multiplicative".to_string(),
            PitotConfig {
                interference_activation: Activation::Identity,
                ..base
            },
        ),
    ];
    pitot_error_curve(h, "fig4d", "Interference activation ablation", &variants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    /// One miniature end-to-end ablation run exercising the shared loop.
    #[test]
    fn error_curve_shape() {
        let mut h = Harness::new(Scale::Fast);
        h.fractions = vec![0.5];
        h.replicates = 1;
        h.eval_cap = 2000;
        let mut cfg = h.pitot_config();
        cfg.steps = 120;
        cfg.eval_every = 60;
        let fig = pitot_error_curve(&h, "t", "t", &[("Pitot".into(), cfg)]);
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 1);
        assert!(fig.series[0].points[0].mean.is_finite());
    }
}
