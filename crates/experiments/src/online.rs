//! Online learning: a new device joins the cluster (extension).
//!
//! The paper's conclusion names "efficient online learning" as the main
//! future-work item. This experiment stages the event that matters in
//! deployment: a device the model has never seen starts reporting
//! observations. Three responses are compared on the new device's held-out
//! data:
//!
//! - **stale**: keep serving the pre-trained model (lower bar);
//! - **fine-tune**: warm-start from the deployed checkpoint on the adapt
//!   data at a fraction of the training budget (the extension built into
//!   [`pitot::TrainedPitot::fine_tune`]);
//! - **retrain**: full training from scratch on the same adapt data (upper
//!   bar at full cost).
//!
//! Expected shape: fine-tuning recovers most of the retrain accuracy at
//! ~10–20% of the step budget; the stale model is far worse because the new
//! device's φ and scaling-baseline terms were never fit.

use crate::harness::Harness;
use crate::report::{Figure, Point, Series};
use pitot_testbed::device_arrival;

/// Adapt fractions swept (fraction of the new device's data made available).
const ADAPT_FRACTIONS: [f32; 3] = [0.1, 0.25, 0.5];

/// Picks a device with rich platform coverage for the arrival scenario
/// (an x86 desktop: supports every runtime, so the holdout is large).
fn arrival_device(h: &Harness) -> usize {
    let mut counts = vec![0usize; h.testbed.devices().len()];
    for p in h.testbed.platforms() {
        counts[p.device] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(d, _)| d)
        .expect("non-empty device catalog")
}

/// Extension figure: MAPE on the new device for stale / fine-tune / retrain
/// across adapt fractions.
pub fn ext_online(h: &Harness) -> Figure {
    let mut fig = Figure::new(
        "ext-online",
        "Online adaptation to a new device (extension)",
    );
    let device = arrival_device(h);
    let cfg = h.pitot_config();
    let fine_tune_steps = (cfg.steps / 8).max(50);

    let mut stale_pts: Vec<Vec<f32>> = vec![Vec::new(); ADAPT_FRACTIONS.len()];
    let mut tuned_pts: Vec<Vec<f32>> = vec![Vec::new(); ADAPT_FRACTIONS.len()];
    let mut retrain_pts: Vec<Vec<f32>> = vec![Vec::new(); ADAPT_FRACTIONS.len()];

    for rep in 0..h.replicates {
        for (a, &adapt_frac) in ADAPT_FRACTIONS.iter().enumerate() {
            let arrival =
                device_arrival(&h.dataset, &h.testbed, device, 0.5, adapt_frac, rep as u64);
            let test: Vec<usize> = if h.eval_cap > 0 && arrival.new_device_test.len() > h.eval_cap {
                let stride = arrival.new_device_test.len().div_ceil(h.eval_cap);
                arrival
                    .new_device_test
                    .iter()
                    .copied()
                    .step_by(stride)
                    .collect()
            } else {
                arrival.new_device_test.clone()
            };

            let cfg_rep = cfg.clone().with_seed(rep as u64);
            let stale = pitot::train(&h.dataset, &arrival.pretrain, &cfg_rep);
            stale_pts[a].push(stale.mape(&h.dataset, &test));

            let tuned = stale.fine_tune(&h.dataset, &arrival.adapt, fine_tune_steps);
            tuned_pts[a].push(tuned.mape(&h.dataset, &test));

            let retrained = pitot::train(&h.dataset, &arrival.adapt, &cfg_rep);
            retrain_pts[a].push(retrained.mape(&h.dataset, &test));
        }
    }

    for (label, pts) in [
        ("stale (no update)", stale_pts),
        ("fine-tune (warm start)", tuned_pts),
        ("retrain (from scratch)", retrain_pts),
    ] {
        fig.series.push(Series {
            label: label.into(),
            panel: "new-device test".into(),
            metric: "MAPE".into(),
            points: pts
                .into_iter()
                .zip(ADAPT_FRACTIONS)
                .map(|(values, frac)| Point::from_replicates(frac, values))
                .collect(),
        });
    }
    fig.notes.push(format!(
        "device {device} ({}); fine-tune budget {fine_tune_steps} steps vs {} from scratch",
        h.testbed.devices()[device].name,
        cfg.steps
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn fine_tuning_beats_stale_and_approaches_retrain() {
        let h = Harness::new(Scale::Fast);
        let fig = ext_online(&h);
        let series = |label: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let stale = series("stale (no update)");
        let tuned = series("fine-tune (warm start)");
        let retrain = series("retrain (from scratch)");

        // At the largest adapt fraction the ordering must be clear.
        let last = ADAPT_FRACTIONS.len() - 1;
        let (s, t, r) = (
            stale.points[last].mean,
            tuned.points[last].mean,
            retrain.points[last].mean,
        );
        assert!(
            t < s,
            "fine-tuning must beat the stale model on a new device: tuned {t} vs stale {s}"
        );
        // Fine-tuning at 1/8 the budget should land within 2x of retraining.
        assert!(t < r * 2.0 + 0.05, "fine-tune {t} too far from retrain {r}");
    }
}
