//! Extended baseline comparison (extension): every predictor in the
//! workspace at the 50% split.
//!
//! Beyond the paper's three comparators (Fig 6a), this experiment adds the
//! methodological neighbours each of Pitot's design choices displaced:
//!
//! - **kNN collaborative filtering** — training-free; how much of the
//!   problem is raw collaborative structure?
//! - **Inductive matrix completion** (Chiang et al., cited Sec 3.3) — the
//!   analytic bilinear model; the gap to Pitot isolates tower nonlinearity
//!   plus learned features φ.
//! - **CP tensor completion** (footnote 6) — the "just complete the
//!   3-way tensor" approach the paper argues cannot survive sparsity.
//!
//! Measured shape (fast harness, see EXPERIMENTS.md): Pitot leads on the
//! interference panel and is within noise of the best on isolation; kNN CF
//! actually *wins* isolation (pure collaborative structure is strong when
//! half the matrix is observed) but pays ~3.7x error under interference;
//! the linear IMC cannot even beat the per-entity scaling floor — the
//! clearest evidence that tower nonlinearity plus learned features φ is
//! where Pitot's isolation accuracy comes from; tensor completion trails
//! interference-aware methods exactly as footnote 6 predicts.

use crate::harness::Harness;
use crate::methods::Method;
use crate::report::{Figure, Point, Series};
use pitot_baselines::{
    ImcConfig, InductiveMc, KnnCollaborative, KnnConfig, LogPredictor, TensorCompletion,
    TensorConfig,
};
use pitot_testbed::split::Split;

/// Extension figure: MAPE with/without interference for all eight
/// predictors at the 50% split.
pub fn ext_baselines(h: &Harness) -> Figure {
    let mut fig = Figure::new(
        "ext-baselines",
        "All predictors at the 50% split (extension)",
    );

    // (label, per-replicate trainer)
    type Trainer<'a> = Box<dyn Fn(&Split, u64) -> Box<dyn LogPredictor> + 'a>;
    let knn_cfg = KnnConfig::default();
    let imc_cfg = match h.scale {
        crate::harness::Scale::Fast => ImcConfig::fast(),
        crate::harness::Scale::Full => ImcConfig {
            rank: 8,
            max_obs: 40_000,
            ..ImcConfig::fast()
        },
    };
    let tensor_cfg = match h.scale {
        crate::harness::Scale::Fast => {
            let mut c = TensorConfig::fast();
            // Free-embedding models need the step budget to traverse the
            // log-runtime spread (same reasoning as the MF baseline).
            c.train.steps = 4000;
            c
        }
        crate::harness::Scale::Full => TensorConfig::paper(),
    };

    let methods: Vec<(&str, Trainer)> = vec![
        (
            "Pitot",
            Box::new(|s: &Split, seed| Method::Pitot(h.pitot_config()).train(&h.dataset, s, seed)),
        ),
        (
            "Neural Network",
            Box::new(|s: &Split, seed| {
                Method::NeuralNetwork(h.nn_config()).train(&h.dataset, s, seed)
            }),
        ),
        (
            "Attention",
            Box::new(|s: &Split, seed| {
                Method::Attention(h.attention_config()).train(&h.dataset, s, seed)
            }),
        ),
        (
            "Matrix Factorization",
            Box::new(|s: &Split, seed| {
                Method::MatrixFactorization(h.mf_config()).train(&h.dataset, s, seed)
            }),
        ),
        (
            "kNN CF",
            Box::new(|s: &Split, _| {
                Box::new(KnnCollaborative::fit(&h.dataset, s, &knn_cfg)) as Box<dyn LogPredictor>
            }),
        ),
        (
            "Inductive MC",
            Box::new(|s: &Split, seed| {
                let mut cfg = imc_cfg.clone();
                cfg.seed = seed;
                Box::new(InductiveMc::fit(&h.dataset, s, &cfg)) as Box<dyn LogPredictor>
            }),
        ),
        (
            "Tensor CP",
            Box::new(|s: &Split, seed| {
                let mut cfg = tensor_cfg.clone();
                cfg.train = cfg.train.with_seed(seed);
                Box::new(TensorCompletion::train(&h.dataset, s, &cfg)) as Box<dyn LogPredictor>
            }),
        ),
        (
            "Scaling baseline only",
            Box::new(|s: &Split, _| {
                let scaling = pitot::ScalingBaseline::fit(&h.dataset, s.train.as_slice());
                Box::new(ScalingOnly(scaling)) as Box<dyn LogPredictor>
            }),
        ),
    ];

    for (label, trainer) in methods {
        let mut no_reps = Vec::new();
        let mut with_reps = Vec::new();
        for rep in 0..h.replicates {
            let split = h.split(0.5, rep);
            let model = trainer(&split, rep as u64);
            no_reps.push(model.mape(&h.dataset, &h.test_without_interference(&split)));
            with_reps.push(model.mape(&h.dataset, &h.test_with_interference(&split)));
        }
        for (panel, reps) in [
            ("without interference", no_reps),
            ("with interference", with_reps),
        ] {
            fig.series.push(Series {
                label: label.to_string(),
                panel: panel.into(),
                metric: "MAPE".into(),
                points: vec![Point::from_replicates(0.5, reps)],
            });
        }
    }
    let grab = |label: &str, panel: &str| {
        fig.series
            .iter()
            .find(|s| s.label == label && s.panel == panel)
            .map(|s| s.points[0].mean)
            .unwrap_or(f32::NAN)
    };
    fig.notes.push(format!(
        "kNN CF wins isolation ({:.1}% vs Pitot {:.1}%) but is interference-blind          ({:.1}% vs {:.1}%) — collaborative structure alone is strong at the 50% split",
        100.0 * grab("kNN CF", "without interference"),
        100.0 * grab("Pitot", "without interference"),
        100.0 * grab("kNN CF", "with interference"),
        100.0 * grab("Pitot", "with interference"),
    ));
    fig.notes.push(format!(
        "linear inductive MC ({:.1}%) does not beat the per-entity scaling floor          ({:.1}%): feature-span-restricted bilinear models lack the capacity the          paper's two-tower nonlinearity + φ provide",
        100.0 * grab("Inductive MC", "without interference"),
        100.0 * grab("Scaling baseline only", "without interference"),
    ));
    fig
}

/// The scaling baseline alone as a `LogPredictor` (the floor every learned
/// method must beat).
struct ScalingOnly(pitot::ScalingBaseline);

impl LogPredictor for ScalingOnly {
    fn predict_log(&self, dataset: &pitot_testbed::Dataset, idx: &[usize]) -> Vec<Vec<f32>> {
        vec![idx
            .iter()
            .map(|&i| {
                let o = &dataset.observations[i];
                self.0
                    .log_baseline(o.workload as usize, o.platform as usize)
            })
            .collect()]
    }

    fn method_name(&self) -> &'static str {
        "scaling-only"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn extended_comparison_has_expected_ordering() {
        let h = Harness::new(Scale::Fast);
        let fig = ext_baselines(&h);
        assert_eq!(fig.series.len(), 16, "8 methods × 2 panels");
        let mape = |label: &str, panel: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label && s.panel == panel)
                .unwrap_or_else(|| panic!("{label}/{panel} missing"))
                .points[0]
                .mean
        };
        // Pitot beats the non-collaborative and capacity-limited rivals on
        // isolation (kNN CF legitimately wins this panel at the 50% split —
        // recorded in the figure notes, asserted on the interference panel).
        let pitot_iso = mape("Pitot", "without interference");
        for rival in [
            "Matrix Factorization",
            "Inductive MC",
            "Tensor CP",
            "Scaling baseline only",
        ] {
            assert!(
                pitot_iso < mape(rival, "without interference"),
                "{rival} beat Pitot on isolation error"
            );
        }
        // On the interference panel, interference-blindness is fatal: Pitot
        // must beat every blind method plus tensor completion.
        let pitot_intf = mape("Pitot", "with interference");
        for rival in [
            "Matrix Factorization",
            "kNN CF",
            "Inductive MC",
            "Tensor CP",
            "Scaling baseline only",
        ] {
            assert!(
                pitot_intf < mape(rival, "with interference"),
                "{rival} beat Pitot under interference"
            );
        }
        // Collaborative/neural methods beat the raw scaling floor on
        // isolation (linear IMC does not — see figure notes).
        let floor = mape("Scaling baseline only", "without interference");
        for m in ["Pitot", "Neural Network", "Attention", "kNN CF"] {
            assert!(
                mape(m, "without interference") < floor,
                "{m} did not beat the scaling floor"
            );
        }
    }
}
