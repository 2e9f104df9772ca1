//! Hyperparameter ablations (paper Fig 10 / App D.2): learned features `q`,
//! embedding dimension `r`, interference types `s`, and interference weight
//! `β`, with MAPE split by interference mode.

use crate::harness::Harness;
use crate::report::{Figure, Point, Series};
use pitot::PitotConfig;

/// Which hyperparameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sweep {
    /// Learned features q ∈ {0, 1, 2, 4, 8}.
    LearnedFeatures,
    /// Embedding dimension r ∈ {4, 8, 16, 32, 64}.
    EmbeddingDim,
    /// Interference types s ∈ {1, 2, 4, 8, 16}.
    InterferenceTypes,
    /// Interference weight β ∈ {0.1, 0.2, 0.5, 1.0, 2.0}.
    InterferenceWeight,
}

impl Sweep {
    /// All sweeps in paper order.
    pub const ALL: [Sweep; 4] = [
        Sweep::LearnedFeatures,
        Sweep::EmbeddingDim,
        Sweep::InterferenceTypes,
        Sweep::InterferenceWeight,
    ];

    /// Paper values for the sweep (Fig 10 rows).
    pub fn values(self) -> Vec<f32> {
        match self {
            Sweep::LearnedFeatures => vec![0.0, 1.0, 2.0, 4.0, 8.0],
            Sweep::EmbeddingDim => vec![4.0, 8.0, 16.0, 32.0, 64.0],
            Sweep::InterferenceTypes => vec![1.0, 2.0, 4.0, 8.0, 16.0],
            Sweep::InterferenceWeight => vec![0.1, 0.2, 0.5, 1.0, 2.0],
        }
    }

    /// Row label in the figure.
    pub fn label(self) -> &'static str {
        match self {
            Sweep::LearnedFeatures => "Learned Features q",
            Sweep::EmbeddingDim => "Embedding r",
            Sweep::InterferenceTypes => "Interference Types s",
            Sweep::InterferenceWeight => "Interference Weight beta",
        }
    }

    /// Applies the value to a configuration.
    pub fn apply(self, base: &PitotConfig, value: f32) -> PitotConfig {
        let mut cfg = base.clone();
        match self {
            Sweep::LearnedFeatures => cfg.learned_features = value as usize,
            Sweep::EmbeddingDim => cfg.embed_dim = value as usize,
            Sweep::InterferenceTypes => cfg.interference_types = value as usize,
            Sweep::InterferenceWeight => cfg.interference_weight = value,
        }
        cfg
    }
}

/// Runs one Fig 10 row: MAPE per interference mode across the sweep values,
/// at a single representative train fraction per x-point (the fast harness
/// uses 50%; the paper plots fraction on the x-axis, which the full-scale
/// runner reproduces by calling this per fraction).
pub fn fig10_row(h: &Harness, sweep: Sweep) -> Figure {
    let fractions: Vec<f32> = match h.scale {
        crate::harness::Scale::Fast => vec![0.5],
        crate::harness::Scale::Full => vec![0.2, 0.5, 0.8],
    };
    let mut fig = Figure::new(
        format!("fig10-{}", sweep.label().replace(' ', "-").to_lowercase()),
        format!("Hyperparameter ablation: {}", sweep.label()),
    );
    let base = h.pitot_config();
    for value in sweep.values() {
        let cfg = sweep.apply(&base, value);
        // Panels: MAPE by interference mode (paper columns).
        let mut by_mode: Vec<Vec<(f32, Vec<f32>)>> = vec![Vec::new(); 4];
        for &fraction in &fractions {
            let mut reps_by_mode: Vec<Vec<f32>> = vec![Vec::new(); 4];
            for rep in 0..h.replicates {
                let split = h.split(fraction, rep);
                let trained = pitot::train(&h.dataset, &split, &cfg.clone().with_seed(rep as u64));
                let test: Vec<usize> = {
                    let mut t = h.test_without_interference(&split);
                    t.extend(h.test_with_interference(&split));
                    t
                };
                let by_mode = pitot::mape_by_mode(&trained, &h.dataset, &test);
                for (reps, m) in reps_by_mode.iter_mut().zip(by_mode) {
                    if let Some(m) = m.filter(|m| m.is_finite()) {
                        reps.push(m);
                    }
                }
            }
            for k in 0..4 {
                by_mode[k].push((fraction, reps_by_mode[k].clone()));
            }
        }
        for (k, fr) in by_mode.into_iter().enumerate() {
            let panel = match k {
                0 => "no interference".to_string(),
                k => format!("{}-way interference", k + 1),
            };
            fig.series.push(Series {
                label: format!("{} = {}", sweep.label(), value),
                panel,
                metric: "MAPE".into(),
                points: fr
                    .into_iter()
                    .map(|(x, reps)| Point::from_replicates(x, reps))
                    .collect(),
            });
        }
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_produce_valid_configs() {
        let base = PitotConfig::tiny();
        for sweep in Sweep::ALL {
            for v in sweep.values() {
                let cfg = sweep.apply(&base, v);
                if sweep == Sweep::LearnedFeatures && v == 0.0 {
                    // q=0 relies on side information being enabled.
                    assert!(cfg.use_workload_features);
                }
                cfg.validate();
            }
        }
    }

    #[test]
    fn sweep_labels_are_unique() {
        let labels: std::collections::HashSet<_> = Sweep::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
