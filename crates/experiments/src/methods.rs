//! A uniform interface over Pitot and the baselines for comparisons.

use pitot::{Matrix, PitotConfig, TowerCache, TrainedPitot};
use pitot_baselines::{
    AttentionConfig, AttentionNet, LogPredictor, MatrixFactorization, MfConfig, NeuralNetwork,
    NnConfig,
};
use pitot_testbed::{split::Split, Dataset, Observation};
use std::cell::RefCell;

/// Adapter making a [`TrainedPitot`] usable through the [`LogPredictor`]
/// trait the baselines share.
///
/// Both towers run once per adapter, not once per call: the first call
/// builds a [`TowerCache`], and later calls reuse it while the dataset's
/// feature matrices equal the ones it was built from (the towers read
/// nothing else of the dataset).
pub struct PitotPredictor {
    trained: TrainedPitot,
    towers: RefCell<Option<CachedTowers>>,
}

/// A tower cache with the feature matrices it was built from.
struct CachedTowers {
    workload_features: Matrix,
    platform_features: Matrix,
    cache: TowerCache,
}

impl PitotPredictor {
    /// Wraps a trained model.
    pub fn new(trained: TrainedPitot) -> Self {
        Self {
            trained,
            towers: RefCell::new(None),
        }
    }

    /// The wrapped model.
    pub fn trained(&self) -> &TrainedPitot {
        &self.trained
    }
}

impl LogPredictor for PitotPredictor {
    /// [`TrainedPitot::predict_log_runtime`] through the adapter's tower
    /// cache: bitwise the same predictions.
    fn predict_log(&self, dataset: &Dataset, idx: &[usize]) -> Vec<Vec<f32>> {
        let mut towers = self.towers.borrow_mut();
        let built_for = |t: &CachedTowers| {
            t.workload_features == dataset.workload_features
                && t.platform_features == dataset.platform_features
        };
        if !towers.as_ref().is_some_and(built_for) {
            *towers = Some(CachedTowers {
                workload_features: dataset.workload_features.clone(),
                platform_features: dataset.platform_features.clone(),
                cache: self.trained.tower_cache(dataset),
            });
        }
        let cache = &towers.as_ref().expect("built above").cache;
        let obs: Vec<&Observation> = idx.iter().map(|&i| &dataset.observations[i]).collect();
        let mut rows = Matrix::default();
        self.trained
            .predict_log_runtime_into(cache, &obs, &mut rows);
        (0..rows.cols())
            .map(|h| rows.iter_rows().map(|row| row[h]).collect())
            .collect()
    }

    fn quantile_levels(&self) -> Vec<f32> {
        self.trained.model.config().objective.xis()
    }

    fn method_name(&self) -> &'static str {
        "Pitot"
    }
}

/// A trainable method in the Fig 6 comparison.
#[derive(Debug, Clone)]
pub enum Method {
    /// The paper's method.
    Pitot(PitotConfig),
    /// Pure matrix factorization (App B.4).
    MatrixFactorization(MfConfig),
    /// Neural-network baseline (App B.4).
    NeuralNetwork(NnConfig),
    /// Attention baseline (App B.4).
    Attention(AttentionConfig),
}

impl Method {
    /// Display label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Pitot(_) => "Pitot",
            Method::MatrixFactorization(_) => "Matrix Factorization",
            Method::NeuralNetwork(_) => "Neural Network",
            Method::Attention(_) => "Attention",
        }
    }

    /// Trains the method on a split, with `seed` controlling replicate
    /// randomness.
    pub fn train(&self, dataset: &Dataset, split: &Split, seed: u64) -> Box<dyn LogPredictor> {
        match self {
            Method::Pitot(cfg) => {
                let cfg = cfg.clone().with_seed(seed);
                Box::new(PitotPredictor::new(pitot::train(dataset, split, &cfg)))
            }
            Method::MatrixFactorization(cfg) => {
                let mut cfg = cfg.clone();
                cfg.train = cfg.train.with_seed(seed);
                Box::new(MatrixFactorization::train(dataset, split, &cfg))
            }
            Method::NeuralNetwork(cfg) => {
                let mut cfg = cfg.clone();
                cfg.train = cfg.train.with_seed(seed);
                Box::new(NeuralNetwork::train(dataset, split, &cfg))
            }
            Method::Attention(cfg) => {
                let mut cfg = cfg.clone();
                cfg.train = cfg.train.with_seed(seed);
                Box::new(AttentionNet::train(dataset, split, &cfg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitot_testbed::{Testbed, TestbedConfig};

    #[test]
    fn all_methods_train_and_predict() {
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&ds, 0.5, 0);
        let methods = vec![
            Method::Pitot(PitotConfig::tiny()),
            Method::MatrixFactorization(MfConfig::tiny()),
            Method::NeuralNetwork(NnConfig::tiny()),
            Method::Attention(AttentionConfig::tiny()),
        ];
        let idx: Vec<usize> = split.test.iter().copied().take(50).collect();
        for m in methods {
            let model = m.train(&ds, &split, 0);
            let preds = model.predict_log(&ds, &idx);
            assert_eq!(preds[0].len(), idx.len(), "{}", m.label());
            assert!(preds[0].iter().all(|p| p.is_finite()), "{}", m.label());
        }
    }
}
