//! Replicated train/validation/test splits (paper Sec 5.1).
//!
//! Each replicate draws an independent train/test partition at a given train
//! fraction; within the train pool, 80% is used for optimization and 20% for
//! validation *and* conformal calibration. Splits are stratified by
//! interference mode so every mode has train/val/test data at all fractions.

use crate::observe::{Dataset, MAX_INTERFERERS};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Index-based split of a [`Dataset`]'s observations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Split {
    /// Observation indices used for gradient training.
    pub train: Vec<usize>,
    /// Observation indices used for validation and conformal calibration.
    pub val: Vec<usize>,
    /// Held-out test observation indices.
    pub test: Vec<usize>,
    /// The train fraction this split was built at.
    pub train_fraction: f32,
    /// Replicate seed.
    pub seed: u64,
}

impl Split {
    /// Builds a stratified split: `train_fraction` of each interference mode
    /// goes to the train pool (80% train / 20% val), the rest to test.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `(0, 1)`.
    pub fn stratified(dataset: &Dataset, train_fraction: f32, seed: u64) -> Self {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction {train_fraction} outside (0,1)"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
        let mut train = Vec::new();
        let mut val = Vec::new();
        let mut test = Vec::new();
        for k in 0..=MAX_INTERFERERS {
            let mut idx = dataset.mode_indices(k);
            idx.shuffle(&mut rng);
            let n_pool = ((idx.len() as f32) * train_fraction).round() as usize;
            let pool = &idx[..n_pool];
            let n_train = (pool.len() as f32 * 0.8).round() as usize;
            train.extend_from_slice(&pool[..n_train]);
            val.extend_from_slice(&pool[n_train..]);
            test.extend_from_slice(&idx[n_pool..]);
        }
        Split {
            train,
            val,
            test,
            train_fraction,
            seed,
        }
    }

    /// The validation holdout halved into `(calibration, selection)` for
    /// conformal calibration (paper Sec 3.5, App B.2): calibration scores
    /// come from the first half, head selection reads the second.
    ///
    /// `val` is ordered by interference mode, so the halves interleave it
    /// rather than bisect it: both then hold every mode with at least two
    /// holdout observations. A lone observation lands in both halves.
    pub fn holdout_halves(&self) -> (Vec<usize>, Vec<usize>) {
        let cal: Vec<usize> = self.val.iter().copied().step_by(2).collect();
        let sel: Vec<usize> = self.val.iter().copied().skip(1).step_by(2).collect();
        if sel.is_empty() {
            (cal.clone(), cal)
        } else {
            (cal, sel)
        }
    }

    /// Observation indices in `self.train` with exactly `k` interferers.
    pub fn train_mode(&self, dataset: &Dataset, k: usize) -> Vec<usize> {
        self.train
            .iter()
            .copied()
            .filter(|&i| dataset.observations[i].interferers.len() == k)
            .collect()
    }

    /// Total observation count covered by the split.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// Whether the split is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The train fractions used across the paper's evaluation (10%–90%).
pub fn paper_fractions() -> Vec<f32> {
    (1..=9).map(|i| i as f32 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Testbed, TestbedConfig};
    use std::collections::HashSet;

    fn dataset() -> Dataset {
        Testbed::generate(&TestbedConfig::small()).collect_dataset()
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let ds = dataset();
        let split = Split::stratified(&ds, 0.5, 0);
        let all: HashSet<usize> = split
            .train
            .iter()
            .chain(&split.val)
            .chain(&split.test)
            .copied()
            .collect();
        assert_eq!(all.len(), split.len(), "overlapping partitions");
        assert_eq!(split.len(), ds.observations.len());
    }

    #[test]
    fn fractions_are_respected() {
        let ds = dataset();
        let split = Split::stratified(&ds, 0.3, 1);
        let pool = split.train.len() + split.val.len();
        let frac = pool as f32 / ds.observations.len() as f32;
        assert!((frac - 0.3).abs() < 0.02, "pool fraction {frac}");
        let val_frac = split.val.len() as f32 / pool as f32;
        assert!((val_frac - 0.2).abs() < 0.02, "val fraction {val_frac}");
    }

    #[test]
    fn stratification_covers_every_mode() {
        let ds = dataset();
        let split = Split::stratified(&ds, 0.1, 2);
        for k in 0..=MAX_INTERFERERS {
            assert!(
                !split.train_mode(&ds, k).is_empty(),
                "mode {k} missing from train"
            );
            let test_k = split
                .test
                .iter()
                .filter(|&&i| ds.observations[i].interferers.len() == k)
                .count();
            assert!(test_k > 0, "mode {k} missing from test");
        }
    }

    #[test]
    fn holdout_halves_cover_val_and_every_mode() {
        let ds = dataset();
        let split = Split::stratified(&ds, 0.3, 3);
        let (cal, sel) = split.holdout_halves();
        let mut union: Vec<usize> = cal.iter().chain(&sel).copied().collect();
        union.sort_unstable();
        let mut val = split.val.clone();
        val.sort_unstable();
        assert_eq!(union, val, "the halves partition val");
        let arities = |idx: &[usize]| -> HashSet<usize> {
            idx.iter()
                .map(|&i| ds.observations[i].interferers.len())
                .collect()
        };
        let present = arities(&split.val);
        assert_eq!(present.len(), MAX_INTERFERERS + 1);
        assert_eq!(arities(&cal), present, "calibration half misses a mode");
        assert_eq!(arities(&sel), present, "selection half misses a mode");
    }

    #[test]
    fn a_lone_holdout_observation_lands_in_both_halves() {
        let mut split = Split::stratified(&dataset(), 0.5, 0);
        split.val.truncate(1);
        let (cal, sel) = split.holdout_halves();
        assert_eq!(cal, split.val);
        assert_eq!(sel, split.val);
    }

    #[test]
    fn replicates_differ_and_seeds_reproduce() {
        let ds = dataset();
        let a = Split::stratified(&ds, 0.5, 0);
        let b = Split::stratified(&ds, 0.5, 0);
        let c = Split::stratified(&ds, 0.5, 1);
        assert_eq!(a.train, b.train);
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn paper_fractions_span_10_to_90() {
        let f = paper_fractions();
        assert_eq!(f.len(), 9);
        assert_eq!(f[0], 0.1);
        assert_eq!(f[8], 0.9);
    }
}
