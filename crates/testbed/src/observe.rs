//! Data collection: running benchmarks on the simulated cluster.
//!
//! Mirrors the paper's App C.3 procedure: one isolation pass over every
//! supported (workload, platform) pair, then `sets_per_platform` random sets
//! of 2, 3, and 4 simultaneously-running workloads per platform, each member
//! of a set contributing one observation with the rest as interferers.
//! Timeouts and crashes are excluded.

use crate::features::{FeatureConfig, Features};
use crate::testbed::Testbed;
use crate::workload::Workload;
use pitot_linalg::Matrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Maximum number of *interfering* workloads per observation (4-way set =
/// 1 primary + 3 interferers).
pub const MAX_INTERFERERS: usize = 3;

/// One measured benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Primary workload index.
    pub workload: u32,
    /// Platform index.
    pub platform: u32,
    /// Interfering workload indices (0–3 of them).
    pub interferers: Vec<u32>,
    /// Measured wall-clock runtime in seconds.
    pub runtime_s: f32,
}

impl Observation {
    /// Natural log of the measured runtime.
    pub fn log_runtime(&self) -> f32 {
        self.runtime_s.ln()
    }

    /// Number of simultaneously-running workloads (1 = isolation).
    pub fn concurrency(&self) -> usize {
        1 + self.interferers.len()
    }
}

/// A dataset's observation list, shared between clones of the dataset: a
/// clone copies a pointer, so a server or a fleet built over a caller's
/// dataset holds no second copy of its observations. Reads go straight to
/// the one list; the first write through a clone (an append, a compaction,
/// an edit) copies the list for that clone alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observations(Arc<Vec<Observation>>);

impl std::ops::Deref for Observations {
    type Target = Vec<Observation>;

    fn deref(&self) -> &Vec<Observation> {
        &self.0
    }
}

impl std::ops::DerefMut for Observations {
    fn deref_mut(&mut self) -> &mut Vec<Observation> {
        Arc::make_mut(&mut self.0)
    }
}

impl From<Vec<Observation>> for Observations {
    fn from(list: Vec<Observation>) -> Self {
        Self(Arc::new(list))
    }
}

impl<'a> IntoIterator for &'a Observations {
    type Item = &'a Observation;
    type IntoIter = std::slice::Iter<'a, Observation>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<'a> IntoIterator for &'a mut Observations {
    type Item = &'a mut Observation;
    type IntoIter = std::slice::IterMut<'a, Observation>;

    fn into_iter(self) -> Self::IntoIter {
        Arc::make_mut(&mut self.0).iter_mut()
    }
}

impl Serialize for Observations {
    fn serialize(&self) -> serde::json::Value {
        self.0.serialize()
    }
}

impl Deserialize for Observations {
    fn deserialize(v: &serde::json::Value) -> Result<Self, serde::json::Error> {
        Vec::deserialize(v).map(Self::from)
    }
}

/// A collected dataset: observations plus the side-information matrices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// All usable observations (isolation first, then interference), shared
    /// between clones of the dataset (see [`Observations`]).
    pub observations: Observations,
    /// Workload features `x_w` (`Nw × Fw`): log-transformed opcode counts.
    pub workload_features: Matrix,
    /// Platform features `x_p` (`Np × Fp`): one-hot runtime/microarch plus
    /// frequency and memory-hierarchy information.
    pub platform_features: Matrix,
    /// Number of workloads `Nw`.
    pub n_workloads: usize,
    /// Number of platforms `Np`.
    pub n_platforms: usize,
    /// Workload suite labels (for Fig 7 groupings).
    pub workload_suites: Vec<String>,
}

impl Dataset {
    /// Indices of observations with exactly `k` interferers.
    pub fn mode_indices(&self, k: usize) -> Vec<usize> {
        self.observations
            .iter()
            .enumerate()
            .filter(|(_, o)| o.interferers.len() == k)
            .map(|(i, _)| i)
            .collect()
    }

    /// Count of observations with no interference.
    pub fn isolation_count(&self) -> usize {
        self.observations
            .iter()
            .filter(|o| o.interferers.is_empty())
            .count()
    }

    /// Count of observations with at least one interferer.
    pub fn interference_count(&self) -> usize {
        self.observations.len() - self.isolation_count()
    }
}

impl Testbed {
    /// Runs the full collection procedure with default features.
    pub fn collect_dataset(&self) -> Dataset {
        self.collect_dataset_with(&FeatureConfig::default())
    }

    /// Runs the full collection procedure with explicit feature options.
    pub fn collect_dataset_with(&self, features: &FeatureConfig) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config().seed ^ 0x0B5E_55ED);
        let truth = self.truth();
        let workloads = self.workloads();
        let n_platforms = self.platforms().len();
        let timeout = self.config().timeout_s;
        let crash_rate = self.config().crash_rate;

        let mut observations = Vec::new();

        // Crash table: some (workload, platform) combinations simply do not
        // work (codegen bugs, missing WASI features) and are excluded from
        // both passes, exactly like the paper's omissions.
        let crashes: Vec<bool> = (0..workloads.len() * n_platforms)
            .map(|_| rng.gen_bool(crash_rate))
            .collect();
        let crashed = |w: usize, p: usize| crashes[w * n_platforms + p];

        // Pass 1: isolation (paper: 53,637 observations).
        for (widx, w) in workloads.iter().enumerate() {
            for pidx in 0..n_platforms {
                if crashed(widx, pidx) {
                    continue;
                }
                let log_rt = truth.sample_log_runtime(w, widx, &[], &[], pidx, &mut rng);
                let rt = log_rt.exp();
                if rt > timeout {
                    continue; // interpreter too slow for the window
                }
                observations.push(Observation {
                    workload: widx as u32,
                    platform: pidx as u32,
                    interferers: Vec::new(),
                    runtime_s: rt,
                });
            }
        }

        // Pass 2: interference sets (paper: 250 sets each of 2/3/4 per
        // platform; a set is dropped whole if any member crashes, and
        // timed-out members are dropped but their partners kept).
        for pidx in 0..n_platforms {
            for set_size in 2..=(1 + MAX_INTERFERERS) {
                for _ in 0..self.config().sets_per_platform {
                    let set = self.sample_set(set_size, &mut rng);
                    if set.iter().any(|&w| crashed(w, pidx)) {
                        continue;
                    }
                    for (slot, &widx) in set.iter().enumerate() {
                        let others_idx: Vec<usize> = set
                            .iter()
                            .enumerate()
                            .filter(|(s, _)| *s != slot)
                            .map(|(_, &k)| k)
                            .collect();
                        let others: Vec<&Workload> =
                            others_idx.iter().map(|&k| &workloads[k]).collect();
                        let log_rt = truth.sample_log_runtime(
                            &workloads[widx],
                            widx,
                            &others,
                            &others_idx,
                            pidx,
                            &mut rng,
                        );
                        let rt = log_rt.exp();
                        if rt > timeout {
                            continue;
                        }
                        observations.push(Observation {
                            workload: widx as u32,
                            platform: pidx as u32,
                            interferers: others_idx.iter().map(|&k| k as u32).collect(),
                            runtime_s: rt,
                        });
                    }
                }
            }
        }

        let feats = Features::build(self, features);
        Dataset {
            observations: observations.into(),
            workload_features: feats.workload,
            platform_features: feats.platform,
            n_workloads: workloads.len(),
            n_platforms,
            workload_suites: workloads
                .iter()
                .map(|w| w.suite.label().to_string())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestbedConfig;

    fn small_dataset() -> Dataset {
        Testbed::generate(&TestbedConfig::small()).collect_dataset()
    }

    #[test]
    fn clones_share_observations_until_one_writes() {
        let ds = small_dataset();
        let mut clone = ds.clone();
        assert!(std::ptr::eq(
            ds.observations.as_slice(),
            clone.observations.as_slice()
        ));
        clone.observations[0].runtime_s *= 2.0;
        clone.observations.push(ds.observations[1].clone());
        assert!(!std::ptr::eq(
            ds.observations.as_slice(),
            clone.observations.as_slice()
        ));
        assert_eq!(clone.observations.len(), ds.observations.len() + 1);
        assert_eq!(
            clone.observations[0].runtime_s,
            2.0 * ds.observations[0].runtime_s
        );
    }

    #[test]
    fn has_all_interference_modes() {
        let ds = small_dataset();
        for k in 0..=MAX_INTERFERERS {
            assert!(
                !ds.mode_indices(k).is_empty(),
                "no observations with {k} interferers"
            );
        }
        let total: usize = (0..=MAX_INTERFERERS)
            .map(|k| ds.mode_indices(k).len())
            .sum();
        assert_eq!(total, ds.observations.len());
    }

    #[test]
    fn runtimes_within_window_and_positive() {
        let ds = small_dataset();
        for o in ds.observations.iter() {
            assert!(o.runtime_s > 0.0);
            assert!(o.runtime_s <= 30.0);
            assert!(o.log_runtime().is_finite());
        }
    }

    #[test]
    fn every_workload_and_platform_observed() {
        let ds = small_dataset();
        let mut w_seen = vec![false; ds.n_workloads];
        let mut p_seen = vec![false; ds.n_platforms];
        for o in ds.observations.iter() {
            w_seen[o.workload as usize] = true;
            p_seen[o.platform as usize] = true;
        }
        assert!(
            w_seen.iter().all(|&b| b),
            "paper assumption: every workload observed"
        );
        assert!(
            p_seen.iter().all(|&b| b),
            "paper assumption: every platform observed"
        );
    }

    #[test]
    fn interferers_are_distinct_and_exclude_primary() {
        let ds = small_dataset();
        for o in ds.observations.iter() {
            let mut ks = o.interferers.clone();
            ks.sort_unstable();
            ks.dedup();
            assert_eq!(ks.len(), o.interferers.len());
            assert!(!o.interferers.contains(&o.workload));
            assert!(o.interferers.len() <= MAX_INTERFERERS);
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let a = small_dataset();
        let b = small_dataset();
        assert_eq!(a.observations.len(), b.observations.len());
        assert_eq!(a.observations[0], b.observations[0]);
    }

    #[test]
    fn paper_scale_counts_are_in_range() {
        // Generating the paper-scale dataset is slower; keep one coarse check.
        let tb = Testbed::generate(&TestbedConfig {
            sets_per_platform: 25,
            ..TestbedConfig::paper()
        });
        let ds = tb.collect_dataset();
        // Isolation pass: 249 workloads × ~220 platforms ≈ 55k minus
        // crashes/timeouts.
        let iso = ds.isolation_count();
        assert!((30_000..=60_000).contains(&iso), "isolation count {iso}");
        assert!(ds.interference_count() > iso / 2);
    }
}
