//! Dataset summary statistics (the Sec 4 / App C.3 bookkeeping).
//!
//! The paper reports its dataset as headline counts: 53,637 isolation and
//! 357,333 interference observations, Nw = 249, Np = 231, runtimes spanning
//! several orders of magnitude. [`DatasetStats`] computes the same summary
//! for any collected dataset, so EXPERIMENTS.md can cite measured numbers
//! and tests can pin the simulator to the paper's shape.

use crate::observe::{Dataset, MAX_INTERFERERS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Headline statistics of a collected dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Observation count per interference arity (index = #interferers).
    pub per_mode: Vec<usize>,
    /// Unique workloads / platforms actually observed.
    pub observed_workloads: usize,
    /// Unique platforms actually observed.
    pub observed_platforms: usize,
    /// Fraction of (workload, platform) cells with ≥1 isolation observation.
    pub isolation_fill: f32,
    /// Minimum observed runtime (seconds).
    pub min_runtime_s: f32,
    /// Maximum observed runtime (seconds).
    pub max_runtime_s: f32,
    /// Geometric mean runtime (seconds).
    pub geomean_runtime_s: f32,
    /// Orders of magnitude spanned (log10 max − log10 min).
    pub runtime_decades: f32,
    /// Workload count per suite label.
    pub per_suite: BTreeMap<String, usize>,
}

impl DatasetStats {
    /// Computes statistics over every observation.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn compute(dataset: &Dataset) -> Self {
        assert!(!dataset.observations.is_empty(), "empty dataset");
        let mut per_mode = vec![0usize; MAX_INTERFERERS + 1];
        let mut w_seen = vec![false; dataset.n_workloads];
        let mut p_seen = vec![false; dataset.n_platforms];
        let mut cell_seen = vec![false; dataset.n_workloads * dataset.n_platforms];
        let mut min_rt = f32::INFINITY;
        let mut max_rt = 0.0f32;
        let mut log_sum = 0.0f64;

        for o in &dataset.observations {
            per_mode[o.interferers.len()] += 1;
            w_seen[o.workload as usize] = true;
            p_seen[o.platform as usize] = true;
            if o.interferers.is_empty() {
                cell_seen[o.workload as usize * dataset.n_platforms + o.platform as usize] = true;
            }
            min_rt = min_rt.min(o.runtime_s);
            max_rt = max_rt.max(o.runtime_s);
            log_sum += o.log_runtime() as f64;
        }

        let mut per_suite = BTreeMap::new();
        for s in &dataset.workload_suites {
            *per_suite.entry(s.clone()).or_insert(0) += 1;
        }

        Self {
            per_mode,
            observed_workloads: w_seen.iter().filter(|&&b| b).count(),
            observed_platforms: p_seen.iter().filter(|&&b| b).count(),
            isolation_fill: cell_seen.iter().filter(|&&b| b).count() as f32
                / cell_seen.len() as f32,
            min_runtime_s: min_rt,
            max_runtime_s: max_rt,
            geomean_runtime_s: (log_sum / dataset.observations.len() as f64).exp() as f32,
            runtime_decades: (max_rt / min_rt).log10(),
            per_suite,
        }
    }

    /// Total observation count.
    pub fn total(&self) -> usize {
        self.per_mode.iter().sum()
    }

    /// Observations with at least one interferer.
    pub fn interference_total(&self) -> usize {
        self.per_mode.iter().skip(1).sum()
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} observations ({} isolation, {} interference: {:?})",
            self.total(),
            self.per_mode[0],
            self.interference_total(),
            &self.per_mode[1..],
        )?;
        writeln!(
            f,
            "{} workloads x {} platforms observed, isolation fill {:.1}%",
            self.observed_workloads,
            self.observed_platforms,
            100.0 * self.isolation_fill
        )?;
        writeln!(
            f,
            "runtimes {:.2e}s - {:.2e}s ({:.1} decades), geomean {:.3}s",
            self.min_runtime_s, self.max_runtime_s, self.runtime_decades, self.geomean_runtime_s
        )?;
        write!(f, "suites: ")?;
        let mut first = true;
        for (suite, n) in &self.per_suite {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{suite}={n}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Testbed, TestbedConfig};

    fn stats() -> DatasetStats {
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        DatasetStats::compute(&ds)
    }

    #[test]
    fn totals_are_consistent() {
        let s = stats();
        assert_eq!(s.total(), s.per_mode[0] + s.interference_total());
        assert!(
            s.per_mode.iter().all(|&n| n > 0),
            "all modes populated: {:?}",
            s.per_mode
        );
    }

    #[test]
    fn paper_shape_properties_hold() {
        let s = stats();
        // Sec 3.1 assumptions: every workload and platform observed.
        assert_eq!(s.observed_workloads, 63); // small config scales 249 down
        assert!(s.observed_platforms >= 200);
        // Several orders of magnitude of runtime (Sec 3.2).
        assert!(
            s.runtime_decades > 3.0,
            "only {:.1} decades",
            s.runtime_decades
        );
        // Crashes/timeouts leave holes but most cells observed (App C.3).
        assert!(s.isolation_fill > 0.7 && s.isolation_fill < 1.0);
    }

    #[test]
    fn suite_counts_sum_to_workloads() {
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let s = DatasetStats::compute(&ds);
        let total: usize = s.per_suite.values().sum();
        assert_eq!(total, ds.n_workloads);
        assert_eq!(s.per_suite.len(), 6, "six benchmark suites");
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = stats();
        let text = s.to_string();
        assert!(text.contains("observations"));
        assert!(text.contains("decades"));
        assert!(text.contains("suites:"));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        let ds = Dataset {
            observations: Vec::new().into(),
            workload_features: pitot_linalg::Matrix::zeros(1, 1),
            platform_features: pitot_linalg::Matrix::zeros(1, 1),
            n_workloads: 1,
            n_platforms: 1,
            workload_suites: vec!["x".into()],
        };
        DatasetStats::compute(&ds);
    }
}
