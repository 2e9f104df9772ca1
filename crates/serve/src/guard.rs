//! The trustworthy-telemetry ingest guard: quarantine, never silently drop.
//!
//! PR 7's fleet assumed *fail-stop* faults — a replica is either correct or
//! absent. Real telemetry also fails *noisy*: NaN runtimes from a broken
//! probe, zero/negative durations from clock bugs, and scale outliers from
//! a mislabeled unit or a poisoned reporter. One such observation entering
//! the sliding calibration window shifts every quantile the paper's
//! guarantee is built on, silently, for everyone sharing the fleet
//! calibration.
//!
//! The guard screens every arriving observation **before** it is judged,
//! windowed, or monitored:
//!
//! 1. **Finite/bounds validation**, on every server — a runtime that is
//!    not a positive finite duration is quarantined
//!    ([`QuarantineCause::NonFiniteRuntime`] /
//!    [`QuarantineCause::NonPositiveRuntime`]) instead of panicking, so a
//!    corrupt runtime never takes a server (or a concurrent fleet's lane)
//!    down, whatever [`crate::ServeConfig::ingest_guard`] says.
//! 2. **Robust MAD screen**, while [`crate::ServeConfig::ingest_guard`] is
//!    on — the arrival's head-0 nonconformity score is
//!    compared against the window's median via the median absolute
//!    deviation: `|s − median| > k · 1.4826 · MAD` quarantines
//!    ([`QuarantineCause::MadOutlier`]). The median/MAD pair tolerates up
//!    to half the window being contaminated, which is exactly the property
//!    a poisoning screen needs — a mean/variance screen would be dragged
//!    toward the poison it is screening for. The MAD comes from an
//!    `O(log n)` rank select over the window's sorted scores
//!    (`robust_scale`), so the screen costs no copy and no sort.
//!
//! Nothing is ever dropped silently: every quarantined observation lands
//! in a bounded audit ring ([`QuarantineRecord`]) *and* a cumulative
//! per-cause counter ([`GuardStats`]), and the two are tied by the
//! [`GuardStats::is_consistent`] identity that the closed-loop tests
//! assert. The quarantine buffer is an audit trail, not a dead-letter
//! queue: entries age out of the ring, but the counters never lie about
//! how many there were.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Why an observation was quarantined instead of entering the calibration
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineCause {
    /// The reported runtime was NaN or infinite.
    NonFiniteRuntime,
    /// The reported runtime was zero or negative (no positive duration —
    /// its log-space target is undefined).
    NonPositiveRuntime,
    /// The observation's head-0 nonconformity score failed the robust MAD
    /// outlier screen against the current window.
    MadOutlier,
    /// The entry was purged from the window retroactively by a miscoverage
    /// watchdog rollback (it passed the ingest screen but a later, cleaner
    /// window exposed it).
    WatchdogRollback,
}

/// One quarantined observation: the audit record proving nothing was
/// dropped silently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Server observation ordinal (streamed observations consumed,
    /// including this one) at quarantine time.
    pub at: u64,
    /// Why it was quarantined.
    pub cause: QuarantineCause,
    /// Raw IEEE-754 bits of the reported runtime — bits, not the float,
    /// because the interesting offenders (NaN, ±∞) have no faithful JSON
    /// representation. Recover with [`QuarantineRecord::runtime_s`]. A
    /// watchdog rollback that purges an entry restored from a fleet summary
    /// (see [`crate::PitotServer::restore_window`]) records `NaN`: no
    /// runtime of that entry ever reached the purging instance.
    pub runtime_bits: u32,
    /// The head-0 nonconformity score that was screened, when one was
    /// computable (`None` for runtime-level causes — a NaN runtime has no
    /// score). Always finite when present.
    pub score: Option<f32>,
}

impl QuarantineRecord {
    /// The reported runtime reconstructed from its stored bits.
    pub fn runtime_s(&self) -> f32 {
        f32::from_bits(self.runtime_bits)
    }
}

/// Cumulative quarantine counters — the "zero silent drops" ledger. The
/// total always equals the sum of the per-cause counters
/// ([`GuardStats::is_consistent`]); records may age out of the bounded
/// audit ring, counters never decrease.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardStats {
    /// Observations quarantined, all causes.
    pub quarantined: usize,
    /// NaN/infinite reported runtimes.
    pub nonfinite_runtimes: usize,
    /// Zero or negative reported runtimes.
    pub nonpositive_runtimes: usize,
    /// Robust MAD-screen rejections at ingest.
    pub mad_outliers: usize,
    /// Window entries purged retroactively by watchdog rollbacks.
    pub watchdog_purged: usize,
    /// Miscoverage-watchdog firings (each may purge zero or more entries).
    pub watchdog_fires: usize,
}

impl GuardStats {
    /// The zero-silent-drops identity: the total equals the sum of the
    /// per-cause counters.
    pub fn is_consistent(&self) -> bool {
        self.quarantined
            == self.nonfinite_runtimes
                + self.nonpositive_runtimes
                + self.mad_outliers
                + self.watchdog_purged
    }

    /// Elementwise sum, for fleet-level aggregation across replicas.
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            quarantined: self.quarantined + other.quarantined,
            nonfinite_runtimes: self.nonfinite_runtimes + other.nonfinite_runtimes,
            nonpositive_runtimes: self.nonpositive_runtimes + other.nonpositive_runtimes,
            mad_outliers: self.mad_outliers + other.mad_outliers,
            watchdog_purged: self.watchdog_purged + other.watchdog_purged,
            watchdog_fires: self.watchdog_fires + other.watchdog_fires,
        }
    }
}

/// One miscoverage-watchdog firing: the audit record of a
/// quarantine-rollback rescore (see `PitotServer` docs; the
/// `DegradedWindow` analogue for poisoning).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatchdogIncident {
    /// Server observation ordinal when the watchdog fired.
    pub at: u64,
    /// The rolling prequential coverage that tripped it (finite).
    pub coverage: f32,
    /// Window entries purged by the rollback's robust re-screen.
    pub purged: usize,
    /// Window entries that survived the re-screen.
    pub kept: usize,
}

/// The per-server guard state: configuration excerpts, cumulative
/// counters, and the bounded quarantine audit ring.
#[derive(Debug, Clone)]
pub(crate) struct IngestGuard {
    retain: usize,
    stats: GuardStats,
    records: VecDeque<QuarantineRecord>,
}

impl IngestGuard {
    pub(crate) fn new(retain: usize) -> Self {
        Self {
            retain: retain.max(1),
            stats: GuardStats::default(),
            records: VecDeque::new(),
        }
    }

    /// The runtime-level quarantine cause for a reported duration, if any
    /// (checked on every server, guarded or not).
    pub(crate) fn runtime_cause(runtime_s: f32) -> Option<QuarantineCause> {
        if !runtime_s.is_finite() {
            Some(QuarantineCause::NonFiniteRuntime)
        } else if runtime_s <= 0.0 {
            Some(QuarantineCause::NonPositiveRuntime)
        } else {
            None
        }
    }

    /// Quarantines one observation: bump the cause counter and the total,
    /// append to the audit ring (evicting past the retention bound), and
    /// return the record.
    pub(crate) fn quarantine(
        &mut self,
        at: u64,
        runtime_s: f32,
        score: Option<f32>,
        cause: QuarantineCause,
    ) -> QuarantineRecord {
        self.stats.quarantined += 1;
        match cause {
            QuarantineCause::NonFiniteRuntime => self.stats.nonfinite_runtimes += 1,
            QuarantineCause::NonPositiveRuntime => self.stats.nonpositive_runtimes += 1,
            QuarantineCause::MadOutlier => self.stats.mad_outliers += 1,
            QuarantineCause::WatchdogRollback => self.stats.watchdog_purged += 1,
        }
        let record = QuarantineRecord {
            at,
            cause,
            runtime_bits: runtime_s.to_bits(),
            score,
        };
        self.records.push_back(record);
        if self.records.len() > self.retain {
            self.records.pop_front();
        }
        record
    }

    pub(crate) fn record_watchdog_fire(&mut self) {
        self.stats.watchdog_fires += 1;
    }

    pub(crate) fn stats(&self) -> GuardStats {
        self.stats
    }

    pub(crate) fn records(&self) -> impl Iterator<Item = &QuarantineRecord> + '_ {
        self.records.iter()
    }
}

/// Median of an ascending (under `total_cmp`) slice: the middle element,
/// or the midpoint of the two middles for even lengths.
fn median_sorted(sorted: &[f32]) -> f32 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Robust location/scale of an ascending score slice: the median and the
/// MAD-based σ estimate `1.4826 · median(|s − median|)` (the Gaussian
/// consistency constant). Returns σ = 0 when more than half the scores
/// are identical — callers treat that as "no scale estimate" and pass the
/// screen rather than quarantining everything off-median.
///
/// The MAD is a rank select in `O(log n)`, with no copy and no sort. The
/// deviations of an ascending slice from its median form two ascending
/// runs that meet at the median: `a(i) = |s[split − 1 − i] − med|` over
/// the scores below it and `b(j) = |s[split + j] − med|` over the rest. A
/// binary search finds how many of the `n/2 + 1` smallest deviations come
/// from `a`; the MAD is the largest of them (odd `n`) or the midpoint of
/// the two largest (even `n`), as `median_sorted` of the sorted
/// deviations reads it. Every deviation is the same `(s − med).abs()` a
/// sort would compare, and for finite scores it is finite and
/// non-negative, so the result is bitwise the sort's (a property test pins
/// it to that oracle).
pub(crate) fn robust_scale(sorted: &[f32]) -> (f32, f32) {
    debug_assert!(!sorted.is_empty(), "robust scale of an empty slice");
    let n = sorted.len();
    let med = median_sorted(sorted);
    let (below, above) = sorted.split_at(sorted.partition_point(|&s| s < med));
    let a = |i: usize| (below[below.len() - 1 - i] - med).abs();
    let b = |j: usize| (above[j] - med).abs();
    // The `m` smallest deviations are `a(..i)` and `b(..m − i)` for the
    // least `i` whose next `a` is no smaller than the last `b` taken.
    let m = n / 2 + 1;
    let (mut lo, mut hi) = (m.saturating_sub(above.len()), m.min(below.len()));
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        if a(i) < b(m - i - 1) {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let (i, j) = (lo, m - lo);
    // The `back`-th largest deviation each run contributes, if any.
    let a_top = |back: usize| (i >= back).then(|| a(i - back));
    let b_top = |back: usize| (j >= back).then(|| b(j - back));
    let largest = |xs: &[Option<f32>]| xs.iter().flatten().copied().reduce(f32::max);
    let kth = largest(&[a_top(1), b_top(1)]).expect("m >= 1 deviations taken");
    let mad = if n % 2 == 1 {
        kth
    } else {
        // The runner-up: the smaller of the two runs' largest, or either
        // run's second largest.
        let smaller_top = a_top(1).zip(b_top(1)).map(|(x, y)| x.min(y));
        let prev = largest(&[a_top(2), b_top(2), smaller_top]).expect("m >= 2 deviations taken");
        0.5 * (prev + kth)
    };
    (med, 1.4826 * mad)
}

/// Whether score `s` fails the robust screen `|s − median| > k·σ̂` against
/// the given ascending window scores. Never fails when the scale estimate
/// degenerates to zero (see [`robust_scale`]).
pub(crate) fn is_mad_outlier(sorted: &[f32], s: f32, k: f32) -> bool {
    let (med, sigma) = robust_scale(sorted);
    sigma > 0.0 && (s - med).abs() > k * sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The copy-and-sort MAD that the rank select replaced: the oracle
    /// [`robust_scale`] is pinned to.
    fn robust_scale_by_sort(sorted: &[f32]) -> (f32, f32) {
        let med = median_sorted(sorted);
        let mut dev: Vec<f32> = sorted.iter().map(|s| (s - med).abs()).collect();
        dev.sort_unstable_by(f32::total_cmp);
        (med, 1.4826 * median_sorted(&dev))
    }

    /// A sorted window of `n` scores in one of the shapes the screen
    /// meets, by `shape`: a coarse grid with heavy ties, continuous
    /// values, a mix of ±0.0 with a few small values, one constant value,
    /// more than half one value (σ = 0), a window that lies on one side of
    /// its median (the lower or upper half plus one tied at an end), and
    /// scores a few ulps apart (the median's midpoint rounds onto a
    /// neighbour).
    fn window(rng: &mut ChaCha8Rng, n: usize, shape: usize) -> Vec<f32> {
        let mut s: Vec<f32> = match shape {
            0 => (0..n)
                .map(|_| rng.gen_range(-3i32..=3) as f32 * 0.5)
                .collect(),
            1 => (0..n).map(|_| rng.gen_range(-4.0f32..4.0)).collect(),
            2 => (0..n)
                .map(|_| [-0.0, 0.0, 0.0, -0.0, 0.125, -0.125][rng.gen_range(0..6)])
                .collect(),
            3 => vec![rng.gen_range(-2.0f32..2.0); n],
            4 => {
                let v = rng.gen_range(-2.0f32..2.0);
                let ties = n / 2 + 1 + rng.gen_range(0..=(n - 1) / 2);
                (0..n)
                    .map(|i| {
                        if i < ties {
                            v
                        } else {
                            rng.gen_range(-4.0f32..4.0)
                        }
                    })
                    .collect()
            }
            5 => {
                let end = rng.gen_range(-1.0f32..1.0);
                let up = rng.gen_bool(0.5);
                (0..n)
                    .map(|i| match (i <= n / 2, up) {
                        (true, _) => end,
                        (false, true) => end + rng.gen_range(0.0f32..3.0),
                        (false, false) => end - rng.gen_range(0.0f32..3.0),
                    })
                    .collect()
            }
            _ => {
                let base = rng.gen_range(0.5f32..2.0).to_bits();
                (0..n)
                    .map(|_| f32::from_bits(base + rng.gen_range(0u32..4)))
                    .collect()
            }
        };
        s.sort_unstable_by(f32::total_cmp);
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 2048, ..Default::default() })]
        /// The rank select is bitwise the sort oracle — median and σ — and
        /// so is the screen on probes at, inside and past the band's edge,
        /// on sorted windows of every shape `window` draws.
        #[test]
        fn rank_select_is_bitwise_the_sort_oracle(
            seed in 0u64..u64::MAX,
            n in 1usize..601,
            shape in 0usize..7,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let s = window(&mut rng, n, shape);
            let (med, sigma) = robust_scale(&s);
            let (want_med, want_sigma) = robust_scale_by_sort(&s);
            proptest::prop_assert_eq!(med.to_bits(), want_med.to_bits(), "median of {:?}", s);
            proptest::prop_assert_eq!(sigma.to_bits(), want_sigma.to_bits(), "sigma of {:?}", s);
            if shape == 3 || shape == 4 {
                proptest::prop_assert_eq!(sigma, 0.0, "more than half tied: {:?}", s);
            }
            for k in [8.0f32, 3.0, 0.5] {
                let edge = k * want_sigma;
                let probes = [
                    want_med + edge,
                    want_med - edge,
                    want_med + 1.0001 * edge,
                    want_med - 0.9999 * edge,
                    s[rng.gen_range(0..n)],
                    rng.gen_range(-40.0f32..40.0),
                ];
                for p in probes {
                    let want = want_sigma > 0.0 && (p - want_med).abs() > k * want_sigma;
                    proptest::prop_assert_eq!(is_mad_outlier(&s, p, k), want, "probe {} at k = {}", p, k);
                }
            }
        }
    }

    #[test]
    fn robust_scale_matches_hand_computation() {
        // scores 0..7: median 3.5; deviations {0.5,0.5,1.5,1.5,2.5,2.5,3.5,3.5} → MAD 2.0.
        let s: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let (med, sigma) = robust_scale(&s);
        assert!((med - 3.5).abs() < 1e-6);
        assert!((sigma - 1.4826 * 2.0).abs() < 1e-4);
        // Odd length: median is the middle element.
        let (med, _) = robust_scale(&[1.0, 2.0, 9.0]);
        assert!((med - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mad_screen_is_immune_to_minority_contamination() {
        // 75% clean scores near 0, 25% poisoned at −50: the median and MAD
        // stay with the clean mass, so a clean arrival passes and a
        // poisoned one fails — the property a mean/variance screen lacks.
        let mut s: Vec<f32> = (0..30).map(|i| (i as f32 - 15.0) * 0.1).collect();
        s.extend((0..10).map(|_| -50.0f32));
        s.sort_unstable_by(f32::total_cmp);
        assert!(!is_mad_outlier(&s, 0.3, 8.0), "clean arrival quarantined");
        assert!(is_mad_outlier(&s, -50.0, 8.0), "poison passed the screen");
    }

    #[test]
    fn degenerate_scale_passes_everything() {
        // All-identical scores: MAD = 0, no scale estimate — the screen
        // must pass rather than quarantine every off-median arrival.
        let s = vec![1.0f32; 9];
        assert!(!is_mad_outlier(&s, 100.0, 8.0));
    }

    #[test]
    fn quarantine_counts_causes_and_bounds_the_ring() {
        let mut g = IngestGuard::new(2);
        g.quarantine(1, f32::NAN, None, QuarantineCause::NonFiniteRuntime);
        g.quarantine(2, -1.0, None, QuarantineCause::NonPositiveRuntime);
        g.quarantine(3, 4.0, Some(9.0), QuarantineCause::MadOutlier);
        g.quarantine(4, 5.0, Some(-9.0), QuarantineCause::WatchdogRollback);
        let s = g.stats();
        assert!(s.is_consistent());
        assert_eq!(s.quarantined, 4);
        assert_eq!(
            (
                s.nonfinite_runtimes,
                s.nonpositive_runtimes,
                s.mad_outliers,
                s.watchdog_purged
            ),
            (1, 1, 1, 1)
        );
        // Ring keeps only the newest `retain` records; counters keep all.
        let held: Vec<u64> = g.records().map(|r| r.at).collect();
        assert_eq!(held, vec![3, 4]);
        // NaN runtimes survive the bits round-trip.
        let rec = g.quarantine(5, f32::NAN, None, QuarantineCause::NonFiniteRuntime);
        assert!(rec.runtime_s().is_nan());
    }

    #[test]
    fn runtime_cause_classifies_the_fail_stop_domain() {
        assert_eq!(
            IngestGuard::runtime_cause(f32::NAN),
            Some(QuarantineCause::NonFiniteRuntime)
        );
        assert_eq!(
            IngestGuard::runtime_cause(f32::INFINITY),
            Some(QuarantineCause::NonFiniteRuntime)
        );
        assert_eq!(
            IngestGuard::runtime_cause(0.0),
            Some(QuarantineCause::NonPositiveRuntime)
        );
        assert_eq!(
            IngestGuard::runtime_cause(-3.0),
            Some(QuarantineCause::NonPositiveRuntime)
        );
        assert_eq!(IngestGuard::runtime_cause(1.5), None);
    }

    #[test]
    fn guard_stats_merge_elementwise() {
        let a = GuardStats {
            quarantined: 3,
            nonfinite_runtimes: 1,
            nonpositive_runtimes: 0,
            mad_outliers: 2,
            watchdog_purged: 0,
            watchdog_fires: 1,
        };
        let b = GuardStats {
            quarantined: 2,
            nonfinite_runtimes: 0,
            nonpositive_runtimes: 1,
            mad_outliers: 0,
            watchdog_purged: 1,
            watchdog_fires: 0,
        };
        let m = a.merged(&b);
        assert!(a.is_consistent() && b.is_consistent() && m.is_consistent());
        assert_eq!(m.quarantined, 5);
        assert_eq!(m.watchdog_fires, 1);
    }
}
