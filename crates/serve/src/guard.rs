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
//! 1. **Finite/bounds validation** — a runtime that is not a positive
//!    finite duration is quarantined ([`QuarantineCause::NonFiniteRuntime`]
//!    / [`QuarantineCause::NonPositiveRuntime`]) instead of panicking (the
//!    unguarded server keeps the fail-stop panic).
//! 2. **Robust MAD screen** — the arrival's head-0 nonconformity score is
//!    compared against the window's median via the median absolute
//!    deviation: `|s − median| > k · 1.4826 · MAD` quarantines
//!    ([`QuarantineCause::MadOutlier`]). The median/MAD pair tolerates up
//!    to half the window being contaminated, which is exactly the property
//!    a poisoning screen needs — a mean/variance screen would be dragged
//!    toward the poison it is screening for.
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
    /// (the check the unguarded server expresses as a panic).
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
pub(crate) fn robust_scale(sorted: &[f32]) -> (f32, f32) {
    debug_assert!(!sorted.is_empty(), "robust scale of an empty slice");
    let med = median_sorted(sorted);
    let mut dev: Vec<f32> = sorted.iter().map(|s| (s - med).abs()).collect();
    dev.sort_unstable_by(f32::total_cmp);
    (med, 1.4826 * median_sorted(&dev))
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
