//! Rolling coverage monitoring and the drift trigger.

use std::collections::VecDeque;

/// Rolling prequential monitor over the served bounds.
///
/// Each arriving observation is first judged against the *currently served*
/// bound (prequential: predict, then reveal), and the outcome — covered or
/// not — enters a fixed-size ring. The monitor answers two questions built
/// on the `pitot_conformal` diagnostics' coverage notion:
///
/// - [`CoverageMonitor::coverage`]: the rolling empirical coverage;
/// - [`CoverageMonitor::undercovering`]: whether that coverage has fallen
///   below the target by more than binomial sampling slack — the signal
///   that the *model* has drifted faster than the calibration window can
///   absorb and a warm-start fine-tune is warranted.
///
/// A stationary stream stays inside the slack with probability controlled
/// by the `z` multiplier, so fine-tunes fire on genuine shift rather than
/// noise.
#[derive(Debug, Clone)]
pub struct CoverageMonitor {
    epsilon: f32,
    z: f32,
    min_n: usize,
    cap: usize,
    hits: VecDeque<bool>,
    covered: usize,
}

impl CoverageMonitor {
    /// Monitor targeting coverage `1 − epsilon` over the last `cap`
    /// observations, firing below `z` binomial standard deviations once at
    /// least `min_n` observations are buffered.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ (0, 1)` or `cap == 0`.
    pub fn new(epsilon: f32, cap: usize, z: f32, min_n: usize) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon outside (0,1)");
        assert!(cap > 0, "monitor window must be positive");
        Self {
            epsilon,
            z,
            min_n,
            cap,
            hits: VecDeque::with_capacity(cap + 1),
            covered: 0,
        }
    }

    /// Records one prequential outcome: whether the served bound covered
    /// the realized runtime.
    pub fn push(&mut self, covered: bool) {
        if self.hits.len() == self.cap && self.hits.pop_front() == Some(true) {
            self.covered -= 1;
        }
        self.hits.push_back(covered);
        if covered {
            self.covered += 1;
        }
    }

    /// Observations currently monitored.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether nothing has been monitored yet.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// Rolling empirical coverage (`NaN` while empty).
    pub fn coverage(&self) -> f32 {
        if self.hits.is_empty() {
            f32::NAN
        } else {
            self.covered as f32 / self.hits.len() as f32
        }
    }

    /// Whether rolling coverage sits below target by more than binomial
    /// slack: `coverage < 1 − ε − z·√(ε(1−ε)/n)`. Always `false` before
    /// `min_n` observations.
    pub fn undercovering(&self) -> bool {
        self.undercovering_by(self.z, self.min_n)
    }

    /// [`CoverageMonitor::undercovering`] at a caller-supplied slack
    /// multiplier and minimum count, so several consumers with different
    /// sensitivities — the drift detector's fine-tune trigger and the
    /// miscoverage watchdog's poisoning rollback — can share one
    /// prequential ring instead of double-counting outcomes.
    pub fn undercovering_by(&self, z: f32, min_n: usize) -> bool {
        let n = self.hits.len();
        if n < min_n.max(1) {
            return false;
        }
        let slack = z * (self.epsilon * (1.0 - self.epsilon) / n as f32).sqrt();
        self.coverage() < 1.0 - self.epsilon - slack
    }

    /// Clears the monitor — called after a fine-tune so the updated model
    /// is judged on fresh outcomes only.
    pub fn reset(&mut self) {
        self.hits.clear();
        self.covered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_hit_rate_does_not_fire() {
        let mut m = CoverageMonitor::new(0.1, 200, 3.0, 50);
        // Exactly the target rate: 9 covered out of every 10.
        for i in 0..400 {
            m.push(i % 10 != 0);
        }
        assert!(!m.undercovering(), "coverage {} fired", m.coverage());
        assert!((m.coverage() - 0.9).abs() < 0.02);
    }

    #[test]
    fn sustained_undercoverage_fires() {
        let mut m = CoverageMonitor::new(0.1, 200, 3.0, 50);
        for i in 0..200 {
            m.push(i % 10 != 0);
        }
        // Shift: only 60% covered from now on.
        for i in 0..200 {
            m.push(i % 5 < 3);
        }
        assert!(m.undercovering(), "coverage {} did not fire", m.coverage());
    }

    #[test]
    fn does_not_fire_before_min_n() {
        let mut m = CoverageMonitor::new(0.1, 200, 3.0, 50);
        for _ in 0..49 {
            m.push(false);
        }
        assert!(!m.undercovering());
        m.push(false);
        assert!(m.undercovering());
    }

    #[test]
    fn undercovering_by_separates_consumers() {
        let mut m = CoverageMonitor::new(0.1, 200, 3.0, 50);
        for i in 0..200 {
            m.push(i % 10 != 0);
        }
        // Mild dip to 80% coverage: a tight consumer fires, a looser one
        // does not, and the minimum count gates both.
        for i in 0..200 {
            m.push(i % 5 < 4);
        }
        assert!(m.undercovering_by(1.0, 50));
        assert!(!m.undercovering_by(20.0, 50));
        assert!(!m.undercovering_by(1.0, 1000));
    }

    #[test]
    fn empty_window_reports_nan_and_never_fires() {
        let m = CoverageMonitor::new(0.1, 16, 0.0, 0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert!(m.coverage().is_nan());
        // Even at min_n = 0 with zero slack, an empty window must not read
        // as undercoverage (the n < max(min_n, 1) floor guards the NaN
        // comparison from ever deciding anything).
        assert!(!m.undercovering());
        assert!(!m.undercovering_by(0.0, 0));
    }

    #[test]
    fn all_miss_window_pegs_coverage_at_zero_and_fires_at_min_n() {
        let mut m = CoverageMonitor::new(0.1, 64, 3.0, 8);
        for i in 0..8 {
            assert!(!m.undercovering(), "fired at n = {i}, before min_n");
            m.push(false);
        }
        assert_eq!(m.coverage(), 0.0);
        assert!(m.undercovering(), "an all-miss window at min_n must fire");
        // Still pegged (and still firing) once the ring wraps: eviction of
        // all-miss entries must not drift the counters.
        for _ in 0..128 {
            m.push(false);
        }
        assert_eq!(m.len(), 64);
        assert_eq!(m.coverage(), 0.0);
        assert!(m.undercovering());
        m.reset();
        assert!(!m.undercovering(), "reset must clear the trigger");
    }

    #[test]
    fn ring_evicts_and_reset_clears() {
        let mut m = CoverageMonitor::new(0.2, 4, 2.0, 1);
        for _ in 0..4 {
            m.push(false);
        }
        for _ in 0..4 {
            m.push(true);
        }
        assert_eq!(m.len(), 4);
        assert_eq!(m.coverage(), 1.0);
        m.reset();
        assert!(m.is_empty());
        assert!(m.coverage().is_nan());
    }
}
