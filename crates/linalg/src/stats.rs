//! Small statistics helpers shared by evaluation and conformal code.

/// Arithmetic mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    // Accumulate in f64: evaluation sets reach ~4e5 entries and f32
    // accumulation loses ~3 digits at that length.
    let s: f64 = xs.iter().map(|&x| x as f64).sum();
    (s / xs.len() as f64) as f32
}

/// Unbiased sample variance; `0.0` when fewer than two samples.
pub fn variance(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs) as f64;
    let s: f64 = xs.iter().map(|&x| (x as f64 - m).powi(2)).sum();
    (s / (xs.len() - 1) as f64) as f32
}

/// Standard error of the mean; `0.0` when fewer than two samples.
pub fn stderr_of_mean(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    (variance(xs) / xs.len() as f32).sqrt()
}

/// Linear-interpolation percentile (`p` in `[0, 1]`).
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 1]`.
pub fn percentile(xs: &[f32], p: f32) -> f32 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = p * (sorted.len() - 1) as f32;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f32;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The "higher" empirical quantile used by split conformal prediction:
/// the `⌈(n+1)·p⌉`-th smallest value (1-indexed), clamped to the sample max.
///
/// With exchangeable data, using this value as a threshold guarantees
/// coverage at least `p` (Vovk et al.); see `pitot-conformal` for the
/// coverage property tests.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 1]`.
pub fn quantile_higher(xs: &[f32], p: f32) -> f32 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    quantile_higher_sorted(&sorted, p)
}

/// [`quantile_higher`] over an already-sorted slice: no copy, no re-sort.
///
/// Calibration sweeps that evaluate many miscoverage levels over one score
/// set sort once and look ranks up through this entry point.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p ∉ [0, 1]`; debug-asserts sortedness.
pub fn quantile_higher_sorted(sorted: &[f32], p: f32) -> f32 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1] || w[1].is_nan()),
        "quantile_higher_sorted requires ascending input"
    );
    sorted[quantile_higher_rank(sorted.len(), p) - 1]
}

/// The 1-indexed rank [`quantile_higher`] reads among `n` values:
/// `⌈(n+1)·p⌉`, clamped to `[1, n]`. Callers that select the order
/// statistic without a sorted copy (e.g. across several sorted runs) take
/// the rank from here, so they cannot drift from the sorted lookup.
///
/// # Panics
///
/// Panics if `n` is zero or `p ∉ [0, 1]`.
pub fn quantile_higher_rank(n: usize, p: f32) -> usize {
    assert!(n > 0, "quantile of empty slice");
    assert!((0.0..=1.0).contains(&p), "quantile level {p} outside [0,1]");
    let k = (((n + 1) as f32) * p).ceil() as usize;
    k.clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 5.0 / 3.0).abs() < 1e-6);
        assert!(stderr_of_mean(&xs) > 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
    }

    #[test]
    fn quantile_higher_is_conservative() {
        // n = 4, p = 0.5 → rank ceil(5*0.5)=3 → third smallest.
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_higher(&xs, 0.5), 3.0);
        // p = 1 clamps to max.
        assert_eq!(quantile_higher(&xs, 1.0), 4.0);
    }

    proptest! {
        #[test]
        fn quantile_higher_at_least_fraction(p in 0.05f32..0.95, mut xs in proptest::collection::vec(-100.0f32..100.0, 5..200)) {
            let q = quantile_higher(&xs, p);
            let below = xs.iter().filter(|&&x| x <= q).count();
            // At least ceil((n+1)p) of n samples are <= q (minus the +1 slack).
            prop_assert!(below as f32 >= (xs.len() as f32 * p).floor());
            xs.sort_by(|a, b| a.total_cmp(b));
            prop_assert!(q <= *xs.last().unwrap());
        }
    }
}
