//! Point-prediction evaluation (paper Sec 5.1 "Error").

use crate::train::TrainedPitot;
use pitot_testbed::{Dataset, MAX_INTERFERERS};

/// Mean absolute percentage error between predicted and actual runtimes.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mape(predicted_s: &[f32], actual_s: &[f32]) -> f32 {
    assert_eq!(predicted_s.len(), actual_s.len(), "length mismatch");
    assert!(!predicted_s.is_empty(), "MAPE of empty set");
    let total: f64 = predicted_s
        .iter()
        .zip(actual_s)
        .map(|(p, a)| ((p - a).abs() / a.max(1e-12)) as f64)
        .sum();
    (total / predicted_s.len() as f64) as f32
}

/// MAPE split by interference count: element `k` is the MAPE over the
/// observations of `idx` with exactly `k` interferers (`None` if the mode
/// is absent). One prediction pass covers every mode.
pub fn mape_by_mode(trained: &TrainedPitot, dataset: &Dataset, idx: &[usize]) -> Vec<Option<f32>> {
    let predicted = trained.predict_runtime(dataset, idx);
    (0..=MAX_INTERFERERS)
        .map(|k| {
            let (p, a): (Vec<f32>, Vec<f32>) = idx
                .iter()
                .zip(&predicted)
                .filter(|(&i, _)| dataset.observations[i].interferers.len() == k)
                .map(|(&i, &p)| (p, dataset.observations[i].runtime_s))
                .unzip();
            (!p.is_empty()).then(|| mape(&p, &a))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_basics() {
        assert_eq!(mape(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let m = mape(&[1.1], &[1.0]);
        assert!((m - 0.1).abs() < 1e-6);
        // Symmetric in direction of error magnitude relative to actual.
        let m2 = mape(&[0.9], &[1.0]);
        assert!((m2 - 0.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mape_rejects_empty() {
        let _ = mape(&[], &[]);
    }
}
