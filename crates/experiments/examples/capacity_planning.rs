//! Capacity-planning scenario: how much slack must we provision?
//!
//! A fleet operator must budget compute time for a batch of workloads on a
//! specific platform. Over-provisioning wastes hardware; under-provisioning
//! risks deadline misses. This example sweeps the miscoverage rate ε and
//! reports the total budgeted seconds versus the actual consumption — the
//! overprovisioning-vs-risk trade-off of paper Sec 3.5 (Eq 11).
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use pitot::{train, EvalSet, Objective, PitotConfig};
use pitot_conformal::HeadSelection;
use pitot_testbed::{split::Split, Testbed, TestbedConfig};

fn main() {
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();
    let split = Split::stratified(&dataset, 0.6, 0);
    let config = PitotConfig {
        objective: Objective::paper_quantiles(),
        ..PitotConfig::fast()
    };
    let trained = train(&dataset, &split, &config);

    // The "batch": all held-out isolation observations on one busy platform.
    let platform = split
        .test
        .iter()
        .map(|&i| dataset.observations[i].platform)
        .next()
        .expect("non-empty test set");
    let batch: Vec<usize> = split
        .test
        .iter()
        .copied()
        .filter(|&i| dataset.observations[i].platform == platform)
        .take(200)
        .collect();
    let actual_total: f32 = batch
        .iter()
        .map(|&i| dataset.observations[i].runtime_s)
        .sum();

    println!(
        "capacity plan for {} ({} queued workloads, true total {:.1}s)\n",
        testbed.platform_name(platform as usize),
        batch.len(),
        actual_total
    );
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>10}",
        "ε", "budgeted (s)", "overhead", "misses", "coverage"
    );

    // Calibrate and predict the batch once; each ε is then a rank lookup.
    let calibration = trained.calibration(&dataset, &trained.tower_cache(&dataset));
    let queued = EvalSet::new(
        &dataset,
        &batch,
        trained.predict_log_runtime(&dataset, &batch),
    );
    for eps in [0.2, 0.1, 0.05, 0.02] {
        let bounds = calibration.fit(eps, HeadSelection::TightestOnValidation);
        let budgets: Vec<f32> = queued
            .bounds_log(&bounds)
            .into_iter()
            .map(f32::exp)
            .collect();
        let budget_total: f32 = budgets.iter().sum();
        let misses = batch
            .iter()
            .zip(&budgets)
            .filter(|(&i, &b)| dataset.observations[i].runtime_s > b)
            .count();
        println!(
            "{:>6.2} {:>13.1}s {:>13.1}% {:>10} {:>9.1}%",
            eps,
            budget_total,
            100.0 * (budget_total - actual_total) / actual_total,
            misses,
            100.0 * (1.0 - misses as f32 / batch.len() as f32),
        );
    }

    println!(
        "\nSmaller ε buys more certainty at the cost of slack; Pitot's conformalized\n\
         quantile regression keeps that slack adaptive instead of one-size-fits-all."
    );
}
