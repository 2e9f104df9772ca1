//! Quickstart: generate a simulated edge cluster, train Pitot, and predict
//! runtimes with calibrated upper bounds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pitot::{train, EvalSet, Objective, PitotConfig};
use pitot_conformal::HeadSelection;
use pitot_testbed::{split::Split, Testbed, TestbedConfig};

fn main() {
    // 1. Simulate the heterogeneous WebAssembly cluster (paper Sec 4) and
    //    collect runtime observations with and without interference.
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();
    println!(
        "dataset: {} observations over {} workloads × {} platforms",
        dataset.observations.len(),
        dataset.n_workloads,
        dataset.n_platforms
    );

    // 2. Split: 60% of observations are "historical" training data.
    let split = Split::stratified(&dataset, 0.6, 0);

    // 3. Train Pitot with the quantile-regression objective so we get both
    //    point predictions and conformal bounds.
    let config = PitotConfig {
        objective: Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]),
        ..PitotConfig::fast()
    };
    let trained = train(&dataset, &split, &config);
    println!("trained: {} parameters", trained.model.param_count());

    // 4. Point accuracy on held-out observations.
    let mape = trained.mape(&dataset, &split.test);
    println!("test MAPE: {:.1}%", 100.0 * mape);

    // 5. Calibrated upper bounds: a runtime budget sufficient with
    //    probability ≥ 90% (paper Sec 3.5).
    let epsilon = 0.1;
    let bounds = trained.fit_bounds(&dataset, epsilon, HeadSelection::TightestOnValidation);
    let sample: Vec<usize> = split.test.iter().copied().take(5).collect();
    let heads = trained.predict_log_runtime(&dataset, &sample);
    let points: Vec<f32> = heads[0].iter().map(|p| p.exp()).collect();
    let budgets: Vec<f32> = EvalSet::new(&dataset, &sample, heads)
        .bounds_log(&bounds)
        .into_iter()
        .map(f32::exp)
        .collect();
    println!("\nobservation                                  predicted   budget(ε=0.1)   actual");
    for ((&oi, pred), budget) in sample.iter().zip(&points).zip(&budgets) {
        let o = &dataset.observations[oi];
        println!(
            "{:<44} {:>8.3}s {:>12.3}s {:>8.3}s",
            format!(
                "workload {} on {}{}",
                o.workload,
                testbed.platform_name(o.platform as usize),
                if o.interferers.is_empty() {
                    String::new()
                } else {
                    format!(" (+{} interferers)", o.interferers.len())
                }
            ),
            pred,
            budget,
            o.runtime_s
        );
    }

    let test = EvalSet::new(
        &dataset,
        &split.test,
        trained.predict_log_runtime(&dataset, &split.test),
    );
    let coverage = test.coverage(&bounds);
    println!(
        "\nempirical bound coverage: {:.1}% (target ≥ {:.0}%)",
        100.0 * coverage,
        100.0 * (1.0 - epsilon)
    );
}
