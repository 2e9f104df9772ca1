//! Edge orchestration scenario: deadline-aware workload placement.
//!
//! The paper motivates Pitot with edge orchestration frameworks that must
//! place latency-sensitive workloads on heterogeneous platforms (Sec 1).
//! This example deploys a workload under a deadline: the orchestrator asks
//! Pitot for a 95%-confidence runtime budget on every candidate platform —
//! *including the interference caused by what is already running there* —
//! and picks the fastest platform whose budget meets the deadline.
//!
//! ```sh
//! cargo run --release --example edge_orchestrator
//! ```

use pitot::{train, Matrix, Objective, PitotConfig};
use pitot_conformal::HeadSelection;
use pitot_testbed::{split::Split, Observation, Testbed, TestbedConfig};

/// A candidate placement: the workload joins `running` on `platform`.
struct Placement {
    platform: usize,
    running: Vec<u32>,
}

fn main() {
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();
    let split = Split::stratified(&dataset, 0.6, 0);
    let config = PitotConfig {
        objective: Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95, 0.98]),
        ..PitotConfig::fast()
    };
    let trained = train(&dataset, &split, &config);
    let bounds = trained.fit_bounds(&dataset, 0.05, HeadSelection::TightestOnValidation);

    // The workload to place and the cluster's current occupancy (workload
    // ids wrap into the generated catalog so the example scales with it).
    let nw = dataset.n_workloads as u32;
    let np = dataset.n_platforms;
    let w = |i: u32| i % nw;
    let workload = w(17);
    let deadline_s = 2.0;
    let candidates = [
        Placement {
            platform: 3 % np,
            running: vec![],
        },
        Placement {
            platform: 40 % np,
            running: vec![w(5), w(9)],
        },
        Placement {
            platform: 90 % np,
            running: vec![w(22)],
        },
        Placement {
            platform: 140 % np,
            running: vec![w(2), w(61), w(88)],
        },
        Placement {
            platform: 200 % np,
            running: vec![],
        },
    ];

    println!("placing workload {workload} with a {deadline_s:.1}s deadline (95% confidence)\n");
    println!(
        "{:<52} {:>10} {:>12}  verdict",
        "candidate platform", "point est", "95% budget"
    );

    let towers = trained.tower_cache(&dataset);
    let mut heads = Matrix::default();
    let mut best: Option<(usize, f32)> = None;
    for (c, placement) in candidates.iter().enumerate() {
        // A hypothetical observation describing the placement: the model
        // reads only its indices, so the runtime is a placeholder.
        let query = Observation {
            workload,
            platform: placement.platform as u32,
            interferers: placement.running.clone(),
            runtime_s: 1.0,
        };
        trained.predict_log_runtime_into(&towers, &[&query], &mut heads);
        let point = heads.row(0)[0].exp();
        let budget = bounds
            .bound_log(heads.row(0), placement.running.len())
            .exp();
        let ok = budget <= deadline_s;
        println!(
            "{:<52} {:>9.3}s {:>11.3}s  {}",
            format!(
                "{}{}",
                testbed.platform_name(placement.platform),
                if placement.running.is_empty() {
                    " (idle)".to_string()
                } else {
                    format!(" ({} running)", placement.running.len())
                }
            ),
            point,
            budget,
            if ok { "meets deadline" } else { "REJECTED" }
        );
        if ok && best.is_none_or(|(_, b)| budget < b) {
            best = Some((c, budget));
        }
    }

    match best {
        Some((c, budget)) => println!(
            "\n→ placing on {} (budget {:.3}s ≤ deadline {:.1}s)",
            testbed.platform_name(candidates[c].platform),
            budget,
            deadline_s
        ),
        None => println!("\n→ no placement meets the deadline; workload must wait or offload"),
    }
}
