//! Online adaptation: a new device joins the cluster.
//!
//! The paper's conclusion names efficient online learning as the key
//! extension for deployments. This example stages that event with
//! `pitot_testbed::device_arrival`: Pitot is trained on a cluster that has
//! never seen one of the devices, the device comes online and reports its
//! first observations, and three responses are compared on the device's
//! held-out data:
//!
//! - keep serving the stale model,
//! - fine-tune the deployed checkpoint at ~1/8 of the training budget
//!   (`TrainedPitot::fine_tune`, which keeps the scaling baseline frozen so
//!   conformal calibration stays comparable),
//! - retrain from scratch.
//!
//! ```sh
//! cargo run --release --example online_adaptation
//! ```

use pitot::{train, PitotConfig};
use pitot_testbed::{device_arrival, Testbed, TestbedConfig};

fn main() {
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();

    // Pick the device backing the most platforms so the holdout is rich.
    let device = {
        let mut counts = vec![0usize; testbed.devices().len()];
        for p in testbed.platforms() {
            counts[p.device] += 1;
        }
        (0..counts.len()).max_by_key(|&d| counts[d]).unwrap()
    };
    println!(
        "new device: {} ({} platforms)",
        testbed.devices()[device].name,
        testbed
            .platforms()
            .iter()
            .filter(|p| p.device == device)
            .count()
    );

    // 25% of the new device's observations arrive as adaptation data.
    let arrival = device_arrival(&dataset, &testbed, device, 0.6, 0.25, 0);
    let config = PitotConfig::fast();
    let fine_tune_steps = config.steps / 8;

    println!("pre-training without the device ({} steps)…", config.steps);
    let stale = train(&dataset, &arrival.pretrain, &config);

    println!("fine-tuning on first observations ({fine_tune_steps} steps)…");
    let tuned = stale.fine_tune(&dataset, &arrival.adapt, fine_tune_steps);

    println!("retraining from scratch ({} steps)…", config.steps);
    let retrained = train(&dataset, &arrival.adapt, &config);

    let test = &arrival.new_device_test;
    println!("\nMAPE on {} held-out new-device observations:", test.len());
    for (label, model, steps) in [
        ("stale (no update)", &stale, 0usize),
        ("fine-tune (warm start)", &tuned, fine_tune_steps),
        ("retrain (from scratch)", &retrained, config.steps),
    ] {
        println!(
            "  {label:<24} {:>6.1}%   (+{steps} steps)",
            100.0 * model.mape(&dataset, test)
        );
    }
    println!(
        "\nfine-tuning recovers most of the retraining accuracy at a fraction of \
         the cost — the paper's online-learning extension in practice."
    );
}
