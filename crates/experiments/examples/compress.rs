//! Compressed-towers quickstart: walk the compression ladder — dense,
//! int8-quantized weights, magnitude-pruned, pruned+int8 — recalibrate the
//! conformal layer on each compressed model's own residuals, and watch
//! coverage hold at every level while the interval width absorbs the
//! compression error. A stale arm (compressed predictions under the
//! *dense* calibration) shows the undercoverage recalibration fixes.
//!
//! ```sh
//! cargo run --release -p pitot-experiments --example compress
//! ```
//!
//! The final line prints `digest=<16 hex digits>` — an FNV-1a hash of
//! every served bound across every level. Compression rounds and masks the
//! f32 weight plane before inference, so every level runs the dense
//! tower path and the digest is bitwise identical regardless of
//! `PITOT_THREADS`; CI runs this example twice at different thread counts
//! and diffs the two lines.

use pitot::{train, CompressedTower, CompressionSpec, Objective, PitotConfig, TrainedPitot};
use pitot_conformal::{HeadSelection, PooledConformal, PredictionSet, SweepCalibration};
use pitot_testbed::{split::Split, Dataset, Observation, Testbed, TestbedConfig};

const EPSILON: f32 = 0.1;

fn preds(
    trained: &TrainedPitot,
    dataset: &Dataset,
    cache: &pitot::TowerCache,
    idx: &[usize],
) -> Vec<Vec<f32>> {
    let refs: Vec<&Observation> = idx.iter().map(|&i| &dataset.observations[i]).collect();
    trained.predict_log_runtime_cached(cache, &refs)
}

fn calibrate(
    trained: &TrainedPitot,
    dataset: &Dataset,
    cache: &pitot::TowerCache,
) -> PooledConformal {
    // Interleave the validation holdout into calibration / selection
    // halves, exactly as `pitot::train` does for the dense model.
    let cal_idx: Vec<usize> = trained.split.val.iter().copied().step_by(2).collect();
    let sel_idx: Vec<usize> = trained
        .split
        .val
        .iter()
        .copied()
        .skip(1)
        .step_by(2)
        .collect();
    let tp = |idx: &[usize]| -> (Vec<f32>, Vec<usize>) {
        idx.iter()
            .map(|&i| {
                let o = &dataset.observations[i];
                (o.log_runtime(), o.interferers.len())
            })
            .unzip()
    };
    let cal_preds = preds(trained, dataset, cache, &cal_idx);
    let sel_preds = preds(trained, dataset, cache, &sel_idx);
    let (cal_t, cal_pool) = tp(&cal_idx);
    let (sel_t, sel_pool) = tp(&sel_idx);
    SweepCalibration::new(
        &PredictionSet {
            predictions: &cal_preds,
            targets_log: &cal_t,
            pools: &cal_pool,
        },
        sel_preds,
        sel_t,
        sel_pool,
        trained.model.config().objective.xis(),
    )
    .fit(EPSILON, HeadSelection::TightestOnValidation)
}

fn main() {
    // 1. Testbed, split, one dense model — the quickstart fixture.
    let testbed = Testbed::generate(&TestbedConfig::small());
    let dataset = testbed.collect_dataset();
    let split = Split::stratified(&dataset, 0.6, 0);
    let config = PitotConfig {
        objective: Objective::Quantiles(vec![0.5, 0.8, 0.9, 0.95]),
        ..PitotConfig::fast()
    };
    let trained = train(&dataset, &split, &config);
    let test: Vec<usize> = split.test.clone();
    println!(
        "trained dense model: {} test observations, ε = {EPSILON}",
        test.len()
    );

    // 2. Walk the ladder. Each level gets its own frozen tower cache and
    //    its own conformal calibration fit on *its* residuals.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |bytes: &[u8], d: &mut u64| {
        for &b in bytes {
            *d ^= u64::from(b);
            *d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let levels = [
        CompressionSpec::none(),
        CompressionSpec::int8(),
        CompressionSpec::pruned(0.5),
        CompressionSpec::pruned_int8(0.5),
    ];
    let mut dense_conformal: Option<PooledConformal> = None;
    let mut coverages = Vec::new();
    let mut widths = Vec::new();
    let mut last_preds: Vec<Vec<f32>> = Vec::new();
    println!("\nlevel        coverage   width    weight bytes");
    for spec in &levels {
        let tower = CompressedTower::new(&trained, spec);
        let cache = tower.tower_cache(&dataset);
        let p = preds(&trained, &dataset, &cache, &test);
        let conformal = calibrate(&trained, &dataset, &cache);
        let (mut covered, mut width_sum) = (0usize, 0.0f64);
        for (b, &i) in test.iter().enumerate() {
            let o = &dataset.observations[i];
            let head: Vec<f32> = p.iter().map(|h| h[b]).collect();
            let bound = conformal.bound_log(&head, o.interferers.len());
            covered += usize::from(bound >= o.log_runtime());
            width_sum += f64::from(bound - head[0]);
            fnv(&bound.to_bits().to_le_bytes(), &mut digest);
        }
        let coverage = covered as f32 / test.len() as f32;
        let width = (width_sum / test.len() as f64) as f32;
        println!(
            "{:<12} {:.4}     {:.4}   {} ({}% of dense)",
            spec.name(),
            coverage,
            width,
            tower.weight_bytes(),
            100 * tower.weight_bytes() / tower.dense_weight_bytes().max(1)
        );
        coverages.push(coverage);
        widths.push(width);
        if spec.is_none() {
            dense_conformal = Some(conformal);
        }
        last_preds = p;
    }

    // 3. The broken deployment: pruned+int8 predictions served under the
    //    dense model's stale calibration.
    let stale_conformal = dense_conformal.expect("dense level ran first");
    let mut stale_covered = 0usize;
    for (b, &i) in test.iter().enumerate() {
        let o = &dataset.observations[i];
        let head: Vec<f32> = last_preds.iter().map(|h| h[b]).collect();
        let bound = stale_conformal.bound_log(&head, o.interferers.len());
        stale_covered += usize::from(bound >= o.log_runtime());
        fnv(&bound.to_bits().to_le_bytes(), &mut digest);
    }
    let stale_coverage = stale_covered as f32 / test.len() as f32;
    println!(
        "\nstale arm (pruned+int8 under dense calibration): coverage {stale_coverage:.4} \
         vs recalibrated {:.4}",
        coverages[3]
    );

    // Recalibration restores coverage at every level; the stale arm
    // demonstrates what it restores it *from*.
    for (spec, &c) in levels.iter().zip(&coverages) {
        assert!(
            c >= 0.88,
            "{}: recalibrated coverage {c} below 0.88",
            spec.name()
        );
    }
    assert!(
        stale_coverage < coverages[3],
        "stale calibration failed to undercover"
    );
    assert!(
        widths[2] > widths[0],
        "pruned width did not absorb compression error"
    );
    // The CI-diffed replayability witness — keep this the last line.
    println!("digest={digest:016x}");
}
