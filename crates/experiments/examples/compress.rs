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
use pitot_conformal::{HeadSelection, PooledConformal};
use pitot_linalg::Matrix;
use pitot_testbed::{split::Split, Dataset, Observation, Testbed, TestbedConfig};

const EPSILON: f32 = 0.1;

/// Log-runtime rows for `idx`, scored through `cache`.
fn preds(
    trained: &TrainedPitot,
    dataset: &Dataset,
    cache: &pitot::TowerCache,
    idx: &[usize],
) -> Matrix {
    let refs: Vec<&Observation> = idx.iter().map(|&i| &dataset.observations[i]).collect();
    let mut rows = Matrix::zeros(0, 0);
    trained.predict_log_runtime_into(cache, &refs, &mut rows);
    rows
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
    let mut dense_bounds: Option<PooledConformal> = None;
    let mut coverages = Vec::new();
    let mut widths = Vec::new();
    let mut last_preds = Matrix::zeros(0, 0);
    println!("\nlevel        coverage   width    weight bytes");
    for spec in &levels {
        let tower = CompressedTower::new(&trained, spec);
        let cache = tower.tower_cache(&dataset);
        let p = preds(&trained, &dataset, &cache, &test);
        let bounds = trained
            .calibration(&dataset, &cache)
            .fit(EPSILON, HeadSelection::TightestOnValidation);
        let (mut covered, mut width_sum) = (0usize, 0.0f64);
        for (&i, head) in test.iter().zip(p.iter_rows()) {
            let o = &dataset.observations[i];
            let bound = bounds.bound_log(head, o.interferers.len());
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
            dense_bounds = Some(bounds);
        }
        last_preds = p;
    }

    // 3. The broken deployment: pruned+int8 predictions served under the
    //    dense model's stale calibration.
    let stale_bounds = dense_bounds.expect("dense level ran first");
    let mut stale_covered = 0usize;
    for (&i, head) in test.iter().zip(last_preds.iter_rows()) {
        let o = &dataset.observations[i];
        let bound = stale_bounds.bound_log(head, o.interferers.len());
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
