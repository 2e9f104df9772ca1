//! Compression-layer benches: the end-to-end serving question —
//! observations/second through a compressed tower cache at each ladder
//! level — and the cost of building that cache (the deploy and
//! crash-rejoin path).
//!
//! Together with the per-level `weight_bytes` notes in `ext-compress`,
//! this is the throughput/memory side of the width-vs-compression
//! tradeoff table in `docs/SERVING.md`. `PITOT_BENCH_JSON=path` dumps the
//! figures machine-readably; `BENCH_compress.json` in the repo root
//! records the trajectory for this layer.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pitot::{CompressedTower, CompressionSpec, Objective, PitotConfig, TrainedPitot};
use pitot_bench::Fixture;
use std::hint::black_box;

fn trained(f: &Fixture) -> TrainedPitot {
    let cfg = PitotConfig {
        objective: Objective::paper_quantiles(),
        steps: 60,
        eval_every: 60,
        ..PitotConfig::paper()
    };
    pitot::train(&f.dataset, &f.split, &cfg)
}

/// End-to-end serving throughput: 256 observations scored through a
/// frozen tower cache at each compression-ladder level. This is the
/// number a replica operator trades against the `weight_bytes` saving
/// and the interval-width cost measured by `ext-compress`.
fn predict_compressed(c: &mut Criterion) {
    let f = Fixture::small();
    let t = trained(&f);
    let idx: Vec<usize> = f.split.test.iter().copied().take(256).collect();
    let levels = [
        ("dense", CompressionSpec::none()),
        ("int8", CompressionSpec::int8()),
        ("pruned_int8", CompressionSpec::pruned_int8(0.5)),
    ];
    let mut group = c.benchmark_group("compress/predict_cached_256");
    group
        .sample_size(20)
        .throughput(Throughput::Elements(idx.len() as u64));
    for (name, spec) in levels {
        let cache = CompressedTower::new(&t, &spec).tower_cache(&f.dataset);
        group.bench_function(name, |bch| {
            bch.iter(|| {
                let refs: Vec<_> = idx.iter().map(|&i| &f.dataset.observations[i]).collect();
                black_box(t.predict_log_runtime_cached(&cache, &refs))
            })
        });
    }
    group.finish();

    // Cache build cost per level (paid once per deploy/rejoin, off the
    // serving path — recorded so regressions in compression setup are
    // visible).
    let mut group = c.benchmark_group("compress/build_tower_cache");
    group.sample_size(10);
    for (name, spec) in [
        ("dense", CompressionSpec::none()),
        ("pruned_int8", CompressionSpec::pruned_int8(0.5)),
    ] {
        group.bench_function(name, |bch| {
            bch.iter(|| black_box(CompressedTower::new(&t, &spec).tower_cache(&f.dataset)))
        });
    }
    group.finish();
}

criterion_group!(compress, predict_compressed);
criterion_main!(compress);
