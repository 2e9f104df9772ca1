//! Compressed inference towers: int8 weight quantization and magnitude
//! pruning.
//!
//! Tower evaluation is the expensive, memory-heavy part of Pitot inference
//! (two MLP passes over every entity). This module compresses the towers
//! *after* training — pruning small-magnitude weights and/or rounding each
//! weight to its int8 grid — and produces a [`TowerCache`] that drops into
//! the exact same prediction path as the dense towers
//! ([`TrainedPitot::predict_log_runtime_cached`]).
//!
//! Both transforms edit a clone of the frozen f32 parameter plane in place,
//! so the compressed towers run through the ordinary f32 kernels.
//! Quantization is weights-only and simulated: each tower weight becomes
//! `s·q` with an integer code `|q| ≤ 127` and one scale `s` per output
//! channel, which is exactly the set of values an int8 deployment format
//! stores ([`CompressedTower::weight_bytes`] counts that format's size).
//! Activations stay f32.
//!
//! The central invariant: **compression never touches calibration
//! validity**. Compression perturbs predictions, but conformal calibration
//! only assumes exchangeability of the calibration residuals — not that the
//! predictor is any good. Recalibrating on the *compressed* model's
//! residuals therefore restores the coverage guarantee at every compression
//! level; the interval simply widens to absorb the compression error. The
//! `ext-compress` experiment measures exactly this tradeoff.
//!
//! Determinism: the pruning order is a deterministic total order
//! (magnitude, then plane index) and the rounding is elementwise, so a
//! compressed tower cache has exactly the dense path's determinism —
//! bitwise identical across `PITOT_THREADS`, which is all the serving twin
//! tests need to extend to compressed replicas unchanged.

use crate::train::{TowerCache, TrainedPitot};
use crate::PitotModel;
use pitot_nn::Linear;
use pitot_testbed::Dataset;
use serde::{Deserialize, Serialize};

/// How a tower's weights are compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompressionLevel {
    /// No compression: the dense f32 towers.
    None,
    /// Weights rounded to int8 grids (symmetric per-output-channel
    /// scales); activations stay f32.
    Int8,
    /// Magnitude pruning: the smallest-|w| fraction of each tower weight
    /// matrix is zeroed via a structured mask on the parameter plane.
    Pruned,
    /// Pruning followed by int8 quantization of the masked weights
    /// (a pruned weight stays exactly zero).
    PrunedInt8,
}

impl CompressionLevel {
    /// Whether this level installs a pruning mask.
    pub fn prunes(self) -> bool {
        matches!(
            self,
            CompressionLevel::Pruned | CompressionLevel::PrunedInt8
        )
    }

    /// Whether this level rounds the tower weights to int8 grids.
    pub fn quantizes(self) -> bool {
        matches!(self, CompressionLevel::Int8 | CompressionLevel::PrunedInt8)
    }

    /// Display name (used in experiment arms and bench labels).
    pub fn name(self) -> &'static str {
        match self {
            CompressionLevel::None => "none",
            CompressionLevel::Int8 => "int8",
            CompressionLevel::Pruned => "pruned",
            CompressionLevel::PrunedInt8 => "pruned+int8",
        }
    }
}

/// A validated compression request: level plus pruning sparsity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionSpec {
    /// Compression level.
    pub level: CompressionLevel,
    /// Fraction of each tower weight matrix to prune (only meaningful for
    /// pruning levels; must be 0 otherwise).
    pub sparsity: f32,
}

impl CompressionSpec {
    /// The identity spec: dense f32 towers.
    pub fn none() -> Self {
        Self {
            level: CompressionLevel::None,
            sparsity: 0.0,
        }
    }

    /// Int8 quantization without pruning.
    pub fn int8() -> Self {
        Self {
            level: CompressionLevel::Int8,
            sparsity: 0.0,
        }
    }

    /// Magnitude pruning at the given sparsity.
    pub fn pruned(sparsity: f32) -> Self {
        Self {
            level: CompressionLevel::Pruned,
            sparsity,
        }
    }

    /// Pruning at the given sparsity followed by int8 quantization.
    pub fn pruned_int8(sparsity: f32) -> Self {
        Self {
            level: CompressionLevel::PrunedInt8,
            sparsity,
        }
    }

    /// Whether this spec leaves the model untouched.
    pub fn is_none(&self) -> bool {
        self.level == CompressionLevel::None
    }

    /// Display name of the level.
    pub fn name(&self) -> &'static str {
        self.level.name()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when `sparsity` is inconsistent with the level: pruning levels
    /// need `0 < sparsity < 1`, non-pruning levels need `sparsity == 0`.
    pub fn validate(&self) {
        if self.level.prunes() {
            assert!(
                self.sparsity > 0.0 && self.sparsity < 1.0,
                "compression.sparsity = {} is outside (0, 1): pruning levels \
                 drop a positive fraction of each tower weight matrix; use \
                 level {:?} or Int8 for no pruning",
                self.sparsity,
                CompressionLevel::None,
            );
        } else {
            assert!(
                self.sparsity == 0.0,
                "compression.sparsity = {} is meaningless for level {:?}: \
                 only Pruned / PrunedInt8 read it; set sparsity to 0 or pick \
                 a pruning level",
                self.sparsity,
                self.level,
            );
        }
    }
}

impl Default for CompressionSpec {
    fn default() -> Self {
        Self::none()
    }
}

/// A trained model's towers, compressed per a [`CompressionSpec`].
///
/// Construction clones the model, installs the pruning mask (if any) on the
/// clone's parameter plane, and rounds the tower weights to their int8
/// grids in place (if the level quantizes). The
/// [`CompressedTower::tower_cache`] output substitutes for the dense
/// [`TrainedPitot::tower_cache`] in every downstream prediction path — the
/// per-observation predict kernel never sees the compression, only the
/// compressed tower outputs.
#[derive(Debug, Clone)]
pub struct CompressedTower {
    spec: CompressionSpec,
    /// The model clone carrying the compressed parameter plane.
    model: PitotModel,
}

impl CompressedTower {
    /// Compresses `trained`'s towers per `spec`.
    ///
    /// Only the tower *weight matrices* are compressed — biases, layer
    /// norms, and the learned features φ stay dense f32 (they are a sliver
    /// of the parameter count and anchor the embedding scales). Pruning
    /// runs first, so a pruned weight stays exactly zero on its int8 grid.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`CompressionSpec::validate`].
    pub fn new(trained: &TrainedPitot, spec: &CompressionSpec) -> Self {
        spec.validate();
        let mut model = trained.model.clone();
        let layers: Vec<Linear> = tower_layers(&model).copied().collect();
        let store = model.store_mut();
        for layer in &layers {
            if spec.level.prunes() {
                store.prune_window_by_magnitude(layer.weight_range(), spec.sparsity);
            }
            if spec.level.quantizes() {
                quantize_columns(store.slice_mut(layer.weight_range()), layer.out_dim());
            }
        }
        Self { spec: *spec, model }
    }

    /// The spec this tower was compressed with.
    pub fn spec(&self) -> &CompressionSpec {
        &self.spec
    }

    /// The model clone carrying the compressed plane (masked and/or rounded
    /// to int8 grids; identical to the trained model for
    /// [`CompressionLevel::None`]).
    pub fn model(&self) -> &PitotModel {
        &self.model
    }

    /// Evaluates the compressed towers over every entity, producing a
    /// [`TowerCache`] interchangeable with the dense one. The compression
    /// lives entirely on the plane, so this is the dense inference path.
    pub fn tower_cache(&self, dataset: &Dataset) -> TowerCache {
        let (w, p_full) = self.model.infer_towers(dataset);
        TowerCache { w, p_full }
    }

    /// Bytes the compressed tower weights occupy in a deployment format:
    /// one byte per weight plus one f32 scale per output channel for
    /// quantizing levels, the surviving f32 weights for pruned-only (a
    /// sparse format), and the full dense weights for
    /// [`CompressionLevel::None`].
    pub fn weight_bytes(&self) -> usize {
        const F32: usize = std::mem::size_of::<f32>();
        let mask = self.model.store().mask();
        tower_layers(&self.model)
            .map(|l| {
                let r = l.weight_range();
                if self.spec.level.quantizes() {
                    r.len + l.out_dim() * F32
                } else if let Some(mask) = mask {
                    F32 * mask[r.as_range()].iter().filter(|&&m| m != 0).count()
                } else {
                    F32 * r.len
                }
            })
            .sum()
    }

    /// Bytes the same tower weights occupy densely in f32.
    pub fn dense_weight_bytes(&self) -> usize {
        tower_layers(&self.model)
            .map(|l| l.weight_range().len * std::mem::size_of::<f32>())
            .sum()
    }
}

/// Every linear layer of both towers, workload tower first.
fn tower_layers(model: &PitotModel) -> impl Iterator<Item = &Linear> {
    model.fw().layers().iter().chain(model.fp().layers())
}

/// Rounds a row-major `in × out` weight window to its symmetric int8 grid,
/// one output-channel column at a time: scale `s = max|w|/127`, then
/// `w ← s·round(w/s)` with the code clamped to ±127. An all-zero column is
/// left as is, and a zero weight stays zero.
fn quantize_columns(weights: &mut [f32], out_dim: usize) {
    if out_dim == 0 {
        return; // A zero-width layer has no weights.
    }
    // Row-major passes: the column maxima first, then the rounding.
    let mut scales = vec![0.0f32; out_dim];
    for row in weights.chunks_exact(out_dim) {
        for (m, &w) in scales.iter_mut().zip(row) {
            *m = m.max(w.abs());
        }
    }
    for s in &mut scales {
        *s /= 127.0;
    }
    for row in weights.chunks_exact_mut(out_dim) {
        for (w, &s) in row.iter_mut().zip(&scales) {
            if s != 0.0 {
                *w = s * (*w / s).round().clamp(-127.0, 127.0);
            }
        }
    }
}

impl TrainedPitot {
    /// [`TrainedPitot::tower_cache`] through a compression spec: the
    /// one-call form serving uses per replica. For
    /// [`CompressionLevel::None`] this is exactly the dense cache.
    pub fn compressed_tower_cache(&self, dataset: &Dataset, spec: &CompressionSpec) -> TowerCache {
        if spec.is_none() {
            spec.validate();
            return self.tower_cache(dataset);
        }
        CompressedTower::new(self, spec).tower_cache(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train, PitotConfig};
    use pitot_testbed::{split::Split, Testbed, TestbedConfig};

    fn trained() -> (Dataset, TrainedPitot) {
        let ds = Testbed::generate(&TestbedConfig::small()).collect_dataset();
        let split = Split::stratified(&ds, 0.6, 0);
        let mut cfg = PitotConfig::tiny();
        cfg.steps = 120;
        let t = train(&ds, &split, &cfg);
        (ds, t)
    }

    #[test]
    fn none_spec_matches_dense_cache_bitwise() {
        let (ds, t) = trained();
        let dense = t.tower_cache(&ds);
        let via_spec = t.compressed_tower_cache(&ds, &CompressionSpec::none());
        assert_eq!(dense.w, via_spec.w);
        assert_eq!(dense.p_full, via_spec.p_full);
    }

    #[test]
    fn compressed_caches_stay_close_to_dense() {
        let (ds, t) = trained();
        let dense = t.tower_cache(&ds);
        let scale = dense
            .w
            .as_slice()
            .iter()
            .chain(dense.p_full.as_slice())
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1.0);
        for spec in [
            CompressionSpec::int8(),
            CompressionSpec::pruned(0.3),
            CompressionSpec::pruned_int8(0.3),
        ] {
            let c = t.compressed_tower_cache(&ds, &spec);
            assert_eq!(c.w.shape(), dense.w.shape());
            assert_eq!(c.p_full.shape(), dense.p_full.shape());
            let max_err =
                c.w.as_slice()
                    .iter()
                    .zip(dense.w.as_slice())
                    .chain(c.p_full.as_slice().iter().zip(dense.p_full.as_slice()))
                    .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            // Lossy but bounded: compression error stays small relative to
            // the tower output scale (conformal recalibration absorbs it).
            assert!(
                max_err < 0.5 * scale,
                "{}: max tower error {max_err} vs scale {scale}",
                spec.name()
            );
            // And it must actually differ from dense (compression happened).
            assert!(max_err > 0.0, "{}: compression was a no-op", spec.name());
        }
    }

    #[test]
    fn compression_is_deterministic() {
        let (ds, t) = trained();
        for spec in [CompressionSpec::int8(), CompressionSpec::pruned_int8(0.5)] {
            let a = t.compressed_tower_cache(&ds, &spec);
            let b = t.compressed_tower_cache(&ds, &spec);
            assert_eq!(a.w, b.w, "{}", spec.name());
            assert_eq!(a.p_full, b.p_full, "{}", spec.name());
        }
    }

    #[test]
    fn pruning_zeroes_the_requested_fraction() {
        let (_, t) = trained();
        let spec = CompressionSpec::pruned(0.5);
        let ct = CompressedTower::new(&t, &spec);
        let store = ct.model().store();
        let mask = store.mask().expect("pruning installs a mask");
        for layer in ct
            .model()
            .fw()
            .layers()
            .iter()
            .chain(ct.model().fp().layers())
        {
            let r = layer.weight_range();
            let pruned = mask[r.as_range()].iter().filter(|&&m| m == 0).count();
            assert_eq!(pruned, r.len / 2, "window {:?}", r.as_range());
            // The masked weights are exactly zero on the plane.
            for (i, &m) in mask[r.as_range()].iter().enumerate() {
                if m == 0 {
                    assert_eq!(store.params()[r.offset + i], 0.0);
                }
            }
        }
        // φ windows and biases stay dense.
        let weight_len: usize = ct
            .model()
            .fw()
            .layers()
            .iter()
            .chain(ct.model().fp().layers())
            .map(|l| l.weight_range().len)
            .sum();
        let total_pruned = mask.iter().filter(|&&m| m == 0).count();
        assert_eq!(total_pruned, weight_len / 2);
    }

    #[test]
    fn quantized_plane_lies_on_int8_grids() {
        let (_, t) = trained();
        let trained_plane = t.model.store().params();
        for (spec, source_spec) in [
            (CompressionSpec::int8(), CompressionSpec::none()),
            (
                CompressionSpec::pruned_int8(0.5),
                CompressionSpec::pruned(0.5),
            ),
        ] {
            let name = spec.name();
            // The quantizer's input is the plane after any pruning.
            let source = CompressedTower::new(&t, &source_spec);
            let ct = CompressedTower::new(&t, &spec);
            let (src, got) = (source.model().store(), ct.model().store());
            assert_eq!(got.mask(), src.mask(), "{name}: mask changed");
            let mut is_weight = vec![false; got.len()];
            for layer in tower_layers(ct.model()) {
                let (r, out) = (layer.weight_range(), layer.out_dim());
                is_weight[r.as_range()].fill(true);
                let mut scales = vec![0.0f32; out];
                for (i, &x) in src.slice(r).iter().enumerate() {
                    scales[i % out] = scales[i % out].max(x.abs());
                }
                for (i, (&x, &y)) in src.slice(r).iter().zip(got.slice(r)).enumerate() {
                    let s = scales[i % out] / 127.0;
                    let q = if s == 0.0 { 0.0 } else { (y / s).round() };
                    let on_grid =
                        q.abs() <= 127.0 && (s == 0.0 || y.to_bits() == (s * q).to_bits());
                    assert!(on_grid, "{name}: {y} is not s·q with |q| ≤ 127 (s = {s})");
                    // Half a step, plus f32 headroom for `w/s` and `s·q`.
                    let moved = (y - x).abs();
                    assert!(moved <= 0.5 * s * (1.0 + 1e-4), "{name}: {x} moved to {y}");
                }
            }
            for (i, (&y, &x)) in got.params().iter().zip(trained_plane).enumerate() {
                if got.mask().is_some_and(|m| m[i] == 0) {
                    assert_eq!(y, 0.0, "{name}: pruned [{i}] is nonzero");
                }
                // Biases, layer norms, and φ are the trained plane, bitwise.
                if !is_weight[i] {
                    assert_eq!(y.to_bits(), x.to_bits(), "{name}: non-weight [{i}] moved");
                }
            }
        }
    }

    #[test]
    fn weight_bytes_shrink_with_compression() {
        let (_, t) = trained();
        let dense = CompressedTower::new(&t, &CompressionSpec::none());
        let int8 = CompressedTower::new(&t, &CompressionSpec::int8());
        let pruned = CompressedTower::new(&t, &CompressionSpec::pruned(0.5));
        let both = CompressedTower::new(&t, &CompressionSpec::pruned_int8(0.5));
        assert_eq!(dense.weight_bytes(), dense.dense_weight_bytes());
        assert!(int8.weight_bytes() * 3 < dense.weight_bytes());
        assert_eq!(pruned.weight_bytes() * 2, dense.weight_bytes());
        assert!(both.weight_bytes() <= int8.weight_bytes());
    }

    #[test]
    #[should_panic(expected = "compression.sparsity")]
    fn validate_rejects_pruning_without_sparsity() {
        CompressionSpec::pruned(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "compression.sparsity")]
    fn validate_rejects_sparsity_without_pruning() {
        CompressionSpec {
            level: CompressionLevel::Int8,
            sparsity: 0.5,
        }
        .validate();
    }
}
