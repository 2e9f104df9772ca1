//! The flat parameter plane.
//!
//! Every trainable scalar of a model lives in **one contiguous buffer**, a
//! [`ParamStore`], and each layer holds [`ParamRange`] descriptors (offset
//! plus length) into it instead of owning scattered matrices. Gradients
//! live in a [`GradPlane`] with the *same layout*, and the AdaMax moments
//! allocated by [`crate::AdaMax`] mirror the layout again, so one optimizer
//! step is a single fused pass over four parallel planes
//! ([`pitot_linalg::adamax_update`]) rather than a per-layer scalar loop.
//!
//! Ranges are handed out by a [`ParamStoreBuilder`] during model
//! construction; once [`ParamStoreBuilder::finish`] seals the store, the
//! layout is fixed. Serialization keeps only the flat buffer (descriptors
//! are reconstructed from the architecture), so checkpoints are a single
//! `Vec<f32>`.
//!
//! # Examples
//!
//! ```
//! use pitot_nn::{ParamStore, ParamStoreBuilder};
//!
//! let mut b = ParamStoreBuilder::new();
//! let w = b.alloc(6);
//! let bias = b.alloc_full(2, 1.0);
//! let store: ParamStore = b.finish();
//! assert_eq!(store.len(), 8);
//! assert_eq!(store.slice(bias), &[1.0, 1.0]);
//! assert_eq!(store.slice(w).len(), 6);
//! ```

use pitot_linalg::MatRef;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A window of the flat parameter plane (offset + length).
///
/// Copyable descriptor; the actual data lives in the [`ParamStore`] (or the
/// matching [`GradPlane`] / moment planes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamRange {
    /// First element of the window in the plane.
    pub offset: usize,
    /// Number of elements.
    pub len: usize,
}

impl ParamRange {
    /// The window as an index range.
    #[inline]
    pub fn as_range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }

    /// One element past the window.
    #[inline]
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// The smallest window covering both `self` and `other`.
    pub fn join(&self, other: ParamRange) -> ParamRange {
        let offset = self.offset.min(other.offset);
        ParamRange {
            offset,
            len: self.end().max(other.end()) - offset,
        }
    }
}

/// Allocates windows of the future parameter plane during model
/// construction.
#[derive(Debug, Default)]
pub struct ParamStoreBuilder {
    data: Vec<f32>,
    /// When set, [`ParamStoreBuilder::alloc_randn`] copies window values
    /// from this plane instead of drawing fresh normals. Shared (`Rc`) so
    /// a caller-side cache hands the plane over without copying it.
    prefill: Option<std::rc::Rc<[f32]>>,
}

impl ParamStoreBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder that *replays* a previously built plane: every
    /// [`ParamStoreBuilder::alloc_randn`] window copies its values from
    /// `plane` (at the same offsets) instead of drawing and scaling fresh
    /// normals. Callers cache the finished plane of an earlier identical
    /// construction and skip the Box–Muller fill entirely — layout code
    /// runs unchanged, so the resulting windows are bitwise identical to a
    /// fresh build by construction.
    ///
    /// The replayed plane must come from an identical allocation sequence;
    /// windows are checked to stay in bounds, and [`ParamStoreBuilder::finish`]
    /// asserts the layouts ended at the same length.
    pub fn prefilled(plane: std::rc::Rc<[f32]>) -> Self {
        Self {
            data: Vec::with_capacity(plane.len()),
            prefill: Some(plane),
        }
    }

    /// Elements allocated so far (the offset the next window will get).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Allocates a zero-initialized window.
    pub fn alloc(&mut self, len: usize) -> ParamRange {
        self.alloc_full(len, 0.0)
    }

    /// Allocates a window filled with `value`.
    pub fn alloc_full(&mut self, len: usize, value: f32) -> ParamRange {
        let offset = self.data.len();
        self.data.resize(offset + len, value);
        ParamRange { offset, len }
    }

    /// Allocates a window of normal draws scaled by `std` (He/Xavier-style
    /// initialization directly into the plane).
    pub fn alloc_randn<R: Rng + ?Sized>(
        &mut self,
        len: usize,
        std: f32,
        rng: &mut R,
    ) -> ParamRange {
        if let Some(plane) = &self.prefill {
            let offset = self.data.len();
            assert!(
                offset + len <= plane.len(),
                "replayed window [{offset}, {}) exceeds the prefill plane ({})",
                offset + len,
                plane.len()
            );
            self.data.extend_from_slice(&plane[offset..offset + len]);
            return ParamRange { offset, len };
        }
        let range = self.alloc(len);
        let slab = &mut self.data[range.as_range()];
        pitot_linalg::fill_randn(slab, rng);
        for v in slab {
            *v *= std;
        }
        range
    }

    /// Seals the layout into an immutable-shape store.
    ///
    /// # Panics
    ///
    /// Panics if a prefill plane (see [`ParamStoreBuilder::prefilled`]) was
    /// supplied and its length differs from the built layout — the replayed
    /// construction diverged from the original.
    pub fn finish(self) -> ParamStore {
        if let Some(plane) = &self.prefill {
            assert_eq!(
                plane.len(),
                self.data.len(),
                "replayed layout diverged from the prefill plane"
            );
        }
        pitot_linalg::alloc_count::record_buffer(self.data.len());
        ParamStore {
            data: self.data,
            mask: None,
        }
    }
}

/// The sealed flat parameter plane: one contiguous `Vec<f32>` holding every
/// trainable scalar of a model, plus an optional structured pruning mask.
///
/// The mask (one `u8` per parameter, `1` = keep, `0` = pruned) lives on the
/// plane itself so it serializes with checkpoints and survives
/// resume-from-checkpoint training: re-applying it after every optimizer
/// step keeps pruned weights exactly zero, and a resumed run replays the
/// same masked trajectory bitwise. Checkpoints written before masks existed
/// deserialize with no mask (`#[serde(default)]`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamStore {
    data: Vec<f32>,
    #[serde(default)]
    mask: Option<Vec<u8>>,
}

impl ParamStore {
    /// Total number of parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The whole plane.
    #[inline]
    pub fn params(&self) -> &[f32] {
        &self.data
    }

    /// The whole plane, mutably (the optimizer's single parameter block).
    #[inline]
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One window of the plane.
    #[inline]
    pub fn slice(&self, range: ParamRange) -> &[f32] {
        &self.data[range.as_range()]
    }

    /// One window of the plane, mutably.
    #[inline]
    pub fn slice_mut(&mut self, range: ParamRange) -> &mut [f32] {
        &mut self.data[range.as_range()]
    }

    /// A window viewed as a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `range.len != rows * cols`.
    #[inline]
    pub fn matrix(&self, range: ParamRange, rows: usize, cols: usize) -> MatRef<'_> {
        MatRef::new(self.slice(range), rows, cols)
    }

    /// The pruning mask, if one has been installed (`1` = keep, `0` =
    /// pruned; one entry per parameter).
    pub fn mask(&self) -> Option<&[u8]> {
        self.mask.as_deref()
    }

    /// Installs a full-plane pruning mask and immediately applies it
    /// (pruned parameters are zeroed).
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != self.len()`.
    pub fn set_mask(&mut self, mask: Vec<u8>) {
        assert_eq!(mask.len(), self.data.len(), "mask/plane length mismatch");
        self.mask = Some(mask);
        self.apply_mask();
    }

    /// Removes the pruning mask (already-zeroed parameters keep their
    /// values; nothing is restored).
    pub fn clear_mask(&mut self) {
        self.mask = None;
    }

    /// Re-zeroes every pruned parameter. A no-op without a mask; called
    /// after each optimizer step so masked training stays masked (the
    /// optimizer is free to propose updates to pruned weights, the mask
    /// vetoes them).
    pub fn apply_mask(&mut self) {
        if let Some(mask) = &self.mask {
            for (v, &m) in self.data.iter_mut().zip(mask) {
                if m == 0 {
                    *v = 0.0;
                }
            }
        }
    }

    /// Magnitude-prunes one window of the plane: the `⌊len·sparsity⌋`
    /// smallest-|w| parameters of `range` are marked pruned (ties broken
    /// deterministically by index) and every pruned parameter of the window
    /// is zeroed. Installs an all-keep mask on first use; repeated calls on
    /// different windows compose.
    ///
    /// The order is `|w|.total_cmp`, then index, selected (not sorted) over
    /// packed `(|w| bits << 32) | index` keys: for a cleared sign bit the
    /// f32 bit pattern orders exactly as `total_cmp`.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1]`, the window exceeds the
    /// plane, or the window holds more than `u32::MAX` parameters.
    pub fn prune_window_by_magnitude(&mut self, range: ParamRange, sparsity: f32) {
        assert!(
            (0.0..=1.0).contains(&sparsity),
            "sparsity {sparsity} outside [0, 1]"
        );
        assert!(
            u32::try_from(range.len).is_ok(),
            "window of {} parameters exceeds the u32 index of the pruning keys",
            range.len
        );
        let drop = ((range.len as f64) * f64::from(sparsity)).floor() as usize;
        let plane_len = self.data.len();
        let window = &mut self.data[range.as_range()];
        let mut keys: Vec<u64> = window
            .iter()
            .enumerate()
            .map(|(i, w)| (u64::from(w.abs().to_bits()) << 32) | i as u64)
            .collect();
        if 0 < drop && drop < keys.len() {
            keys.select_nth_unstable(drop);
        }
        let mask = self.mask.get_or_insert_with(|| vec![1; plane_len]);
        let window_mask = &mut mask[range.as_range()];
        for &key in &keys[..drop] {
            window_mask[key as u32 as usize] = 0;
        }
        // Branch-free, since the mask is data-dependent: a pruned
        // parameter's bits are masked to +0.0.
        for (v, &m) in window.iter_mut().zip(window_mask.iter()) {
            *v = f32::from_bits(v.to_bits() & u32::from(m != 0).wrapping_neg());
        }
    }
}

/// A gradient plane with the same layout as a [`ParamStore`].
///
/// Allocated once per training loop and recycled in place; accumulation and
/// scaling run through the fused elementwise kernels.
#[derive(Debug, Clone)]
pub struct GradPlane {
    data: Vec<f32>,
}

impl GradPlane {
    /// A zeroed plane matching `store`'s layout.
    pub fn zeros_like(store: &ParamStore) -> Self {
        pitot_linalg::alloc_count::record_buffer(store.len());
        Self {
            data: vec![0.0; store.len()],
        }
    }

    /// Total number of gradient entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the plane is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The whole plane (the optimizer's single gradient block).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole plane, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One window of the plane.
    #[inline]
    pub fn slice(&self, range: ParamRange) -> &[f32] {
        &self.data[range.as_range()]
    }

    /// One window of the plane, mutably.
    #[inline]
    pub fn slice_mut(&mut self, range: ParamRange) -> &mut [f32] {
        &mut self.data[range.as_range()]
    }

    /// Zeroes the whole plane.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// `self[range] += alpha · other[range]` — accumulate one model's window
    /// from a scratch plane (multi-network training loops).
    ///
    /// # Panics
    ///
    /// Panics if the planes have different layouts.
    pub fn accumulate_range(&mut self, range: ParamRange, other: &GradPlane, alpha: f32) {
        assert_eq!(self.data.len(), other.data.len(), "plane layout mismatch");
        pitot_linalg::axpy_slice(
            alpha,
            &other.data[range.as_range()],
            &mut self.data[range.as_range()],
        );
    }

    /// Scales the whole plane by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn builder_allocates_contiguously() {
        let mut b = ParamStoreBuilder::new();
        let a = b.alloc(3);
        let c = b.alloc_full(2, 0.5);
        assert_eq!(a, ParamRange { offset: 0, len: 3 });
        assert_eq!(c, ParamRange { offset: 3, len: 2 });
        let store = b.finish();
        assert_eq!(store.params(), &[0.0, 0.0, 0.0, 0.5, 0.5]);
        assert_eq!(a.join(c), ParamRange { offset: 0, len: 5 });
    }

    #[test]
    fn randn_windows_are_scaled() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut b = ParamStoreBuilder::new();
        let r = b.alloc_randn(1000, 0.1, &mut rng);
        let store = b.finish();
        let std = {
            let s = store.slice(r);
            let mean: f32 = s.iter().sum::<f32>() / s.len() as f32;
            (s.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / s.len() as f32).sqrt()
        };
        assert!((std - 0.1).abs() < 0.02, "std {std}");
    }

    #[test]
    fn grad_plane_accumulates_ranges() {
        let mut b = ParamStoreBuilder::new();
        let lo = b.alloc(2);
        let hi = b.alloc(2);
        let store = b.finish();
        let mut acc = GradPlane::zeros_like(&store);
        let mut tmp = GradPlane::zeros_like(&store);
        tmp.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        acc.accumulate_range(lo, &tmp, 1.0);
        acc.accumulate_range(hi, &tmp, 0.5);
        assert_eq!(acc.as_slice(), &[1.0, 2.0, 1.5, 2.0]);
        acc.scale(2.0);
        assert_eq!(acc.as_slice(), &[2.0, 4.0, 3.0, 4.0]);
    }

    /// The sort-based pruning order (`|w|.total_cmp`, then index) that
    /// selection must reproduce. Returns the window's keep mask.
    fn sorted_keep_mask(window: &[f32], sparsity: f32) -> Vec<u8> {
        let drop = ((window.len() as f64) * f64::from(sparsity)).floor() as usize;
        let mut order: Vec<usize> = (0..window.len()).collect();
        order.sort_by(|&a, &b| window[a].abs().total_cmp(&window[b].abs()).then(a.cmp(&b)));
        let mut keep = vec![1u8; window.len()];
        for &i in &order[..drop] {
            keep[i] = 0;
        }
        keep
    }

    proptest! {
        /// Selection-based pruning marks exactly the sort oracle's set and
        /// zeroes exactly those entries, leaving the rest of the plane and
        /// mask untouched. Even codes are positive and odd codes negative
        /// with the magnitude of the code below, so duplicates, ±0.0, and
        /// equal magnitudes of opposite sign are common; sparsity 0 and 1
        /// run in every case.
        #[test]
        fn selection_pruning_matches_the_sort_oracle(
            codes in proptest::collection::vec(0u32..48, 0..120),
            sparsity in 0.0f32..1.0,
            prefix in 0usize..5,
            suffix in 0usize..5,
        ) {
            let window: Vec<f32> = codes
                .iter()
                .map(|&c| if c % 2 == 0 { 0.25 } else { -0.25 } * (c / 2) as f32)
                .collect();
            for s in [0.0, 1.0, sparsity] {
                let mut b = ParamStoreBuilder::new();
                b.alloc_full(prefix, 3.0);
                let range = b.alloc(window.len());
                b.alloc_full(suffix, -3.0);
                let mut store = b.finish();
                store.slice_mut(range).copy_from_slice(&window);
                let before = store.params().to_vec();

                store.prune_window_by_magnitude(range, s);
                let keep = sorted_keep_mask(&window, s);
                let mask = store.mask().unwrap();
                prop_assert_eq!(&mask[range.as_range()], &keep[..], "sparsity {}", s);
                for (i, (&got, &was)) in store.params().iter().zip(&before).enumerate() {
                    let in_window = range.as_range().contains(&i);
                    let pruned = in_window && keep[i - range.offset] == 0;
                    let want = if pruned { 0.0f32 } else { was };
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "plane[{}]", i);
                    prop_assert!(in_window || mask[i] == 1, "mask[{}] outside the window", i);
                }
            }
        }
    }

    #[test]
    fn store_serde_round_trip() {
        let mut b = ParamStoreBuilder::new();
        b.alloc_full(3, 1.5);
        let store = b.finish();
        let json = serde_json::to_string(&store).unwrap();
        let back: ParamStore = serde_json::from_str(&json).unwrap();
        assert_eq!(store, back);
    }
}
