//! Multi-layer perceptron: a stack of [`Linear`] layers with hidden
//! activations, optionally layer-normalized, parameterized by one window of
//! the flat parameter plane.

use crate::store::{ParamRange, ParamStoreBuilder};
use crate::{Activation, LayerNorm, LayerNormCache, Linear};
use pitot_linalg::{Matrix, Scratch};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward network `x → L₁ → [LN] → act → L₂ → [LN] → act → … → L_n`
/// (linear output).
///
/// The paper's embedding towers `f_w`, `f_p` are `Mlp`s with two hidden
/// layers and GELU activations (Sec 3.3); layer norm is an optional
/// extension knob (off in the paper's configuration). The network owns no
/// weights: every layer views a window of the [`crate::ParamStore`] the
/// network was built in, and the whole network spans the contiguous
/// [`Mlp::range`] of that plane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    /// One layer norm per hidden layer, applied between the linear and the
    /// activation. `None` (and absent in old checkpoints) = disabled.
    #[serde(default)]
    norms: Option<Vec<LayerNorm>>,
    span: ParamRange,
}

/// Forward-pass cache: everything `Mlp::backward` needs.
///
/// Reusable: pass the same cache to [`Mlp::forward_with`] every step and the
/// buffers are recycled in place, making the steady-state forward pass
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `inputs[i]` is the input to layer `i` (post-activation of layer `i−1`).
    inputs: Vec<Matrix>,
    /// `pre[i]` is the input to layer `i`'s hidden activation (the linear
    /// output, layer-normalized when norms are enabled; the last entry is
    /// the network output itself).
    pre: Vec<Matrix>,
    /// Per-hidden-layer layer-norm caches (empty when norms are disabled).
    ln: Vec<LayerNormCache>,
}

impl MlpCache {
    /// Creates an empty cache; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The network output of the last [`Mlp::forward_with`] pass.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run yet.
    pub fn output(&self) -> &Matrix {
        self.pre
            .last()
            .expect("no forward pass has filled this cache")
    }
}

impl Mlp {
    /// Allocates an MLP in `store` with the given layer widths, e.g.
    /// `&[in, h1, h2, out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng + ?Sized>(
        widths: &[usize],
        hidden_act: Activation,
        rng: &mut R,
        store: &mut ParamStoreBuilder,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let start = store.len();
        let layers: Vec<Linear> = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng, store))
            .collect();
        Self {
            layers,
            hidden_act,
            norms: None,
            span: ParamRange {
                offset: start,
                len: store.len() - start,
            },
        }
    }

    /// Like [`Mlp::new`] with layer normalization between every hidden
    /// linear and its activation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn with_layer_norm<R: Rng + ?Sized>(
        widths: &[usize],
        hidden_act: Activation,
        rng: &mut R,
        store: &mut ParamStoreBuilder,
    ) -> Self {
        let mut mlp = Self::new(widths, hidden_act, rng, store);
        mlp.norms = Some(
            widths[1..widths.len() - 1]
                .iter()
                .map(|&w| LayerNorm::new(w, store))
                .collect(),
        );
        mlp.span.len = store.len() - mlp.span.offset;
        mlp
    }

    /// Whether hidden layers are layer-normalized.
    pub fn has_layer_norm(&self) -> bool {
        self.norms.is_some()
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_dim)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// The layers, first to last.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The contiguous plane window covering every parameter of this network.
    pub fn range(&self) -> ParamRange {
        self.span
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.span.len
    }

    /// Forward pass returning the output and the cache for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward(&self, params: &[f32], x: &Matrix) -> (Matrix, MlpCache) {
        let mut cache = MlpCache::new();
        self.forward_with(params, x, &mut cache);
        (cache.output().clone(), cache)
    }

    /// Forward pass into a reusable cache; the output is at
    /// [`MlpCache::output`]. Allocation-free once the cache buffers have
    /// capacity (except on the optional layer-norm path, which still
    /// allocates its per-step statistics).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward_with(&self, params: &[f32], x: &Matrix, cache: &mut MlpCache) {
        let n = self.layers.len();
        cache.inputs.resize_with(n, || Matrix::zeros(0, 0));
        cache.pre.resize_with(n, || Matrix::zeros(0, 0));
        cache.ln.clear();
        cache.inputs[0].copy_from(x);
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward_into(params, &cache.inputs[i], &mut cache.pre[i]);
            if i + 1 < n {
                if let Some(norms) = &self.norms {
                    let (zn, ln_cache) = norms[i].forward(params, &cache.pre[i]);
                    cache.pre[i] = zn;
                    cache.ln.push(ln_cache);
                }
                self.hidden_act
                    .apply_matrix_into(&cache.pre[i], &mut cache.inputs[i + 1]);
            }
        }
    }

    /// Output without building a cache (inference path).
    pub fn infer(&self, params: &[f32], x: &Matrix) -> Matrix {
        let n = self.layers.len();
        let mut cur = x.clone();
        let mut next = Matrix::zeros(0, 0);
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward_into(params, &cur, &mut next);
            if i + 1 < n {
                if let Some(norms) = &self.norms {
                    next = norms[i].infer(params, &next);
                }
                self.hidden_act.apply_matrix_inplace(&mut next);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Backward pass. Returns the gradient with respect to the input;
    /// parameter gradients are written into this network's windows of
    /// `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the cached forward shapes.
    pub fn backward(
        &self,
        params: &[f32],
        cache: &MlpCache,
        d_out: &Matrix,
        grads: &mut [f32],
    ) -> Matrix {
        let mut dx = Matrix::zeros(0, 0);
        let mut scratch = Scratch::new();
        self.backward_with(params, cache, d_out, &mut dx, grads, &mut scratch);
        dx
    }

    /// Backward pass into caller-owned buffers: `dx` receives the input
    /// gradient, this network's windows of the gradient plane are
    /// overwritten, and intermediate layer gradients recycle through
    /// `scratch`. Allocation-free once every buffer is warm (layer-norm path
    /// excepted).
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the cached forward shapes or `grads`
    /// is shorter than this network's plane window.
    pub fn backward_with(
        &self,
        params: &[f32],
        cache: &MlpCache,
        d_out: &Matrix,
        dx: &mut Matrix,
        grads: &mut [f32],
        scratch: &mut Scratch,
    ) {
        self.backward_with_dx_cols(params, cache, d_out, dx, grads, scratch, 0..self.in_dim());
    }

    /// [`Mlp::backward_with`] computing the network-input gradient only for
    /// the input columns `dx_cols`. Parameter gradients are complete either
    /// way; only the first layer's `dy·Wᵀ` product is trimmed, which pays
    /// off when just a few input columns feed trainable parameters (the
    /// learned-feature columns of Pitot's towers).
    ///
    /// # Panics
    ///
    /// Panics as [`Mlp::backward_with`], or if the window exceeds the input
    /// width.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_with_dx_cols(
        &self,
        params: &[f32],
        cache: &MlpCache,
        d_out: &Matrix,
        dx: &mut Matrix,
        grads: &mut [f32],
        scratch: &mut Scratch,
        dx_cols: std::ops::Range<usize>,
    ) {
        let n = self.layers.len();
        let mut dy = scratch.take_matrix(d_out.rows(), d_out.cols());
        dy.copy_from(d_out);
        for i in (0..n).rev() {
            // The hidden activation sits *after* layer i for all but the last.
            if i + 1 < n {
                self.hidden_act
                    .backward_matrix_inplace(&cache.pre[i], &mut dy);
                if let Some(norms) = &self.norms {
                    let dz = norms[i].backward(params, &cache.ln[i], &dy, grads);
                    dy.copy_from(&dz);
                }
            }
            if i > 0 {
                let mut dx_i = scratch.take_matrix(dy.rows(), self.layers[i].in_dim());
                self.layers[i].backward_into(params, &cache.inputs[i], &dy, &mut dx_i, grads);
                scratch.recycle_matrix(std::mem::replace(&mut dy, dx_i));
            } else {
                self.layers[0].backward_into_dx_cols(
                    params,
                    &cache.inputs[0],
                    &dy,
                    dx,
                    grads,
                    dx_cols.clone(),
                );
            }
        }
        scratch.recycle_matrix(dy);
    }

    /// Scales the output layer's parameters by `factor`.
    ///
    /// Residual-style models (like Pitot, which predicts a correction to a
    /// scaling baseline) converge faster and avoid wild initial predictions
    /// when the towers start near zero output.
    pub fn scale_output_layer(&self, params: &mut [f32], factor: f32) {
        if let Some(last) = self.layers.last() {
            for v in &mut params[last.range().as_range()] {
                *v *= factor;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{GradPlane, ParamStore};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(widths: &[usize], act: Activation, seed: u64) -> (Mlp, ParamStore) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = ParamStoreBuilder::new();
        let mlp = Mlp::new(widths, act, &mut rng, &mut b);
        (mlp, b.finish())
    }

    #[test]
    fn shapes_and_param_count() {
        let (mlp, store) = build(&[5, 8, 3], Activation::Gelu, 0);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.param_count(), 5 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(store.len(), mlp.param_count());
        let (y, _) = mlp.forward(store.params(), &Matrix::zeros(2, 5));
        assert_eq!(y.shape(), (2, 3));
    }

    #[test]
    fn infer_matches_forward() {
        let (mlp, store) = build(&[4, 6, 2], Activation::Tanh, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let x = Matrix::randn(3, 4, &mut rng);
        let (y, _) = mlp.forward(store.params(), &x);
        assert_eq!(y, mlp.infer(store.params(), &x));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let (mlp, store) = build(&[3, 5, 4, 2], Activation::Gelu, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let x = Matrix::randn(6, 3, &mut rng);
        let loss = |params: &[f32], x: &Matrix| mlp.infer(params, x).sum();

        let (_, cache) = mlp.forward(store.params(), &x);
        let mut grads = GradPlane::zeros_like(&store);
        let dx = mlp.backward(
            store.params(),
            &cache,
            &Matrix::full(6, 2, 1.0),
            grads.as_mut_slice(),
        );

        let h = 1e-2f32;
        // Check a handful of plane offsets spread over every layer.
        let probes = [0usize, 7, 16, 20, 31, 40, store.len() - 1];
        for &k in &probes {
            let mut plus = store.clone();
            plus.params_mut()[k] += h;
            let mut minus = store.clone();
            minus.params_mut()[k] -= h;
            let num = (loss(plus.params(), &x) - loss(minus.params(), &x)) / (2.0 * h);
            let ana = grads.as_slice()[k];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "plane[{k}]: {num} vs {ana}"
            );
        }
        // Check input gradient.
        for &(r, c) in &[(0usize, 0usize), (5, 2)] {
            let mut xp = x.clone();
            xp[(r, c)] += h;
            let mut xm = x.clone();
            xm[(r, c)] -= h;
            let num = (loss(store.params(), &xp) - loss(store.params(), &xm)) / (2.0 * h);
            assert!(
                (num - dx[(r, c)]).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{r},{c}]"
            );
        }
    }

    #[test]
    fn layer_norm_variant_backward_matches_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut b = ParamStoreBuilder::new();
        let mlp = Mlp::with_layer_norm(&[3, 6, 5, 2], Activation::Gelu, &mut rng, &mut b);
        let store = b.finish();
        assert!(mlp.has_layer_norm());
        assert_eq!(store.len(), mlp.param_count());
        let x = Matrix::randn(5, 3, &mut rng);
        let wts = Matrix::randn(5, 2, &mut rng);
        let loss = |params: &[f32], x: &Matrix| -> f32 {
            mlp.infer(params, x)
                .as_slice()
                .iter()
                .zip(wts.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };

        let (_, cache) = mlp.forward(store.params(), &x);
        let mut grads = GradPlane::zeros_like(&store);
        let dx = mlp.backward(store.params(), &cache, &wts, grads.as_mut_slice());

        // Directional derivative over the whole plane (incl. γ/β).
        let h = 1e-2f32;
        let mut plus = store.clone();
        let mut minus = store.clone();
        let mut analytic = 0.0f64;
        {
            let mut dir_rng = ChaCha8Rng::seed_from_u64(11);
            let p = plus.params_mut();
            let m = minus.params_mut();
            for (k, g) in grads.as_slice().iter().enumerate() {
                let dir: f32 = if rand::Rng::gen_bool(&mut dir_rng, 0.5) {
                    1.0
                } else {
                    -1.0
                };
                p[k] += h * dir;
                m[k] -= h * dir;
                analytic += (g * dir) as f64;
            }
        }
        let numeric = ((loss(plus.params(), &x) - loss(minus.params(), &x)) / (2.0 * h)) as f64;
        let denom = 1.0f64.max(analytic.abs()).max(numeric.abs());
        assert!(
            (analytic - numeric).abs() / denom < 5e-2,
            "directional derivative mismatch: analytic {analytic}, numeric {numeric}"
        );

        // Input gradient as well.
        for &(r, c) in &[(0usize, 0usize), (4, 2)] {
            let mut xp = x.clone();
            xp[(r, c)] += h;
            let mut xm = x.clone();
            xm[(r, c)] -= h;
            let num = (loss(store.params(), &xp) - loss(store.params(), &xm)) / (2.0 * h);
            assert!(
                (num - dx[(r, c)]).abs() < 3e-2 * (1.0 + num.abs()),
                "dx[{r},{c}]: {num} vs {}",
                dx[(r, c)]
            );
        }
    }

    #[test]
    fn layer_norm_widens_the_plane_window() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut b = ParamStoreBuilder::new();
        let mlp = Mlp::with_layer_norm(&[4, 6, 3], Activation::Gelu, &mut rng, &mut b);
        let store = b.finish();
        // Param count includes γ/β for the one hidden layer.
        assert_eq!(mlp.param_count(), 4 * 6 + 6 + 6 * 3 + 3 + 2 * 6);
        assert_eq!(mlp.range().len, store.len());
    }

    #[test]
    fn checkpoints_without_norms_field_deserialize() {
        // Forward compatibility: descriptor JSON from before the layer-norm
        // extension has no `norms` key and must load as a norm-free MLP.
        let (mlp, store) = build(&[3, 4, 2], Activation::Gelu, 9);
        let mut json: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&mlp).unwrap()).unwrap();
        json.as_object_mut().unwrap().remove("norms");
        let restored: Mlp = serde_json::from_value(json).unwrap();
        assert!(!restored.has_layer_norm());
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let x = Matrix::randn(2, 3, &mut rng);
        assert_eq!(
            mlp.infer(store.params(), &x),
            restored.infer(store.params(), &x)
        );
    }

    #[test]
    fn output_layer_scaling_shrinks_outputs() {
        let (mlp, mut store) = build(&[4, 8, 3], Activation::Gelu, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let x = Matrix::randn(10, 4, &mut rng);
        let before = mlp.infer(store.params(), &x).frobenius_norm();
        mlp.scale_output_layer(store.params_mut(), 0.1);
        let after = mlp.infer(store.params(), &x).frobenius_norm();
        assert!(
            (after - before * 0.1).abs() < 1e-4 * before,
            "{before} → {after}"
        );
    }

    #[test]
    fn two_networks_share_one_plane() {
        // The defining property of the flat plane: several networks live in
        // one store, their windows are disjoint, and gradients land in the
        // matching windows.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut b = ParamStoreBuilder::new();
        let first = Mlp::new(&[3, 4, 2], Activation::Relu, &mut rng, &mut b);
        let second = Mlp::new(&[2, 5, 1], Activation::Gelu, &mut rng, &mut b);
        let store = b.finish();
        assert_eq!(first.range().offset, 0);
        assert_eq!(second.range().offset, first.range().len);
        assert_eq!(store.len(), first.param_count() + second.param_count());

        let x = Matrix::randn(4, 3, &mut rng);
        let (y, cache) = first.forward(store.params(), &x);
        let mut grads = GradPlane::zeros_like(&store);
        first.backward(
            store.params(),
            &cache,
            &Matrix::full(4, 2, 1.0),
            grads.as_mut_slice(),
        );
        // First network's window is written, second's stays zero.
        assert!(grads.slice(first.range()).iter().any(|&g| g != 0.0));
        assert!(grads.slice(second.range()).iter().all(|&g| g == 0.0));
        assert_eq!(y.shape(), (4, 2));
    }
}
