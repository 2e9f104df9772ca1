//! Property tests pinning the blocked/parallel kernels to the naive
//! reference oracle in `pitot_linalg::reference`.
//!
//! Shapes are drawn from ranges that include every degenerate class the
//! kernels special-case: empty (`0×n`, `m×0`, shared dimension 0), `1×1`,
//! tall-skinny, and short-wide. The tolerance is relative at `1e-4`, loose
//! enough for f32 re-association headroom even though today's kernels are
//! bitwise order-preserving.

use pitot_linalg::{reference, MatRef, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn assert_close(got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "shape mismatch");
    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
        assert!(
            (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
            "kernel {x} vs reference {y}"
        );
    }
}

proptest! {
    #[test]
    fn matmul_matches_reference(
        m in 0usize..12, k in 0usize..40, n in 0usize..20, seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Matrix::randn(m, k, &mut rng);
        let b = Matrix::randn(k, n, &mut rng);
        // Start from a dirty, wrongly-shaped buffer: `_into` must fully
        // overwrite and reshape it.
        let mut out = Matrix::full(3, 3, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_close(&out, &reference::matmul(&a, &b));
        assert_close(&a.matmul(&b), &reference::matmul(&a, &b));
    }

    #[test]
    fn matmul_transpose_matches_reference(
        m in 0usize..12, k in 0usize..40, n in 0usize..20, seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Matrix::randn(m, k, &mut rng);
        let b = Matrix::randn(n, k, &mut rng);
        let mut out = Matrix::full(2, 5, f32::NAN);
        a.matmul_transpose_into(&b, &mut out);
        assert_close(&out, &reference::matmul_transpose(&a, &b));
    }

    #[test]
    fn transpose_matmul_matches_reference(
        m in 0usize..12, k in 0usize..40, n in 0usize..20, seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Matrix::randn(k, m, &mut rng);
        let b = Matrix::randn(k, n, &mut rng);
        let mut out = Matrix::full(1, 1, f32::NAN);
        a.transpose_matmul_into(&b, &mut out);
        assert_close(&out, &reference::transpose_matmul(&a, &b));
    }

    #[test]
    fn tall_and_wide_shapes_cross_the_blocking_factors(
        tall in 200usize..600, thin in 1usize..4, seed in 0u64..100,
    ) {
        // Exercise shared dimensions beyond KC = 256 and row counts beyond
        // any parallel grain, in both orientations.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Matrix::randn(tall, thin, &mut rng);
        let b = Matrix::randn(thin, tall.min(64), &mut rng);
        assert_close(&a.matmul(&b), &reference::matmul(&a, &b));

        let c = Matrix::randn(thin, tall, &mut rng);
        let d = Matrix::randn(tall, thin + 2, &mut rng);
        // Shared dimension `tall` > KC tiles across k-blocks.
        assert_close(&c.matmul(&d), &reference::matmul(&c, &d));
        let ct = Matrix::randn(tall, thin, &mut rng);
        assert_close(
            &ct.transpose_matmul(&d),
            &reference::transpose_matmul(&ct, &d),
        );
        let e = Matrix::randn(thin + 1, tall, &mut rng);
        let f = Matrix::randn(thin + 3, tall, &mut rng);
        assert_close(
            &e.matmul_transpose(&f),
            &reference::matmul_transpose(&e, &f),
        );
    }

    #[test]
    fn one_by_one_is_scalar_multiplication(x in -10.0f32..10.0, y in -10.0f32..10.0) {
        let a = Matrix::full(1, 1, x);
        let b = Matrix::full(1, 1, y);
        for product in [a.matmul(&b), a.matmul_transpose(&b), a.transpose_matmul(&b)] {
            prop_assert!((product[(0, 0)] - x * y).abs() <= 1e-5 * (1.0 + (x * y).abs()));
        }
    }

    /// The view entry points (flat-plane windows) are the same kernels as
    /// the `Matrix` entry points — bitwise, not approximately.
    #[test]
    fn view_kernels_are_bitwise_identical_to_matrix_kernels(
        m in 1usize..10, k in 1usize..24, n in 1usize..12, seed in 0u64..5_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Matrix::randn(m, k, &mut rng);
        let b = Matrix::randn(k, n, &mut rng);
        let mut via_matrix = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut via_matrix);
        let mut via_view = Matrix::zeros(0, 0);
        pitot_linalg::kernels::matmul_view_into(
            MatRef::new(a.as_slice(), m, k),
            MatRef::new(b.as_slice(), k, n),
            &mut via_view,
        );
        prop_assert_eq!(via_matrix.as_slice(), via_view.as_slice());

        let at = Matrix::randn(k, m, &mut rng);
        let mut grads = vec![f32::NAN; m * n];
        pitot_linalg::kernels::transpose_matmul_buf(at.view(), b.view(), &mut grads);
        let mut want = Matrix::zeros(0, 0);
        at.transpose_matmul_into(&b, &mut want);
        prop_assert_eq!(want.as_slice(), &grads[..]);
    }

    /// The fused (possibly SIMD) AdaMax kernel tracks the scalar oracle
    /// over multiple consecutive steps, including the moment state.
    #[test]
    fn fused_adamax_matches_scalar_reference(
        len in 1usize..200, steps in 1usize..6, seed in 0u64..5_000, lr in 1e-4f32..0.1,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let init = Matrix::randn(1, len, &mut rng);
        let (mut p_f, mut m_f, mut u_f) =
            (init.as_slice().to_vec(), vec![0.0f32; len], vec![0.0f32; len]);
        let (mut p_r, mut m_r, mut u_r) = (p_f.clone(), m_f.clone(), u_f.clone());
        for t in 1..=steps {
            let g = Matrix::randn(1, len, &mut rng);
            let lr_t = lr / (1.0 - 0.9f32.powi(t as i32));
            pitot_linalg::adamax_update(
                &mut p_f, g.as_slice(), &mut m_f, &mut u_f, lr_t, 0.9, 0.999, 1e-8,
            );
            reference::adamax_update(
                &mut p_r, g.as_slice(), &mut m_r, &mut u_r, lr_t, 0.9, 0.999, 1e-8,
            );
        }
        for ((pf, pr), (uf, ur)) in p_f.iter().zip(&p_r).zip(u_f.iter().zip(&u_r)) {
            prop_assert!(
                (pf - pr).abs() <= 1e-5 * (1.0 + pf.abs().max(pr.abs())),
                "param {} vs reference {}", pf, pr
            );
            prop_assert!(*uf >= 0.0 && (uf - ur).abs() <= 1e-5 * (1.0 + ur.abs()));
        }
    }

    /// AdaMax steps are bounded by lr_t regardless of gradient scale — the
    /// defining property of the infinity-norm moment.
    #[test]
    fn fused_adamax_step_is_bounded(
        len in 1usize..64, scale in 1.0f32..1e6, seed in 0u64..2_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut p = vec![0.0f32; len];
        let (mut m, mut u) = (vec![0.0f32; len], vec![0.0f32; len]);
        let mut g = Matrix::randn(1, len, &mut rng).into_vec();
        for v in &mut g {
            *v *= scale;
        }
        let lr_t = 0.001 / (1.0 - 0.9f32);
        pitot_linalg::adamax_update(&mut p, &g, &mut m, &mut u, lr_t, 0.9, 0.999, 1e-8);
        for v in &p {
            prop_assert!(v.abs() <= lr_t * 1.001, "step {} exceeds bound {}", v, lr_t);
        }
    }

    /// The vectorized GELU maps track the scalar polynomial to float
    /// precision, and chunk-aligned parallelism keeps them bitwise stable
    /// for any buffer length (vector body + scalar tail).
    #[test]
    fn gelu_maps_match_scalar_reference(len in 0usize..200, seed in 0u64..2_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pre = {
            let mut v = Matrix::randn(1, len, &mut rng).into_vec();
            for x in &mut v {
                *x *= 3.0;
            }
            v
        };
        let mut fwd = pre.clone();
        pitot_linalg::kernels::gelu_map(&mut fwd);
        for (&y, &x) in fwd.iter().zip(&pre) {
            let want = pitot_linalg::kernels::gelu_f32(x);
            prop_assert!((y - want).abs() <= 1e-5 * (1.0 + want.abs()), "gelu({x}): {y} vs {want}");
        }

        let dy0 = Matrix::randn(1, len, &mut rng).into_vec();
        let mut dy = dy0.clone();
        pitot_linalg::kernels::gelu_backward_map(&pre, &mut dy);
        for ((&g, &g0), &x) in dy.iter().zip(&dy0).zip(&pre) {
            let want = g0 * pitot_linalg::kernels::gelu_grad_f32(x);
            // Saturated inputs cancel to gradients near zero through
            // (1 − tanh²)·x, where the fused-vs-unfused tanh difference is
            // amplified by |x|; 2e-4 still flags any real polynomial defect
            // (a wrong coefficient shifts results by ≥1e-2).
            prop_assert!((g - want).abs() <= 2e-4 * (1.0 + want.abs()), "gelu'({x})");
        }
    }

    /// The fused gradient fan-out kernel is bitwise identical to the two
    /// `axpy_slice` calls it replaced (its FMA body mirrors theirs lane for
    /// lane), and tracks the scalar reference to float precision.
    #[test]
    fn axpy_fanout_is_bitwise_identical_to_two_axpys(
        len in 0usize..200, alpha in -3.0f32..3.0, seed in 0u64..5_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let src = Matrix::randn(1, len, &mut rng).into_vec();
        let x = Matrix::randn(1, len, &mut rng).into_vec();
        let sum0 = Matrix::randn(1, len, &mut rng).into_vec();
        let dst0 = Matrix::randn(1, len, &mut rng).into_vec();

        let (mut sum_f, mut dst_f) = (sum0.clone(), dst0.clone());
        pitot_linalg::axpy_fanout(&mut sum_f, &src, alpha, &x, &mut dst_f);

        let (mut sum_a, mut dst_a) = (sum0.clone(), dst0.clone());
        pitot_linalg::axpy_slice(1.0, &src, &mut sum_a);
        pitot_linalg::axpy_slice(alpha, &x, &mut dst_a);
        prop_assert_eq!(&sum_f, &sum_a);
        prop_assert_eq!(&dst_f, &dst_a);

        let (mut sum_r, mut dst_r) = (sum0, dst0);
        reference::axpy_fanout(&mut sum_r, &src, alpha, &x, &mut dst_r);
        for (got, want) in sum_f.iter().zip(&sum_r).chain(dst_f.iter().zip(&dst_r)) {
            prop_assert!(
                (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                "fanout {} vs reference {}", got, want
            );
        }
    }

    #[test]
    fn scale_add_matches_scalar(
        len in 0usize..128, beta in -2.0f32..2.0, alpha in -2.0f32..2.0, seed in 0u64..2_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Matrix::randn(1, len, &mut rng).into_vec();
        let y0 = Matrix::randn(1, len, &mut rng).into_vec();
        let mut y = y0.clone();
        pitot_linalg::scale_add(&mut y, beta, &x, alpha);
        for i in 0..len {
            let want = beta * y0[i] + alpha * x[i];
            prop_assert!((y[i] - want).abs() <= 1e-5 * (1.0 + want.abs()));
        }
    }
}

#[test]
fn empty_shapes_produce_empty_or_zero_outputs() {
    // 0×n · n×p = 0×p.
    let a = Matrix::zeros(0, 4);
    let b = Matrix::zeros(4, 3);
    assert_eq!(a.matmul(&b).shape(), (0, 3));
    // m×0 · 0×p is a defined all-zero product.
    let a = Matrix::zeros(2, 0);
    let b = Matrix::zeros(0, 3);
    assert_eq!(a.matmul(&b), Matrix::zeros(2, 3));
    assert_eq!(b.transpose_matmul(&b), Matrix::zeros(3, 3));
    let c = Matrix::zeros(5, 0);
    assert_eq!(a.matmul_transpose(&c), Matrix::zeros(2, 5));
}
