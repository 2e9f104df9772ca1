//! Naive reference kernels: the oracle the blocked kernels are tested
//! against, and the "before" side of the kernel benchmarks.
//!
//! These are deliberately the simplest possible triple loops — no blocking,
//! no unrolling, no parallelism — so their correctness is inspectable at a
//! glance. They allocate their outputs and are O(m·k·n) with poor cache
//! behaviour; never call them from production paths.

use crate::Matrix;

/// `a · b` by the textbook i-j-k triple loop.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "reference matmul shape mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for p in 0..k {
                s += a[(i, p)] * b[(p, j)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

/// `a · bᵀ` by the textbook triple loop.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "reference matmul_transpose shape");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for p in 0..k {
                s += a[(i, p)] * b[(j, p)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

/// Scalar AdaMax update, element by element — the oracle for the fused
/// [`crate::adamax_update`] kernel. Same recurrences, no fusion, no SIMD.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
#[allow(clippy::too_many_arguments)]
pub fn adamax_update(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    u: &mut [f32],
    lr_t: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
) {
    assert_eq!(p.len(), g.len(), "reference adamax length mismatch");
    assert_eq!(p.len(), m.len(), "reference adamax length mismatch");
    assert_eq!(p.len(), u.len(), "reference adamax length mismatch");
    for i in 0..p.len() {
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
        u[i] = (beta2 * u[i]).max(g[i].abs());
        p[i] -= lr_t * m[i] / (u[i] + eps);
    }
}

/// Scalar fused fan-out oracle: `sum += src` and `dst += alpha·x`,
/// element by element — the oracle for [`crate::axpy_fanout`].
///
/// # Panics
///
/// Panics if the pair lengths disagree.
pub fn axpy_fanout(sum: &mut [f32], src: &[f32], alpha: f32, x: &[f32], dst: &mut [f32]) {
    assert_eq!(sum.len(), src.len(), "reference fanout length mismatch");
    assert_eq!(dst.len(), x.len(), "reference fanout length mismatch");
    for (s, &v) in sum.iter_mut().zip(src) {
        *s += v;
    }
    for (d, &v) in dst.iter_mut().zip(x) {
        *d += alpha * v;
    }
}

/// `aᵀ · b` by the textbook triple loop.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "reference transpose_matmul shape");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for p in 0..k {
                s += a[(p, i)] * b[(p, j)];
            }
            out[(i, j)] = s;
        }
    }
    out
}
