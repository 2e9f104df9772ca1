//! Dense single-precision linear algebra for the Pitot reproduction.
//!
//! This crate provides the minimal numerical substrate used throughout the
//! workspace: a row-major [`Matrix`] type with the handful of kernels a
//! manually-differentiated two-tower model needs (`A·B`, `A·Bᵀ`, `Aᵀ·B`,
//! elementwise maps, row/column reductions) plus random-fill helpers.
//!
//! The kernel layer ([`kernels`]) provides cache-blocked, row-parallel
//! products with `*_into` variants that write into caller-owned buffers;
//! [`Scratch`] recycles those buffers so steady-state training loops run
//! allocation-free (verified via [`alloc_count`]). Parallelism comes from a
//! tiny hand-rolled pool ([`par`]) sized by the `PITOT_THREADS` environment
//! variable; results are bitwise identical across thread counts. The
//! [`mod@reference`] module keeps the naive triple loops as the oracle the
//! blocked kernels are property-tested against.
//!
//! # Examples
//!
//! ```
//! use pitot_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//!
//! // Allocation-free form for hot loops:
//! let mut out = Matrix::zeros(2, 2);
//! a.matmul_into(&b, &mut out);
//! assert_eq!(out, a);
//! ```

// Every public item in this crate is part of the documented kernel-layer
// API; keep it that way (CI builds rustdoc with `-D warnings`).
#![deny(missing_docs)]

pub mod alloc_count;
// The kernel layer and its thread pool are this crate's only sanctioned
// `unsafe`: lending disjoint output-row windows to pool workers. Everything
// else in the crate stays under the workspace-wide `unsafe_code = "deny"`.
#[allow(unsafe_code)]
pub mod kernels;
mod matrix;
mod ops;
#[allow(unsafe_code)]
pub mod par;
pub mod reference;
mod scratch;
mod solve;
mod stats;

pub use kernels::{adamax_update, axpy_fanout, scale_add};
pub use matrix::{fill_randn, MatRef, Matrix};
pub use ops::{axpy_slice, dot};
pub use scratch::Scratch;
pub use solve::{cholesky, solve_spd, solve_spd_multi};
pub use stats::{
    mean, percentile, quantile_higher, quantile_higher_rank, quantile_higher_sorted,
    stderr_of_mean, variance,
};
