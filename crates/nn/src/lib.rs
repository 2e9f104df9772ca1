//! Neural-network building blocks for the Pitot reproduction.
//!
//! Pitot's two-tower model (paper Sec 3.3) is small enough — two MLPs with two
//! 128-unit hidden layers — that a full autodiff engine would be overkill.
//! This crate instead provides *manually differentiated* layers whose
//! backward passes are verified against finite differences in the test suite:
//!
//! - [`ParamStore`]: the **flat parameter plane** — every trainable scalar
//!   of a model in one contiguous buffer, with a matching [`GradPlane`] and
//!   contiguous AdaMax moment planes,
//! - [`Linear`]: dense layer viewing windows of the plane,
//! - [`Activation`]: GELU / leaky-ReLU / ReLU / tanh / identity,
//! - [`Mlp`]: a stack of linears with hidden activations,
//! - [`AdaMax`]: the l∞ Adam variant the paper trains with (App B.3), fused
//!   into a single SIMD pass over the planes,
//! - loss functions: squared error and the pinball (quantile) loss of Eq 13,
//! - [`grad_check`]: finite-difference gradient checking used across the
//!   workspace's tests.
//!
//! # Examples
//!
//! ```
//! use pitot_linalg::Matrix;
//! use pitot_nn::{Activation, AdaMax, GradPlane, Mlp, ParamStoreBuilder};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut builder = ParamStoreBuilder::new();
//! let mlp = Mlp::new(&[4, 16, 2], Activation::Gelu, &mut rng, &mut builder);
//! let mut store = builder.finish();
//! let x = Matrix::randn(8, 4, &mut rng);
//! let (y, cache) = mlp.forward(store.params(), &x);
//! assert_eq!(y.shape(), (8, 2));
//! // Backprop a dummy gradient and take one fused optimizer step over the
//! // whole plane.
//! let mut grads = GradPlane::zeros_like(&store);
//! mlp.backward(store.params(), &cache, &Matrix::full(8, 2, 1.0), grads.as_mut_slice());
//! let mut opt = AdaMax::new(1e-3);
//! opt.step(&mut [store.params_mut()], &[grads.as_slice()]);
//! ```

// Every public item in this crate is part of the documented layer/optimizer
// API; keep it that way (CI builds rustdoc with `-D warnings`).
#![deny(missing_docs)]

mod activation;
mod dropout;
mod grad_check;
mod layernorm;
mod linear;
mod loss;
mod mlp;
mod optim;
mod schedule;
mod store;

pub use activation::Activation;
pub use dropout::{Dropout, DropoutMask};
pub use grad_check::{grad_check, numerical_grad};
pub use layernorm::{LayerNorm, LayerNormCache};
pub use linear::Linear;
pub use loss::{
    pinball_loss, pinball_loss_into, squared_loss, squared_loss_into, weighted_pinball_loss,
    weighted_squared_loss,
};
pub use mlp::{Mlp, MlpCache};
pub use optim::{AdaMax, Adam, Optimizer, SgdMomentum};
pub use schedule::LrSchedule;
pub use store::{GradPlane, ParamRange, ParamStore, ParamStoreBuilder};
