//! Dense `f32` tensors and the numeric kernels used throughout the Echo
//! reproduction.
//!
//! This crate is the *numeric plane* of the system: every value the graph
//! executor computes — activations, gradients, weights — is an
//! [`Tensor`]. The crate deliberately mirrors the small operator zoo an
//! LSTM-RNN training stack needs (GEMM, element-wise maps, reductions,
//! softmax, embedding gather/scatter) rather than trying to be a general
//! array library.
//!
//! # Layout
//!
//! Tensors are always stored contiguously. A [`Tensor`]'s logical layout is
//! row-major over its [`Shape`]; the *data layout optimization* the paper
//! studies (row-major `Y = XWᵀ` vs. column-major `Yᵀ = WXᵀ`) is expressed by
//! the explicit GEMM entry points in [`mod@gemm`] together with the
//! [`MatrixLayout`] type, so a benchmark can run the exact same mathematical
//! product under both layouts.
//!
//! # Example
//!
//! ```
//! use echo_tensor::{Tensor, Shape};
//!
//! let x = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.])?;
//! let y = x.map(|v| v * 2.0);
//! assert_eq!(y.get(&[1, 2])?, 12.0);
//! # Ok::<(), echo_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod gemm;
pub mod gemm_packed;
pub mod init;
pub mod kernels;
pub mod layout;
pub mod matrix;
pub mod policy;
pub mod pool;
pub mod reduce;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use gemm::{gemm, Transpose};
pub use gemm_packed::{
    active_micro_kernel, available_micro_kernels, gemm_packed, gemm_packed_parallel,
    gemm_packed_parallel_with, set_micro_kernel, MicroKernel,
};
pub use layout::MatrixLayout;
pub use matrix::{MatView, MatViewMut};
pub use policy::{
    dispatch_gemm, matmul_policy, set_matmul_policy, AutotuneOutcome, MatmulBackend, MatmulPolicy,
};
pub use pool::WorkerPool;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, TensorError>;
