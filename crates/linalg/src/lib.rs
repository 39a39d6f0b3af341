//! # sqlarray-linalg
//!
//! Dense linear algebra standing in for the LAPACK routines the array
//! library binds (Dobos et al., EDBT 2011, §3.6): the `*gesvd` SVD driver,
//! plus the least-squares machinery the astronomy use case requires
//! (masked least squares, non-negative least squares, PCA — §2.2).
//!
//! Matrices are **column-major** ([`matrix::Matrix`]), matching the array
//! blob payload layout, so an `m × n` `float64` array's payload can be
//! wrapped into a matrix without copying or transposing — the zero-copy
//! interop claim of §5.3.
//!
//! Every kernel runs on the thread that calls it — inside a query, the
//! scan worker evaluating the row (the scan is the parallel unit) — and
//! never starts threads of its own. [`blas::gemm`] is cache-blocked and
//! bit-identical to the naive product; see [`blas`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blas;
pub mod eigen;
pub mod lstsq;
pub mod matrix;
pub mod nnls;
pub mod pca;
pub mod qr;
pub mod svd;

pub use eigen::eigh;
pub use lstsq::{lstsq_svd, lstsq_weighted};
pub use matrix::Matrix;
pub use nnls::nnls;
pub use pca::Pca;
pub use qr::qr;
pub use svd::gesvd;
