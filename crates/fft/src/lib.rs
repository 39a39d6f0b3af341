//! # sqlarray-fft
//!
//! Discrete Fourier transforms standing in for FFTW (Dobos et al., EDBT
//! 2011, §3.6/§5.3): planned complex transforms (radix-2 Cooley–Tukey for
//! powers of two, Bluestein for everything else), real-input helpers, and
//! n-dimensional transforms over the array library's column-major layout.
//!
//! Plans own their twiddle tables and a reusable scratch buffer that
//! models FFTW's aligned-allocation requirement: executing through
//! [`plan::Plan::execute`] pays the copy the paper describes, while
//! [`plan::Plan::execute_inplace`] is the raw kernel. Every transform
//! runs on the thread that calls it; inside a query the scan is the
//! parallel unit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bluestein;
pub mod ndim;
pub mod plan;
pub mod radix2;
pub mod real;

pub use ndim::{fftn, ifftn_normalized};
pub use plan::{fft, ifft, Direction, Plan};
pub use real::{irfft, rfft};
