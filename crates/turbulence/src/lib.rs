//! # sqlarray-turbulence
//!
//! The turbulence-database workload of Dobos et al. (EDBT 2011, §2.1):
//! a periodic, divergence-free synthetic velocity field ([`field`]) is
//! partitioned along a z-order curve into `(block + 2·ghost)³` blobs of
//! `(vx, vy, vz, p)` records ([`partition`]), stored as max-class array
//! blobs in a Morton-clustered table, and served through a particle-query
//! service ([`service`]) offering nearest, PCHIP and 4/6/8-point Lagrange
//! interpolation ([`interp`]) with either streamed-stencil or whole-blob
//! fetching — the I/O trade-off experiment E4 measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod interp;
pub mod partition;
pub mod service;

pub use field::SyntheticField;
pub use interp::Scheme;
pub use partition::PartitionSpec;
pub use service::{FetchMode, TurbulenceDb};
