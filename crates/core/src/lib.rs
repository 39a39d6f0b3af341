//! # sqlarray-core
//!
//! A multidimensional array data type for relational databases, after
//! *"Array Requirements for Scientific Applications and an Implementation
//! for Microsoft SQL Server"* (Dobos et al., EDBT 2011).
//!
//! Arrays are self-describing binary blobs: a compact header (storage
//! class, element type, rank, element count, dimension sizes) followed by
//! the elements in **column-major** order, ready to hand to FORTRAN-layout
//! math libraries without re-marshaling. Two storage classes mirror the
//! 8 kB-page reality of the host database:
//!
//! * **short** — total blob ≤ 8000 bytes, rank ≤ 6, `i16` dimensions;
//!   stored in-row and manipulable with plain memory copies;
//! * **max** — unlimited rank, `i32` dimensions; stored out-of-page and
//!   accessed through a stream interface that supports *partial reads*
//!   ([`stream::ArrayReader`]), so subsetting never fetches the full blob.
//!
//! ## Quick start
//!
//! ```
//! use sqlarray_core::{ops, prelude::*};
//!
//! // DECLARE @a = FloatArray.Vector_5(1,2,3,4,5)
//! let a = build::short_vector(&[1.0f64, 2.0, 3.0, 4.0, 5.0])?;
//! // SELECT FloatArray.Item_1(@a, 3)
//! assert_eq!(a.item(&[3])?, Scalar::F64(4.0));
//!
//! // Subarray with squeeze, reshape, aggregate:
//! let m = ops::reshape::reshape(&a, &[5, 1])?;
//! let col = ops::subarray::subarray(&m, &[1, 0], &[3, 1], true)?;
//! assert_eq!(col.dims(), &[3]);
//! assert_eq!(ops::agg::sum(&col)?, Scalar::F64(9.0));
//! # Ok::<(), sqlarray_core::ArrayError>(())
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod batch;
pub mod build;
pub mod complex;
pub mod element;
pub mod env;
pub mod errors;
pub mod exact;
pub mod fault;
pub mod fmt;
pub mod header;
pub mod le;
pub mod lifecycle;
pub mod ops;
pub mod parallel;
pub mod rng;
pub mod scalar;
pub mod shape;
pub mod stream;
pub mod sync;

pub use array::{ArrayData, ArrayView, SqlArray};
pub use complex::{Complex32, Complex64};
pub use element::{Element, ElementType};
pub use errors::{ArrayError, Result};
pub use exact::ExactSum;
pub use header::{Header, StorageClass, SHORT_MAX_BYTES};
pub use lifecycle::{Interrupt, QueryCtx};
pub use scalar::Scalar;

/// Everything most callers need, in one import.
pub mod prelude {
    pub use crate::array::SqlArray;
    pub use crate::build;
    pub use crate::element::ElementType;
    pub use crate::errors::Result;
    pub use crate::header::StorageClass;
    pub use crate::scalar::Scalar;
    pub use crate::stream::ArrayReader;
}
