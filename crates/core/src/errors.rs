//! Error type shared by all array operations.

use crate::element::ElementType;
use std::fmt;

/// Errors produced by constructing, decoding or manipulating array blobs.
///
/// The original library surfaced these as SQL errors raised from the CLR
/// functions; here they are a plain Rust error enum so that callers (the
/// query engine, the science crates, user code) can match on the cause.
#[derive(Debug, Clone, PartialEq)]
#[allow(
    missing_docs,
    reason = "variant payload fields (`got`, `need`, ...) are self-describing"
)]
pub enum ArrayError {
    /// The buffer is smaller than the fixed part of the header.
    HeaderTooShort { got: usize, need: usize },
    /// The leading flag byte does not describe a known storage class/version.
    BadFlags(u8),
    /// The element-type code in the header is not one of the supported types.
    UnknownElementType(u8),
    /// The blob was passed to a function expecting a different element type.
    ///
    /// Mirrors the paper's runtime type-mismatch detection ("we can detect
    /// type mismatches at runtime when the blobs are passed to the wrong
    /// functions").
    TypeMismatch {
        expected: ElementType,
        got: ElementType,
    },
    /// The blob was passed to a function expecting the other storage class.
    StorageClassMismatch { expected_short: bool },
    /// Rank (number of dimensions) is invalid for the storage class.
    ///
    /// Short arrays support at most `crate::header::SHORT_MAX_RANK`
    /// dimensions; zero-dimensional arrays are rejected everywhere.
    BadRank { rank: usize, max: usize },
    /// A dimension size does not fit the index type of the storage class
    /// (`i16` for short arrays, `i32` for max arrays) or is zero.
    BadDimension { dim: usize, size: usize },
    /// The product of the dimensions does not match the element count stored
    /// in the header, or overflows.
    CountMismatch { dims_product: usize, count: usize },
    /// The payload length in bytes disagrees with `count * elem_size`.
    PayloadSizeMismatch { got: usize, need: usize },
    /// A short array would exceed the on-page byte budget (8000 bytes).
    ShortTooLarge { bytes: usize, limit: usize },
    /// An index tuple has the wrong arity for the array rank.
    IndexRankMismatch { got: usize, rank: usize },
    /// An index is out of bounds for its dimension.
    IndexOutOfBounds {
        axis: usize,
        index: usize,
        size: usize,
    },
    /// A subarray request (offset + size) exceeds the array bounds.
    SubarrayOutOfBounds {
        axis: usize,
        offset: usize,
        size: usize,
        dim: usize,
    },
    /// Reshape target has a different total element count.
    ///
    /// The paper's `Reshape` keeps the size fixed: "original and target
    /// sizes must not differ".
    ReshapeCountMismatch { from: usize, to: usize },
    /// Elementwise operation on arrays of different shapes.
    ShapeMismatch { left: Vec<usize>, right: Vec<usize> },
    /// A numeric conversion is not representable (e.g. complex → real with a
    /// non-zero imaginary part).
    BadConversion { from: ElementType, to: ElementType },
    /// Failure parsing an array from its string form.
    Parse(String),
    /// An aggregate that requires at least one element saw an empty array,
    /// or an axis argument was invalid.
    BadAxis { axis: usize, rank: usize },
    /// Underlying storage failed to deliver bytes (wraps the message of the
    /// storage-engine error to avoid a dependency cycle).
    Io(String),
    /// Raw payload handed to `Cast` has a length that is not a multiple of
    /// the element size.
    RawSizeNotAligned { len: usize, elem_size: usize },
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::HeaderTooShort { got, need } => {
                write!(f, "array header too short: {got} bytes, need {need}")
            }
            ArrayError::BadFlags(b) => write!(f, "unrecognized array flag byte 0x{b:02x}"),
            ArrayError::UnknownElementType(c) => {
                write!(f, "unknown element type code 0x{c:02x}")
            }
            ArrayError::TypeMismatch { expected, got } => {
                write!(f, "element type mismatch: expected {expected}, got {got}")
            }
            ArrayError::StorageClassMismatch { expected_short } => {
                if *expected_short {
                    write!(f, "expected a short (in-page) array, got a max array")
                } else {
                    write!(f, "expected a max (out-of-page) array, got a short array")
                }
            }
            ArrayError::BadRank { rank, max } => {
                write!(f, "invalid rank {rank} (must be between 1 and {max})")
            }
            ArrayError::BadDimension { dim, size } => {
                write!(f, "dimension {dim} has invalid size {size}")
            }
            ArrayError::CountMismatch {
                dims_product,
                count,
            } => write!(
                f,
                "dimension product {dims_product} does not match element count {count}"
            ),
            ArrayError::PayloadSizeMismatch { got, need } => {
                write!(f, "payload is {got} bytes but {need} are required")
            }
            ArrayError::ShortTooLarge { bytes, limit } => write!(
                f,
                "short array needs {bytes} bytes, above the in-page limit of {limit}"
            ),
            ArrayError::IndexRankMismatch { got, rank } => {
                write!(
                    f,
                    "index has {got} components but the array has rank {rank}"
                )
            }
            ArrayError::IndexOutOfBounds { axis, index, size } => write!(
                f,
                "index {index} out of bounds for axis {axis} of size {size}"
            ),
            ArrayError::SubarrayOutOfBounds {
                axis,
                offset,
                size,
                dim,
            } => write!(
                f,
                "subarray [{offset}, {offset}+{size}) exceeds axis {axis} of size {dim}"
            ),
            ArrayError::ReshapeCountMismatch { from, to } => {
                write!(f, "reshape cannot change element count ({from} -> {to})")
            }
            ArrayError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            ArrayError::BadConversion { from, to } => {
                write!(f, "cannot convert {from} value to {to}")
            }
            ArrayError::Parse(msg) => write!(f, "array parse error: {msg}"),
            ArrayError::BadAxis { axis, rank } => {
                write!(f, "axis {axis} is invalid for rank {rank}")
            }
            ArrayError::Io(msg) => write!(f, "array I/O error: {msg}"),
            ArrayError::RawSizeNotAligned { len, elem_size } => write!(
                f,
                "raw payload of {len} bytes is not a multiple of the element size {elem_size}"
            ),
        }
    }
}

impl std::error::Error for ArrayError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ArrayError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ArrayError::IndexOutOfBounds {
            axis: 2,
            index: 9,
            size: 4,
        };
        let s = e.to_string();
        assert!(s.contains("axis 2"));
        assert!(s.contains('9'));
        assert!(s.contains('4'));
    }

    #[test]
    fn type_mismatch_mentions_both_types() {
        let e = ArrayError::TypeMismatch {
            expected: ElementType::Float64,
            got: ElementType::Int32,
        };
        let s = e.to_string();
        assert!(s.contains("float"));
        assert!(s.contains("int"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(ArrayError::BadFlags(3), ArrayError::BadFlags(3));
        assert_ne!(ArrayError::BadFlags(3), ArrayError::BadFlags(4));
    }
}
