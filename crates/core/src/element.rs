//! Element (base) types supported by the array library.
//!
//! The paper supports the signed integers `Int8..Int64`, `float`, `double`
//! and single/double complex (§3.4); fixed-precision decimals are
//! deliberately excluded because the target is scientific data. Elements are
//! stored little-endian, which is also the representation the original
//! library shares with LAPACK/FFTW buffers so that math libraries can be
//! called by reference without re-marshaling (§3.6).

use crate::complex::{Complex32, Complex64};
use crate::errors::{ArrayError, Result};
use std::fmt;

/// The base data type of an array, as encoded in the blob header.
///
/// The `u8` discriminants are the on-disk type codes; they are stable and
/// must never be renumbered (blobs written with one build must be readable
/// by another).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ElementType {
    /// `tinyint`-like signed 8-bit integer (the paper stores flag vectors
    /// as 8-bit integers).
    Int8 = 1,
    /// `smallint`: signed 16-bit integer.
    Int16 = 2,
    /// `int`: signed 32-bit integer.
    Int32 = 3,
    /// `bigint`: signed 64-bit integer.
    Int64 = 4,
    /// `real`: IEEE-754 single precision.
    Float32 = 5,
    /// `float`: IEEE-754 double precision.
    Float64 = 6,
    /// Single-precision complex.
    Complex32 = 7,
    /// Double-precision complex.
    Complex64 = 8,
}

impl ElementType {
    /// All supported element types, in type-code order.
    pub const ALL: [ElementType; 8] = [
        ElementType::Int8,
        ElementType::Int16,
        ElementType::Int32,
        ElementType::Int64,
        ElementType::Float32,
        ElementType::Float64,
        ElementType::Complex32,
        ElementType::Complex64,
    ];

    /// Size of one element in bytes.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            ElementType::Int8 => 1,
            ElementType::Int16 => 2,
            ElementType::Int32 => 4,
            ElementType::Int64 => 8,
            ElementType::Float32 => 4,
            ElementType::Float64 => 8,
            ElementType::Complex32 => 8,
            ElementType::Complex64 => 16,
        }
    }

    /// The on-disk type code.
    #[inline]
    pub(crate) const fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a type code from a header.
    pub(crate) fn from_code(code: u8) -> Result<Self> {
        Ok(match code {
            1 => ElementType::Int8,
            2 => ElementType::Int16,
            3 => ElementType::Int32,
            4 => ElementType::Int64,
            5 => ElementType::Float32,
            6 => ElementType::Float64,
            7 => ElementType::Complex32,
            8 => ElementType::Complex64,
            other => return Err(ArrayError::UnknownElementType(other)),
        })
    }

    /// True for the complex family.
    #[inline]
    pub const fn is_complex(self) -> bool {
        matches!(self, ElementType::Complex32 | ElementType::Complex64)
    }

    /// The T-SQL schema-name stem the original library used for this type
    /// (`FloatArray`, `IntArray`, ...; the max-class schema appends `Max`).
    pub const fn schema_stem(self) -> &'static str {
        match self {
            ElementType::Int8 => "TinyIntArray",
            ElementType::Int16 => "SmallIntArray",
            ElementType::Int32 => "IntArray",
            ElementType::Int64 => "BigIntArray",
            ElementType::Float32 => "RealArray",
            ElementType::Float64 => "FloatArray",
            ElementType::Complex32 => "ComplexRealArray",
            ElementType::Complex64 => "ComplexArray",
        }
    }
}

impl fmt::Display for ElementType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ElementType::Int8 => "int8",
            ElementType::Int16 => "int16",
            ElementType::Int32 => "int32",
            ElementType::Int64 => "int64",
            ElementType::Float32 => "float32",
            ElementType::Float64 => "float64",
            ElementType::Complex32 => "complex32",
            ElementType::Complex64 => "complex64",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for ElementType {
    type Err = ArrayError;

    fn from_str(s: &str) -> Result<Self> {
        Ok(match s {
            "int8" | "tinyint" => ElementType::Int8,
            "int16" | "smallint" => ElementType::Int16,
            "int32" | "int" => ElementType::Int32,
            "int64" | "bigint" => ElementType::Int64,
            "float32" | "real" => ElementType::Float32,
            "float64" | "float" | "double" => ElementType::Float64,
            "complex32" => ElementType::Complex32,
            "complex64" | "complex" => ElementType::Complex64,
            other => return Err(ArrayError::Parse(format!("unknown element type `{other}`"))),
        })
    }
}

/// A Rust scalar type that can live inside an array blob.
///
/// Implementations provide fixed-width little-endian serialization. The
/// trait is sealed in spirit: the set of implementors is exactly the eight
/// SQL base types.
pub trait Element: Copy + PartialEq + Default + fmt::Debug + Send + Sync + 'static {
    /// The dynamic tag corresponding to `Self`.
    const TYPE: ElementType;
    /// `size_of::<Self>()` as stored on disk.
    const SIZE: usize;

    /// Serializes into exactly `Self::SIZE` bytes.
    fn write_le(self, out: &mut [u8]);
    /// Deserializes from exactly `Self::SIZE` bytes.
    fn read_le(buf: &[u8]) -> Self;
    /// Wraps into the dynamic [`Scalar`](crate::scalar::Scalar)-compatible
    /// f64 view used by real-valued aggregates; complex types return their
    /// real part only when the imaginary part is zero.
    fn to_f64_checked(self) -> Option<f64>;
    /// Builds `Self` from an `f64`, truncating toward zero for integers.
    fn from_f64(v: f64) -> Self;
}

macro_rules! int_element {
    ($t:ty, $tag:expr) => {
        impl Element for $t {
            const TYPE: ElementType = $tag;
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_le(buf: &[u8]) -> Self {
                let mut b = [0u8; Self::SIZE];
                b.copy_from_slice(&buf[..Self::SIZE]);
                <$t>::from_le_bytes(b)
            }

            #[inline]
            fn to_f64_checked(self) -> Option<f64> {
                Some(self as f64)
            }

            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
        }
    };
}

int_element!(i8, ElementType::Int8);
int_element!(i16, ElementType::Int16);
int_element!(i32, ElementType::Int32);
int_element!(i64, ElementType::Int64);

impl Element for f32 {
    const TYPE: ElementType = ElementType::Float32;
    const SIZE: usize = 4;

    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(buf: &[u8]) -> Self {
        f32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]])
    }

    #[inline]
    fn to_f64_checked(self) -> Option<f64> {
        Some(self as f64)
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

impl Element for f64 {
    const TYPE: ElementType = ElementType::Float64;
    const SIZE: usize = 8;

    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(buf: &[u8]) -> Self {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[..8]);
        f64::from_le_bytes(b)
    }

    #[inline]
    fn to_f64_checked(self) -> Option<f64> {
        Some(self)
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
}

impl Element for Complex32 {
    const TYPE: ElementType = ElementType::Complex32;
    const SIZE: usize = 8;

    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.re.to_le_bytes());
        out[4..8].copy_from_slice(&self.im.to_le_bytes());
    }

    #[inline]
    fn read_le(buf: &[u8]) -> Self {
        Complex32::new(f32::read_le(&buf[..4]), f32::read_le(&buf[4..8]))
    }

    #[inline]
    fn to_f64_checked(self) -> Option<f64> {
        (self.im == 0.0).then_some(self.re as f64)
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        Complex32::new(v as f32, 0.0)
    }
}

impl Element for Complex64 {
    const TYPE: ElementType = ElementType::Complex64;
    const SIZE: usize = 16;

    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.re.to_le_bytes());
        out[8..16].copy_from_slice(&self.im.to_le_bytes());
    }

    #[inline]
    fn read_le(buf: &[u8]) -> Self {
        Complex64::new(f64::read_le(&buf[..8]), f64::read_le(&buf[8..16]))
    }

    #[inline]
    fn to_f64_checked(self) -> Option<f64> {
        (self.im == 0.0).then_some(self.re)
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        Complex64::new(v, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for t in ElementType::ALL {
            assert_eq!(ElementType::from_code(t.code()).unwrap(), t);
        }
    }

    #[test]
    fn unknown_code_is_rejected() {
        assert_eq!(
            ElementType::from_code(0).unwrap_err(),
            ArrayError::UnknownElementType(0)
        );
        assert_eq!(
            ElementType::from_code(99).unwrap_err(),
            ArrayError::UnknownElementType(99)
        );
    }

    #[test]
    fn sizes_match_rust_layout() {
        assert_eq!(ElementType::Int8.size(), 1);
        assert_eq!(ElementType::Int16.size(), 2);
        assert_eq!(ElementType::Int32.size(), 4);
        assert_eq!(ElementType::Int64.size(), 8);
        assert_eq!(ElementType::Float32.size(), 4);
        assert_eq!(ElementType::Float64.size(), 8);
        assert_eq!(ElementType::Complex32.size(), 8);
        assert_eq!(ElementType::Complex64.size(), 16);
    }

    #[test]
    fn family_predicates() {
        assert!(ElementType::Complex64.is_complex());
    }

    #[test]
    fn string_round_trip_including_sql_names() {
        for t in ElementType::ALL {
            let parsed: ElementType = t.to_string().parse().unwrap();
            assert_eq!(parsed, t);
        }
        assert_eq!("bigint".parse::<ElementType>().unwrap(), ElementType::Int64);
        assert_eq!("real".parse::<ElementType>().unwrap(), ElementType::Float32);
        assert_eq!(
            "float".parse::<ElementType>().unwrap(),
            ElementType::Float64
        );
        assert!("decimal".parse::<ElementType>().is_err());
    }

    fn roundtrip<T: Element>(v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.write_le(&mut buf);
        assert_eq!(T::read_le(&buf), v);
    }

    #[test]
    fn element_serialization_round_trips() {
        roundtrip(-5i8);
        roundtrip(-3000i16);
        roundtrip(123_456_789i32);
        roundtrip(-9_876_543_210i64);
        roundtrip(1.5f32);
        roundtrip(-2.25e-300f64);
        roundtrip(Complex32::new(1.0, -2.0));
        roundtrip(Complex64::new(3.25, 4.5));
    }

    #[test]
    fn complex_to_f64_requires_zero_imaginary() {
        assert_eq!(Complex64::new(2.0, 0.0).to_f64_checked(), Some(2.0));
        assert_eq!(Complex64::new(2.0, 1.0).to_f64_checked(), None);
    }

    #[test]
    fn schema_stems_are_distinct() {
        let mut names: Vec<_> = ElementType::ALL.iter().map(|t| t.schema_stem()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
