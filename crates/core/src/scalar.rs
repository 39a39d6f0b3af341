//! Dynamically typed scalar values and the numeric conversion lattice.
//!
//! T-SQL callers see array items as SQL scalars of whatever base type the
//! array carries; `Scalar` is the Rust-side equivalent used by the dynamic
//! (non-generic) API and by the query engine's `Value` bridge.

use crate::complex::{Complex32, Complex64};
use crate::element::{Element, ElementType};
use crate::errors::{ArrayError, Result};
use std::fmt;

/// A single array element of any supported base type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// 8-bit signed integer.
    I8(i8),
    /// 16-bit signed integer.
    I16(i16),
    /// 32-bit signed integer.
    I32(i32),
    /// 64-bit signed integer.
    I64(i64),
    /// Single-precision float.
    F32(f32),
    /// Double-precision float.
    F64(f64),
    /// Single-precision complex.
    C32(Complex32),
    /// Double-precision complex.
    C64(Complex64),
}

impl Scalar {
    /// The element type of this value.
    pub(crate) fn element_type(&self) -> ElementType {
        match self {
            Scalar::I8(_) => ElementType::Int8,
            Scalar::I16(_) => ElementType::Int16,
            Scalar::I32(_) => ElementType::Int32,
            Scalar::I64(_) => ElementType::Int64,
            Scalar::F32(_) => ElementType::Float32,
            Scalar::F64(_) => ElementType::Float64,
            Scalar::C32(_) => ElementType::Complex32,
            Scalar::C64(_) => ElementType::Complex64,
        }
    }

    /// Real-number view. Integers and floats always succeed; complex values
    /// succeed only with a zero imaginary part.
    pub fn as_f64(&self) -> Result<f64> {
        let v = match *self {
            Scalar::I8(v) => Some(v as f64),
            Scalar::I16(v) => Some(v as f64),
            Scalar::I32(v) => Some(v as f64),
            Scalar::I64(v) => Some(v as f64),
            Scalar::F32(v) => Some(v as f64),
            Scalar::F64(v) => Some(v),
            Scalar::C32(v) => v.to_f64_checked(),
            Scalar::C64(v) => v.to_f64_checked(),
        };
        v.ok_or(ArrayError::BadConversion {
            from: self.element_type(),
            to: ElementType::Float64,
        })
    }

    /// Complex view; real values are widened with a zero imaginary part.
    pub fn as_c64(&self) -> Complex64 {
        match *self {
            Scalar::C32(v) => Complex64::from_c32(v),
            Scalar::C64(v) => v,
            #[expect(
                clippy::expect_used,
                reason = "the C32/C64 arms above are the only variants for which as_f64 errors; this arm only sees real scalars"
            )]
            ref real => Complex64::new(
                real.as_f64().expect("non-complex scalars are always real"),
                0.0,
            ),
        }
    }

    /// Converts to another element type following SQL CAST semantics for
    /// numeric types: float→int truncates toward zero, int→float may round,
    /// real→complex widens with zero imaginary part, complex→real requires
    /// a zero imaginary part.
    pub fn cast_to(&self, target: ElementType) -> Result<Scalar> {
        if self.element_type() == target {
            return Ok(*self);
        }
        let fail = || ArrayError::BadConversion {
            from: self.element_type(),
            to: target,
        };
        match target {
            ElementType::Complex32 => Ok(Scalar::C32(Complex32::from_c64(self.as_c64()))),
            ElementType::Complex64 => Ok(Scalar::C64(self.as_c64())),
            _ => {
                let v = self.as_f64().map_err(|_| fail())?;
                Ok(match target {
                    ElementType::Int8 => Scalar::I8(v as i8),
                    ElementType::Int16 => Scalar::I16(v as i16),
                    ElementType::Int32 => Scalar::I32(v as i32),
                    ElementType::Int64 => Scalar::I64(v as i64),
                    ElementType::Float32 => Scalar::F32(v as f32),
                    ElementType::Float64 => Scalar::F64(v),
                    ElementType::Complex32 | ElementType::Complex64 => unreachable!(),
                })
            }
        }
    }

    /// Serializes into the scalar's on-disk form (`element_type().size()`
    /// bytes).
    pub(crate) fn write_le(&self, out: &mut [u8]) {
        match *self {
            Scalar::I8(v) => v.write_le(out),
            Scalar::I16(v) => v.write_le(out),
            Scalar::I32(v) => v.write_le(out),
            Scalar::I64(v) => v.write_le(out),
            Scalar::F32(v) => v.write_le(out),
            Scalar::F64(v) => v.write_le(out),
            Scalar::C32(v) => v.write_le(out),
            Scalar::C64(v) => v.write_le(out),
        }
    }

    /// Deserializes a scalar of type `t` from its on-disk form.
    pub fn read_le(t: ElementType, buf: &[u8]) -> Scalar {
        match t {
            ElementType::Int8 => Scalar::I8(i8::read_le(buf)),
            ElementType::Int16 => Scalar::I16(i16::read_le(buf)),
            ElementType::Int32 => Scalar::I32(i32::read_le(buf)),
            ElementType::Int64 => Scalar::I64(i64::read_le(buf)),
            ElementType::Float32 => Scalar::F32(f32::read_le(buf)),
            ElementType::Float64 => Scalar::F64(f64::read_le(buf)),
            ElementType::Complex32 => Scalar::C32(Complex32::read_le(buf)),
            ElementType::Complex64 => Scalar::C64(Complex64::read_le(buf)),
        }
    }

    /// Parses a scalar of type `t` from its textual form.
    pub fn parse(t: ElementType, s: &str) -> Result<Scalar> {
        let s = s.trim();
        let bad = |msg: &str| ArrayError::Parse(format!("`{s}`: {msg}"));
        Ok(match t {
            ElementType::Int8 => Scalar::I8(s.parse().map_err(|_| bad("not an int8"))?),
            ElementType::Int16 => Scalar::I16(s.parse().map_err(|_| bad("not an int16"))?),
            ElementType::Int32 => Scalar::I32(s.parse().map_err(|_| bad("not an int32"))?),
            ElementType::Int64 => Scalar::I64(s.parse().map_err(|_| bad("not an int64"))?),
            ElementType::Float32 => Scalar::F32(s.parse().map_err(|_| bad("not a float32"))?),
            ElementType::Float64 => Scalar::F64(s.parse().map_err(|_| bad("not a float64"))?),
            ElementType::Complex32 => {
                let c = parse_complex(s).ok_or_else(|| bad("not a complex number"))?;
                Scalar::C32(Complex32::from_c64(c))
            }
            ElementType::Complex64 => {
                Scalar::C64(parse_complex(s).ok_or_else(|| bad("not a complex number"))?)
            }
        })
    }
}

/// Parses `a`, `bi`, or `a+bi` / `a-bi` forms.
fn parse_complex(s: &str) -> Option<Complex64> {
    let s = s.trim();
    if let Some(stripped) = s.strip_suffix('i') {
        // Either a pure imaginary `bi` or a full `a±bi`.
        // Find the split sign that is not the leading sign and not part of
        // an exponent (`e+`, `e-`).
        let bytes = stripped.as_bytes();
        let mut split = None;
        for (i, &b) in bytes.iter().enumerate().skip(1) {
            if (b == b'+' || b == b'-') && !matches!(bytes[i - 1], b'e' | b'E') {
                split = Some(i);
            }
        }
        match split {
            Some(i) => {
                let re: f64 = stripped[..i].trim().parse().ok()?;
                let im_str = stripped[i..].trim();
                let im: f64 = if im_str == "+" {
                    1.0
                } else if im_str == "-" {
                    -1.0
                } else {
                    im_str.parse().ok()?
                };
                Some(Complex64::new(re, im))
            }
            None => {
                let im: f64 = if stripped.is_empty() {
                    1.0
                } else if stripped == "-" {
                    -1.0
                } else {
                    stripped.trim().parse().ok()?
                };
                Some(Complex64::new(0.0, im))
            }
        }
    } else {
        s.parse().ok().map(|re| Complex64::new(re, 0.0))
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::I8(v) => write!(f, "{v}"),
            Scalar::I16(v) => write!(f, "{v}"),
            Scalar::I32(v) => write!(f, "{v}"),
            Scalar::I64(v) => write!(f, "{v}"),
            Scalar::F32(v) => write!(f, "{v}"),
            Scalar::F64(v) => write!(f, "{v}"),
            Scalar::C32(v) => write!(f, "{v}"),
            Scalar::C64(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! scalar_from {
    ($t:ty, $variant:ident) => {
        impl From<$t> for Scalar {
            fn from(v: $t) -> Scalar {
                Scalar::$variant(v)
            }
        }
    };
}

scalar_from!(i8, I8);
scalar_from!(i16, I16);
scalar_from!(i32, I32);
scalar_from!(i64, I64);
scalar_from!(f32, F32);
scalar_from!(f64, F64);
scalar_from!(Complex32, C32);
scalar_from!(Complex64, C64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_type_tags() {
        assert_eq!(Scalar::I8(1).element_type(), ElementType::Int8);
        assert_eq!(Scalar::F64(1.0).element_type(), ElementType::Float64);
        assert_eq!(
            Scalar::C64(Complex64::I).element_type(),
            ElementType::Complex64
        );
    }

    #[test]
    fn as_f64_for_real_types() {
        assert_eq!(Scalar::I16(-7).as_f64().unwrap(), -7.0);
        assert_eq!(Scalar::F32(1.5).as_f64().unwrap(), 1.5);
        assert_eq!(Scalar::C64(Complex64::new(2.0, 0.0)).as_f64().unwrap(), 2.0);
        assert!(Scalar::C64(Complex64::new(2.0, 1.0)).as_f64().is_err());
    }

    #[test]
    fn cast_truncates_float_to_int() {
        assert_eq!(
            Scalar::F64(3.9).cast_to(ElementType::Int32).unwrap(),
            Scalar::I32(3)
        );
        assert_eq!(
            Scalar::F64(-3.9).cast_to(ElementType::Int32).unwrap(),
            Scalar::I32(-3)
        );
    }

    #[test]
    fn cast_widens_to_complex() {
        assert_eq!(
            Scalar::I32(4).cast_to(ElementType::Complex64).unwrap(),
            Scalar::C64(Complex64::new(4.0, 0.0))
        );
    }

    #[test]
    fn cast_complex_to_real_requires_zero_im() {
        let ok = Scalar::C64(Complex64::new(5.0, 0.0));
        assert_eq!(ok.cast_to(ElementType::Float64).unwrap(), Scalar::F64(5.0));
        let bad = Scalar::C64(Complex64::new(5.0, 1.0));
        assert!(matches!(
            bad.cast_to(ElementType::Float64),
            Err(ArrayError::BadConversion { .. })
        ));
    }

    #[test]
    fn read_write_round_trip_all_types() {
        let values = [
            Scalar::I8(-5),
            Scalar::I16(300),
            Scalar::I32(-70000),
            Scalar::I64(1 << 40),
            Scalar::F32(0.25),
            Scalar::F64(-1e100),
            Scalar::C32(Complex32::new(1.0, -1.0)),
            Scalar::C64(Complex64::new(-2.5, 3.5)),
        ];
        for v in values {
            let mut buf = [0u8; 16];
            v.write_le(&mut buf);
            assert_eq!(Scalar::read_le(v.element_type(), &buf), v);
        }
    }

    #[test]
    fn parse_real_scalars() {
        assert_eq!(
            Scalar::parse(ElementType::Int32, " 42 ").unwrap(),
            Scalar::I32(42)
        );
        assert_eq!(
            Scalar::parse(ElementType::Float64, "-1.5e3").unwrap(),
            Scalar::F64(-1500.0)
        );
        assert!(Scalar::parse(ElementType::Int8, "1.5").is_err());
    }

    #[test]
    fn parse_complex_forms() {
        let c = |s: &str| Scalar::parse(ElementType::Complex64, s).unwrap();
        assert_eq!(c("3"), Scalar::C64(Complex64::new(3.0, 0.0)));
        assert_eq!(c("2i"), Scalar::C64(Complex64::new(0.0, 2.0)));
        assert_eq!(c("i"), Scalar::C64(Complex64::new(0.0, 1.0)));
        assert_eq!(c("-i"), Scalar::C64(Complex64::new(0.0, -1.0)));
        assert_eq!(c("1+2i"), Scalar::C64(Complex64::new(1.0, 2.0)));
        assert_eq!(c("1.5-0.5i"), Scalar::C64(Complex64::new(1.5, -0.5)));
        assert_eq!(c("1e2+3e-1i"), Scalar::C64(Complex64::new(100.0, 0.3)));
        assert!(Scalar::parse(ElementType::Complex64, "foo").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let vals = [
            Scalar::I64(-12),
            Scalar::F64(2.5),
            Scalar::C64(Complex64::new(1.0, -2.0)),
        ];
        for v in vals {
            let s = v.to_string();
            let back = Scalar::parse(v.element_type(), &s).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn from_impls() {
        assert_eq!(Scalar::from(1i8), Scalar::I8(1));
        assert_eq!(Scalar::from(2.0f64), Scalar::F64(2.0));
        assert_eq!(
            Scalar::from(Complex64::new(1.0, 1.0)),
            Scalar::C64(Complex64::new(1.0, 1.0))
        );
    }
}
