//! Elementwise arithmetic, scaling and inner products.
//!
//! The spectrum use case needs "normalization of the flux vector which
//! requires integration of the flux in given wavelength ranges and
//! multiplication by scalar" and "multiplying the flux vector with a number
//! that is a function of the wavelength" (§2.2) — i.e. array⊗array and
//! array⊗scalar kernels, including mixed-type pairs (double flux × integer
//! flags).
//!
//! Every kernel is one serial loop on the calling thread: inside a query
//! that is a scan worker (the scan is the parallel unit), otherwise the
//! session's own thread.

use std::ops::{Add, Div, Mul, Sub};

use crate::array::SqlArray;
use crate::complex::Complex64;
use crate::element::{Element, ElementType};
use crate::errors::{ArrayError, Result};
use crate::exact::ExactSum;
use crate::header::Header;

/// The binary operation of `zip`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise division.
    Div,
}

impl BinOp {
    fn apply<T>(self, x: T, y: T) -> T
    where
        T: Add<Output = T> + Sub<Output = T> + Mul<Output = T> + Div<Output = T>,
    {
        match self {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
        }
    }
}

/// A `T` array of `a`'s shape and storage class (falling back to max if
/// the widened payload no longer fits in a page), element `lin` set to
/// `value(lin)`; the first error ends the build.
fn build<T: Element>(a: &SqlArray, mut value: impl FnMut(usize) -> Result<T>) -> Result<SqlArray> {
    let header = promote_header(a, T::TYPE)?;
    let hlen = header.header_len();
    let mut out = vec![0u8; header.blob_len()];
    header.encode(&mut out);
    for (lin, cell) in out[hlen..].chunks_exact_mut(T::SIZE).enumerate() {
        value(lin)?.write_le(cell);
    }
    SqlArray::from_blob(out)
}

/// Applies `op` elementwise over two arrays of identical shape. The inputs
/// may have different base types (e.g. `float64` flux × `int16` flags); the
/// result is `float64`, or `complex64` if either input is complex. The
/// result inherits the storage class of `a` (falling back to max if the
/// widened payload no longer fits in a page).
pub(crate) fn zip(a: &SqlArray, b: &SqlArray, op: BinOp) -> Result<SqlArray> {
    if a.dims() != b.dims() {
        return Err(ArrayError::ShapeMismatch {
            left: a.dims().to_vec(),
            right: b.dims().to_vec(),
        });
    }
    if a.elem().is_complex() || b.elem().is_complex() {
        build(a, |lin| {
            Ok(op.apply(a.item_linear(lin).as_c64(), b.item_linear(lin).as_c64()))
        })
    } else {
        build(a, |lin| {
            Ok(op.apply(a.item_linear(lin).as_f64()?, b.item_linear(lin).as_f64()?))
        })
    }
}

/// Elementwise `a + b`.
pub fn add(a: &SqlArray, b: &SqlArray) -> Result<SqlArray> {
    zip(a, b, BinOp::Add)
}

/// Elementwise `a - b`.
pub fn sub(a: &SqlArray, b: &SqlArray) -> Result<SqlArray> {
    zip(a, b, BinOp::Sub)
}

/// Elementwise `a * b` (Hadamard product).
pub fn mul(a: &SqlArray, b: &SqlArray) -> Result<SqlArray> {
    zip(a, b, BinOp::Mul)
}

/// Elementwise `a / b`.
pub fn div(a: &SqlArray, b: &SqlArray) -> Result<SqlArray> {
    zip(a, b, BinOp::Div)
}

/// Multiplies every element by a real scalar, preserving the element type
/// family (real stays `float64`, complex stays `complex64`).
pub fn scale(a: &SqlArray, k: f64) -> Result<SqlArray> {
    affine(a, k, 0.0)
}

/// `v ↦ v·mul + add` applied elementwise (componentwise for complex
/// inputs).
fn affine(a: &SqlArray, mul: f64, add: f64) -> Result<SqlArray> {
    if a.elem().is_complex() {
        build(a, |lin| {
            let c = a.item_linear(lin).as_c64();
            Ok(Complex64::new(c.re * mul + add, c.im * mul + add))
        })
    } else {
        build(a, |lin| Ok(a.item_linear(lin).as_f64()? * mul + add))
    }
}

fn promote_header(a: &SqlArray, elem: ElementType) -> Result<Header> {
    match Header::new(a.class(), elem, a.shape().clone()) {
        Ok(h) => Ok(h),
        Err(ArrayError::ShortTooLarge { .. }) => {
            Header::new(crate::header::StorageClass::Max, elem, a.shape().clone())
        }
        Err(e) => Err(e),
    }
}

/// Real dot product of two arrays of equal element count (any real
/// types), element by element in storage order. The products are summed
/// exactly, as `Sum` sums them, so the dot product is the sum of the
/// elementwise product bit for bit.
pub fn dot(a: &SqlArray, b: &SqlArray) -> Result<f64> {
    if a.count() != b.count() {
        return Err(ArrayError::ShapeMismatch {
            left: a.dims().to_vec(),
            right: b.dims().to_vec(),
        });
    }
    let mut acc = ExactSum::new();
    acc.add_iter(reals(a)?.zip(reals(b)?).map(|(x, y)| x * y));
    Ok(acc.value())
}

/// The `f64` value of every element of `a`, in storage order, read off its
/// payload by type. A complex element has one only when its imaginary part
/// is zero; those arrays are read an element at a time.
fn reals(a: &SqlArray) -> Result<Box<dyn Iterator<Item = f64> + '_>> {
    fn view<T: Element>(p: &[u8], f: fn(T) -> f64) -> Box<dyn Iterator<Item = f64> + '_> {
        Box::new(p.chunks_exact(T::SIZE).map(move |c| f(T::read_le(c))))
    }
    let p = a.payload();
    Ok(match a.elem() {
        ElementType::Int8 => view::<i8>(p, |v| v as f64),
        ElementType::Int16 => view::<i16>(p, |v| v as f64),
        ElementType::Int32 => view::<i32>(p, |v| v as f64),
        ElementType::Int64 => view::<i64>(p, |v| v as f64),
        ElementType::Float32 => view::<f32>(p, |v| v as f64),
        ElementType::Float64 => view::<f64>(p, |v| v),
        ElementType::Complex32 | ElementType::Complex64 => {
            let values = (0..a.count()).map(|lin| a.item_linear(lin).as_f64());
            Box::new(values.collect::<Result<Vec<f64>>>()?.into_iter())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::short_vector;
    use crate::header::StorageClass;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn add_sub_mul_div() {
        let a = short_vector(&[1.0f64, 2.0, 3.0]).unwrap();
        let b = short_vector(&[4.0f64, 5.0, 6.0]).unwrap();
        assert_eq!(
            add(&a, &b).unwrap().to_vec::<f64>().unwrap(),
            vec![5.0, 7.0, 9.0]
        );
        assert_eq!(
            sub(&b, &a).unwrap().to_vec::<f64>().unwrap(),
            vec![3.0, 3.0, 3.0]
        );
        assert_eq!(
            mul(&a, &b).unwrap().to_vec::<f64>().unwrap(),
            vec![4.0, 10.0, 18.0]
        );
        assert_eq!(
            div(&b, &a).unwrap().to_vec::<f64>().unwrap(),
            vec![4.0, 2.5, 2.0]
        );
    }

    #[test]
    fn mixed_types_promote_to_f64() {
        // double flux × int flags: the §2.2 masking pattern.
        let flux = short_vector(&[1.5f64, 2.5, 3.5]).unwrap();
        let flags = short_vector(&[1i16, 0, 1]).unwrap();
        let masked = mul(&flux, &flags).unwrap();
        assert_eq!(masked.elem(), ElementType::Float64);
        assert_eq!(masked.to_vec::<f64>().unwrap(), vec![1.5, 0.0, 3.5]);
    }

    #[test]
    fn complex_promotes_result() {
        let a = short_vector(&[Complex64::new(1.0, 1.0)]).unwrap();
        let b = short_vector(&[2.0f64]).unwrap();
        let p = mul(&a, &b).unwrap();
        assert_eq!(p.elem(), ElementType::Complex64);
        assert_eq!(
            p.to_vec::<Complex64>().unwrap(),
            vec![Complex64::new(2.0, 2.0)]
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = short_vector(&[1.0f64, 2.0]).unwrap();
        let b = short_vector(&[1.0f64, 2.0, 3.0]).unwrap();
        assert!(matches!(add(&a, &b), Err(ArrayError::ShapeMismatch { .. })));
    }

    #[test]
    fn scale_multiplies_each_element() {
        let a = short_vector(&[1.0f64, -2.0]).unwrap();
        assert_eq!(
            scale(&a, 3.0).unwrap().to_vec::<f64>().unwrap(),
            vec![3.0, -6.0]
        );
    }

    #[test]
    fn scale_complex() {
        let a = short_vector(&[Complex64::new(1.0, -2.0)]).unwrap();
        let s = scale(&a, 2.0).unwrap();
        assert_eq!(
            s.to_vec::<Complex64>().unwrap(),
            vec![Complex64::new(2.0, -4.0)]
        );
    }

    #[test]
    fn dot_products() {
        let a = short_vector(&[1.0f64, 2.0, 3.0]).unwrap();
        let b = short_vector(&[4.0f64, -5.0, 6.0]).unwrap();
        assert!(close(dot(&a, &b).unwrap(), 4.0 - 10.0 + 18.0));
    }

    #[test]
    fn int_zip_promotes_without_overflowing_page() {
        // 997 i64 elements fill a short page exactly when widened to f64
        // the byte count stays the same, so the class is preserved.
        let data: Vec<i64> = (0..997).collect();
        let a = SqlArray::from_vec(StorageClass::Short, &[997], &data).unwrap();
        let s = add(&a, &a).unwrap();
        assert_eq!(s.class(), StorageClass::Short);
        // Widening 900 i32 (3624 bytes total) to f64 (7224) still fits; but
        // widening 997×i64 to complex128 would not.
        let c = build(&a, |lin| Ok(a.item_linear(lin).as_c64())).unwrap();
        assert_eq!(c.class(), StorageClass::Max);
    }
}
