//! Elementwise arithmetic, scaling and inner products.
//!
//! The spectrum use case needs "normalization of the flux vector which
//! requires integration of the flux in given wavelength ranges and
//! multiplication by scalar" and "multiplying the flux vector with a number
//! that is a function of the wavelength" (§2.2) — i.e. array⊗array and
//! array⊗scalar kernels, including mixed-type pairs (double flux × integer
//! flags).

use crate::array::SqlArray;
use crate::complex::Complex64;
use crate::element::ElementType;
use crate::errors::{ArrayError, Result};
use crate::header::Header;
use crate::parallel::{configured_dop, scoped_try_for_ranges_mut};
use crate::scalar::Scalar;

/// Arrays with at least this many elements run the chunked parallel path
/// in [`zip`], [`scale`] and [`offset`] (when the configured DOP is > 1);
/// smaller arrays are not worth a thread spawn.
pub const PARALLEL_MIN_ELEMS: usize = 8192;

/// Picks the effective DOP for a kernel over `count` elements.
fn kernel_dop(count: usize) -> usize {
    if count >= PARALLEL_MIN_ELEMS {
        configured_dop()
    } else {
        1
    }
}

/// Fills `body` (a raw element buffer of `count` × 8-byte `f64` cells) from
/// `compute(lin)`, fanning contiguous chunks out through
/// [`scoped_try_for_ranges_mut`]. Each worker writes a disjoint sub-slice
/// and the first error is reported in chunk order, so the result is
/// bit-identical to the serial loop for any `dop`.
fn fill_f64(
    body: &mut [u8],
    count: usize,
    dop: usize,
    compute: &(impl Fn(usize) -> Result<f64> + Sync),
) -> Result<()> {
    assert_eq!(body.len(), count * 8);
    scoped_try_for_ranges_mut(body, 8, dop, |r, chunk| {
        for (slot, lin) in r.enumerate() {
            let v = compute(lin)?;
            chunk[slot * 8..slot * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    })
}

/// The binary operation of [`zip`].
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

fn result_type(a: ElementType, b: ElementType) -> ElementType {
    if a.is_complex() || b.is_complex() {
        ElementType::Complex64
    } else {
        ElementType::Float64
    }
}

/// Applies `op` elementwise over two arrays of identical shape. The inputs
/// may have different base types (e.g. `float64` flux × `int16` flags); the
/// result is `float64`, or `complex64` if either input is complex. The
/// result inherits the storage class of `a` (falling back to max if the
/// widened payload no longer fits in a page).
pub fn zip(a: &SqlArray, b: &SqlArray, op: BinOp) -> Result<SqlArray> {
    zip_with_dop(a, b, op, kernel_dop(a.count()))
}

/// [`zip`] with an explicit degree of parallelism (1 = serial). Results are
/// bit-identical for every `dop`; [`zip`] picks the DOP from the array size
/// and the `SQLARRAY_DOP` configuration.
fn zip_with_dop(a: &SqlArray, b: &SqlArray, op: BinOp, dop: usize) -> Result<SqlArray> {
    if a.dims() != b.dims() {
        return Err(ArrayError::ShapeMismatch {
            left: a.dims().to_vec(),
            right: b.dims().to_vec(),
        });
    }
    let out_elem = result_type(a.elem(), b.elem());
    let header = match Header::new(a.class(), out_elem, a.shape().clone()) {
        Ok(h) => h,
        Err(ArrayError::ShortTooLarge { .. }) => Header::new(
            crate::header::StorageClass::Max,
            out_elem,
            a.shape().clone(),
        )?,
        Err(e) => return Err(e),
    };
    let hlen = header.header_len();
    let mut out = vec![0u8; header.blob_len()];
    header.encode(&mut out);
    let es = out_elem.size();

    if out_elem == ElementType::Complex64 {
        for lin in 0..a.count() {
            let x = a.item_linear(lin).as_c64();
            let y = b.item_linear(lin).as_c64();
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
            };
            Scalar::C64(r).write_le(&mut out[hlen + lin * es..]);
        }
    } else {
        let count = a.count();
        fill_f64(&mut out[hlen..hlen + count * 8], count, dop, &|lin| {
            let x = a.item_linear(lin).as_f64()?;
            let y = b.item_linear(lin).as_f64()?;
            Ok(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
            })
        })?;
    }
    SqlArray::from_blob(out)
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
/// family (real stays `float64`, complex stays `complex64`). Large arrays
/// run chunked over the configured DOP.
pub fn scale(a: &SqlArray, k: f64) -> Result<SqlArray> {
    affine_with_dop(a, k, 0.0, kernel_dop(a.count()))
}

/// Adds a real scalar to every element. Large arrays run chunked over the
/// configured DOP.
pub fn offset(a: &SqlArray, k: f64) -> Result<SqlArray> {
    affine_with_dop(a, 1.0, k, kernel_dop(a.count()))
}

/// `v ↦ v·mul + add` applied elementwise (componentwise for complex
/// inputs), with the real path parallelized over `dop` chunks.
fn affine_with_dop(a: &SqlArray, mul: f64, add: f64, dop: usize) -> Result<SqlArray> {
    if a.elem().is_complex() {
        return map_c64(a, |c| Complex64::new(c.re * mul + add, c.im * mul + add));
    }
    let header = promote_header(a, ElementType::Float64)?;
    let hlen = header.header_len();
    let mut out = vec![0u8; header.blob_len()];
    header.encode(&mut out);
    let count = a.count();
    fill_f64(&mut out[hlen..hlen + count * 8], count, dop, &|lin| {
        Ok(a.item_linear(lin).as_f64()? * mul + add)
    })?;
    SqlArray::from_blob(out)
}

/// Applies a complex function elementwise; any input type is widened to
/// `complex64` first.
fn map_c64(a: &SqlArray, mut f: impl FnMut(Complex64) -> Complex64) -> Result<SqlArray> {
    let header = promote_header(a, ElementType::Complex64)?;
    let hlen = header.header_len();
    let mut out = vec![0u8; header.blob_len()];
    header.encode(&mut out);
    for lin in 0..a.count() {
        let v = f(a.item_linear(lin).as_c64());
        Scalar::C64(v).write_le(&mut out[hlen + lin * 16..]);
    }
    SqlArray::from_blob(out)
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

/// Real dot product of two equal-length vectors (any real types).
pub fn dot(a: &SqlArray, b: &SqlArray) -> Result<f64> {
    if a.count() != b.count() {
        return Err(ArrayError::ShapeMismatch {
            left: a.dims().to_vec(),
            right: b.dims().to_vec(),
        });
    }
    let mut acc = 0.0f64;
    for lin in 0..a.count() {
        acc += a.item_linear(lin).as_f64()? * b.item_linear(lin).as_f64()?;
    }
    Ok(acc)
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
    fn scale_and_offset() {
        let a = short_vector(&[1.0f64, -2.0]).unwrap();
        assert_eq!(
            scale(&a, 3.0).unwrap().to_vec::<f64>().unwrap(),
            vec![3.0, -6.0]
        );
        assert_eq!(
            offset(&a, 1.0).unwrap().to_vec::<f64>().unwrap(),
            vec![2.0, -1.0]
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
    fn parallel_zip_is_bit_identical_to_serial() {
        let n = 10_001; // odd, so chunks are non-divisible
        let xs: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).sin() * 1e3).collect();
        let ys: Vec<f64> = (0..n).map(|k| (k as f64 * 0.11).cos() + 2.0).collect();
        let a = SqlArray::from_vec(StorageClass::Max, &[n], &xs).unwrap();
        let b = SqlArray::from_vec(StorageClass::Max, &[n], &ys).unwrap();
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
            let serial = zip_with_dop(&a, &b, op, 1).unwrap();
            for dop in [2, 3, 8] {
                let par = zip_with_dop(&a, &b, op, dop).unwrap();
                assert_eq!(par.as_blob(), serial.as_blob(), "{op:?} dop {dop}");
            }
        }
    }

    #[test]
    fn parallel_scale_and_offset_match_serial() {
        let n = 9000;
        let xs: Vec<f64> = (0..n).map(|k| k as f64 * 0.001 - 4.0).collect();
        let a = SqlArray::from_vec(StorageClass::Max, &[n], &xs).unwrap();
        let serial_scale = affine_with_dop(&a, 2.5, 0.0, 1).unwrap();
        let serial_offset = affine_with_dop(&a, 1.0, -1.25, 1).unwrap();
        for dop in [2, 5] {
            assert_eq!(
                affine_with_dop(&a, 2.5, 0.0, dop).unwrap().as_blob(),
                serial_scale.as_blob()
            );
            assert_eq!(
                affine_with_dop(&a, 1.0, -1.25, dop).unwrap().as_blob(),
                serial_offset.as_blob()
            );
        }
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
        // widening 997×i64 to complex128 would not — checked in map_c64.
        let c = map_c64(&a, |v| v).unwrap();
        assert_eq!(c.class(), StorageClass::Max);
    }
}
