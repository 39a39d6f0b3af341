//! Whole-array aggregates.
//!
//! The requirements list a "simple T-SQL interface to perform various
//! aggregate operations over arrays". Real-valued summations accumulate in
//! [`ExactSum`] — the same order-independent, exactly rounded accumulator
//! behind the engine's parallel `SUM`/`AVG` — so `agg::sum` over an array
//! equals a parallel `SUM` over the same values bit for bit, regardless of
//! element order or partitioning. `sum`/`mean` also work on complex arrays
//! (accumulating componentwise), while order statistics (`min`/`max`) are
//! defined only for real element types.
//!
//! Every reduction takes any [`ArrayData`] — an owned [`SqlArray`] or a
//! borrowed [`ArrayView`] — and walks the payload as typed elements in
//! storage order: one dispatch on the element type per array, not one
//! [`Scalar`] per element. The summations hand their values to
//! [`ExactSum::add_iter`], which sums them a block at a time.
//!
//! [`SqlArray`]: crate::array::SqlArray
//! [`ArrayView`]: crate::array::ArrayView

use crate::array::ArrayData;
use crate::complex::{Complex32, Complex64};
use crate::element::{Element, ElementType};
use crate::errors::{ArrayError, Result};
use crate::exact::ExactSum;
use crate::scalar::Scalar;

/// Feeds every element of a payload of `T`s to `f`, in storage order.
#[inline]
fn walk<T: Element>(payload: &[u8], mut f: impl FnMut(T)) {
    for chunk in payload.chunks_exact(T::SIZE) {
        f(T::read_le(chunk));
    }
}

/// Feeds the `f64` view of every element of a real-typed array to `f`, in
/// storage order; complex arrays are rejected.
fn for_each_real(a: &impl ArrayData, mut f: impl FnMut(f64)) -> Result<()> {
    let p = a.payload();
    match a.elem() {
        ElementType::Int8 => walk::<i8>(p, |v| f(v as f64)),
        ElementType::Int16 => walk::<i16>(p, |v| f(v as f64)),
        ElementType::Int32 => walk::<i32>(p, |v| f(v as f64)),
        ElementType::Int64 => walk::<i64>(p, |v| f(v as f64)),
        ElementType::Float32 => walk::<f32>(p, |v| f(v as f64)),
        ElementType::Float64 => walk::<f64>(p, f),
        ElementType::Complex32 | ElementType::Complex64 => {
            return Err(ArrayError::BadConversion {
                from: a.elem(),
                to: ElementType::Float64,
            })
        }
    }
    Ok(())
}

/// Adds the `view` of every element of a payload of `T`s to `acc`, in
/// storage order.
#[inline]
fn add_views<T: Element>(payload: &[u8], acc: &mut ExactSum, view: impl Fn(T) -> f64) {
    acc.add_iter(payload.chunks_exact(T::SIZE).map(|c| view(T::read_le(c))));
}

/// Adds `f` of the `f64` view of every element of a real-typed array to
/// `acc`, in storage order; complex arrays are rejected.
fn sum_real(a: &impl ArrayData, acc: &mut ExactSum, f: impl Fn(f64) -> f64) -> Result<()> {
    let p = a.payload();
    match a.elem() {
        ElementType::Int8 => add_views::<i8>(p, acc, |v| f(v as f64)),
        ElementType::Int16 => add_views::<i16>(p, acc, |v| f(v as f64)),
        ElementType::Int32 => add_views::<i32>(p, acc, |v| f(v as f64)),
        ElementType::Int64 => add_views::<i64>(p, acc, |v| f(v as f64)),
        ElementType::Float32 => add_views::<f32>(p, acc, |v| f(v as f64)),
        ElementType::Float64 => add_views::<f64>(p, acc, f),
        ElementType::Complex32 | ElementType::Complex64 => {
            return Err(ArrayError::BadConversion {
                from: a.elem(),
                to: ElementType::Float64,
            })
        }
    }
    Ok(())
}

/// Sum of all elements. Complex arrays return a complex sum; real arrays a
/// double. Real (and complex-component) accumulation is exactly rounded.
pub fn sum(a: &impl ArrayData) -> Result<Scalar> {
    let p = a.payload();
    let (mut re, mut im) = (ExactSum::new(), ExactSum::new());
    match a.elem() {
        ElementType::Complex32 => {
            add_views::<Complex32>(p, &mut re, |c| c.re as f64);
            add_views::<Complex32>(p, &mut im, |c| c.im as f64);
        }
        ElementType::Complex64 => {
            add_views::<Complex64>(p, &mut re, |c| c.re);
            add_views::<Complex64>(p, &mut im, |c| c.im);
        }
        _ => {
            sum_real(a, &mut re, |v| v)?;
            return Ok(Scalar::F64(re.value()));
        }
    }
    Ok(Scalar::C64(Complex64::new(re.value(), im.value())))
}

/// Arithmetic mean of all elements.
pub fn mean(a: &impl ArrayData) -> Result<Scalar> {
    let n = a.count() as f64;
    match sum(a)? {
        Scalar::F64(s) => Ok(Scalar::F64(s / n)),
        Scalar::C64(s) => Ok(Scalar::C64(s.scale(1.0 / n))),
        _ => unreachable!("sum returns F64 or C64"),
    }
}

/// Minimum element (real types only).
pub fn min(a: &impl ArrayData) -> Result<Scalar> {
    fold_real(a, f64::INFINITY, |acc, v| acc.min(v))
}

/// Maximum element (real types only).
pub fn max(a: &impl ArrayData) -> Result<Scalar> {
    fold_real(a, f64::NEG_INFINITY, |acc, v| acc.max(v))
}

/// Population standard deviation (real types only). Computed with the
/// two-pass algorithm, both passes exactly rounded.
pub fn stddev(a: &impl ArrayData) -> Result<Scalar> {
    let n = a.count() as f64;
    let mut acc = ExactSum::new();
    sum_real(a, &mut acc, |v| v)?;
    let mu = acc.value() / n;
    let mut acc = ExactSum::new();
    sum_real(a, &mut acc, |v| {
        let d = v - mu;
        d * d
    })?;
    Ok(Scalar::F64((acc.value() / n).sqrt()))
}

/// Euclidean (L2) norm. Complex arrays use the modulus of each element.
/// The sum of squares is exactly rounded before the square root.
pub fn norm2(a: &impl ArrayData) -> Result<f64> {
    let mut acc = ExactSum::new();
    let p = a.payload();
    match a.elem() {
        ElementType::Complex32 => add_views::<Complex32>(p, &mut acc, |c| c.norm_sqr() as f64),
        ElementType::Complex64 => add_views::<Complex64>(p, &mut acc, |c| c.norm_sqr()),
        _ => sum_real(a, &mut acc, |v| v * v)?,
    }
    Ok(acc.value().sqrt())
}

/// Fails with [`Scalar::as_f64`]'s error unless every element has an `f64`
/// view: real arrays always do, a complex array when every imaginary part
/// is zero.
pub fn check_real(a: &impl ArrayData) -> Result<()> {
    fn all_real<T: Element>(payload: &[u8]) -> bool {
        payload
            .chunks_exact(T::SIZE)
            .all(|c| T::read_le(c).to_f64_checked().is_some())
    }
    let real = match a.elem() {
        ElementType::Complex32 => all_real::<Complex32>(a.payload()),
        ElementType::Complex64 => all_real::<Complex64>(a.payload()),
        _ => true,
    };
    if real {
        Ok(())
    } else {
        Err(ArrayError::BadConversion {
            from: a.elem(),
            to: ElementType::Float64,
        })
    }
}

/// Adds the `f64` view of each element into its own register: element `k`
/// (storage order) into `acc[k]` — the elementwise sum behind `VectorAvg`.
/// The view is [`Scalar::as_f64`]'s without a `Scalar` per element; a
/// complex element adds its real part, which is all of it exactly when
/// [`check_real`] passes.
pub fn add_elementwise(a: &impl ArrayData, acc: &mut [ExactSum]) {
    fn add<T: Element>(payload: &[u8], acc: &mut [ExactSum], view: impl Fn(T) -> f64) {
        for (reg, c) in acc.iter_mut().zip(payload.chunks_exact(T::SIZE)) {
            reg.add(view(T::read_le(c)));
        }
    }
    let p = a.payload();
    match a.elem() {
        ElementType::Int8 => add::<i8>(p, acc, |v| v as f64),
        ElementType::Int16 => add::<i16>(p, acc, |v| v as f64),
        ElementType::Int32 => add::<i32>(p, acc, |v| v as f64),
        ElementType::Int64 => add::<i64>(p, acc, |v| v as f64),
        ElementType::Float32 => add::<f32>(p, acc, |v| v as f64),
        ElementType::Float64 => add::<f64>(p, acc, |v| v),
        ElementType::Complex32 => add::<Complex32>(p, acc, |c| c.re as f64),
        ElementType::Complex64 => add::<Complex64>(p, acc, |c| c.re),
    }
}

/// Order-statistic fold (`min`/`max`). Unlike the summations above it
/// carries no rounding — `min`/`max` over `f64` views are exact by
/// construction — so a plain fold is already order-independent here.
fn fold_real(a: &impl ArrayData, init: f64, f: impl Fn(f64, f64) -> f64) -> Result<Scalar> {
    let mut acc = init;
    for_each_real(a, |v| acc = f(acc, v))?;
    Ok(Scalar::F64(acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::short_vector;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn sum_and_mean() {
        let a = short_vector(&[1.0f64, 2.0, 3.0, 4.0]).unwrap();
        assert!(close(sum(&a).unwrap().as_f64().unwrap(), 10.0));
        assert!(close(mean(&a).unwrap().as_f64().unwrap(), 2.5));
    }

    #[test]
    fn sum_is_exactly_rounded_and_order_independent() {
        // A cancellation pattern a naive fold loses in one direction —
        // the same contract the engine's parallel SUM makes.
        let xs = [1e100, 1.0, -1e100, 1e-30];
        let fwd = short_vector(&xs).unwrap();
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        let bwd = short_vector(&rev).unwrap();
        assert_eq!(sum(&fwd).unwrap(), sum(&bwd).unwrap());
        assert_eq!(sum(&fwd).unwrap(), Scalar::F64(1.0 + 1e-30));
    }

    #[test]
    fn integer_arrays_aggregate_as_doubles() {
        let a = short_vector(&[1i16, 2, 3]).unwrap();
        assert_eq!(sum(&a).unwrap(), Scalar::F64(6.0));
    }

    #[test]
    fn min_max() {
        let a = short_vector(&[3.0f32, -1.0, 2.0]).unwrap();
        assert_eq!(min(&a).unwrap(), Scalar::F64(-1.0));
        assert_eq!(max(&a).unwrap(), Scalar::F64(3.0));
    }

    #[test]
    fn stddev_two_pass() {
        let a = short_vector(&[2.0f64, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!(close(stddev(&a).unwrap().as_f64().unwrap(), 2.0));
    }

    #[test]
    fn complex_sum_and_mean() {
        let a = short_vector(&[Complex64::new(1.0, 2.0), Complex64::new(3.0, -1.0)]).unwrap();
        assert_eq!(sum(&a).unwrap(), Scalar::C64(Complex64::new(4.0, 1.0)));
        assert_eq!(mean(&a).unwrap(), Scalar::C64(Complex64::new(2.0, 0.5)));
    }

    #[test]
    fn order_stats_reject_complex() {
        let a = short_vector(&[Complex64::ONE]).unwrap();
        assert!(min(&a).is_err());
        assert!(max(&a).is_err());
        assert!(stddev(&a).is_err());
    }

    #[test]
    fn norm_and_nonzero() {
        let a = short_vector(&[3.0f64, 0.0, 4.0]).unwrap();
        assert!(close(norm2(&a).unwrap(), 5.0));
        let c = short_vector(&[Complex64::new(0.0, 0.0), Complex64::new(0.0, 2.0)]).unwrap();
        assert!(close(norm2(&c).unwrap(), 2.0));
    }

    #[test]
    fn aggregates_over_matrices() {
        let m = crate::build::matrix(
            crate::header::StorageClass::Short,
            2,
            2,
            &[1.0f64, 2.0, 3.0, 4.0],
        )
        .unwrap();
        assert!(close(sum(&m).unwrap().as_f64().unwrap(), 10.0));
    }
}
