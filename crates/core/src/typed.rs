//! Strongly typed array views.
//!
//! [`TypedArray<T>`] wraps a [`SqlArray`] whose element type is known to be
//! `T`, eliminating per-call tag checks in kernels. It corresponds to the
//! per-type function schemas of the original library (`FloatArray.*` only
//! accepts double arrays; the check happens once, when the blob enters the
//! schema).

use crate::array::SqlArray;
use crate::element::Element;
use crate::errors::{ArrayError, Result};
use crate::header::StorageClass;
use std::marker::PhantomData;

/// A [`SqlArray`] with a compile-time element type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedArray<T: Element> {
    inner: SqlArray,
    _t: PhantomData<T>,
}

impl<T: Element> TypedArray<T> {
    /// Wraps a dynamically typed array, verifying the element type once.
    pub fn new(inner: SqlArray) -> Result<Self> {
        inner.expect_type::<T>()?;
        Ok(TypedArray {
            inner,
            _t: PhantomData,
        })
    }

    /// Builds directly from data (column-major order).
    pub fn from_vec(class: StorageClass, dims: &[usize], data: &[T]) -> Result<Self> {
        Ok(TypedArray {
            inner: SqlArray::from_vec(class, dims, data)?,
            _t: PhantomData,
        })
    }

    /// Per-dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.inner.dims()
    }

    /// Total element count.
    #[inline]
    pub fn count(&self) -> usize {
        self.inner.count()
    }

    /// Typed multi-index read.
    pub fn get(&self, idx: &[usize]) -> Result<T> {
        let lin = self.inner.shape().linear_index(idx)?;
        Ok(self.inner.item_linear_as_unchecked::<T>(lin))
    }

    /// Typed multi-index write.
    pub fn set(&mut self, idx: &[usize], value: T) -> Result<()> {
        let lin = self.inner.shape().linear_index(idx)?;
        self.inner.set_linear(lin, value)
    }

    /// Iterates elements in storage (column-major) order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.count()).map(move |lin| self.inner.item_linear_as_unchecked::<T>(lin))
    }

    /// Copies all elements out.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }

    /// Applies `f` elementwise, producing a new array of the same shape and
    /// class.
    pub fn map<U: Element>(&self, mut f: impl FnMut(T) -> U) -> Result<TypedArray<U>> {
        let data: Vec<U> = self.iter().map(&mut f).collect();
        // A short array can grow beyond the page budget if U is wider than
        // T; fall back to the max class transparently in that case.
        let class = self.inner.class();
        match SqlArray::from_vec(class, self.dims(), &data) {
            Ok(a) => TypedArray::new(a),
            Err(ArrayError::ShortTooLarge { .. }) => {
                TypedArray::new(SqlArray::from_vec(StorageClass::Max, self.dims(), &data)?)
            }
            Err(e) => Err(e),
        }
    }
}

impl<T: Element> TryFrom<SqlArray> for TypedArray<T> {
    type Error = ArrayError;

    fn try_from(a: SqlArray) -> Result<Self> {
        TypedArray::new(a)
    }
}

impl<T: Element> From<TypedArray<T>> for SqlArray {
    fn from(a: TypedArray<T>) -> SqlArray {
        a.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_checks_type_once() {
        let a = SqlArray::from_vec(StorageClass::Short, &[3], &[1i32, 2, 3]).unwrap();
        assert!(TypedArray::<i32>::new(a.clone()).is_ok());
        assert!(matches!(
            TypedArray::<f64>::new(a),
            Err(ArrayError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t =
            TypedArray::<f64>::from_vec(StorageClass::Short, &[2, 2], &[1.0, 2.0, 3.0, 4.0])
                .unwrap();
        t.set(&[0, 1], 9.5).unwrap();
        assert_eq!(t.get(&[0, 1]).unwrap(), 9.5);
        assert_eq!(t.get(&[1, 0]).unwrap(), 2.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn map_changes_type() {
        let t = TypedArray::<i32>::from_vec(StorageClass::Short, &[3], &[1, 2, 3]).unwrap();
        let d = t.map(|v| v as f64 * 0.5).unwrap();
        assert_eq!(d.to_vec(), vec![0.5, 1.0, 1.5]);
        assert_eq!(SqlArray::from(d).class(), StorageClass::Short);
    }

    #[test]
    fn map_widening_overflows_to_max_class() {
        // 900 i64 values are 7200 bytes + 24 = fits short; mapping to
        // complex128 doubles the payload beyond 8000 bytes, so the result
        // silently becomes a max array.
        let data: Vec<i64> = (0..900).collect();
        let t = TypedArray::<i64>::from_vec(StorageClass::Short, &[900], &data).unwrap();
        let c = t
            .map(|v| crate::complex::Complex64::new(v as f64, 0.0))
            .unwrap();
        assert_eq!(c.count(), 900);
        assert_eq!(SqlArray::from(c).class(), StorageClass::Max);
    }

    #[test]
    fn conversion_traits() {
        let t = TypedArray::<f32>::from_vec(StorageClass::Short, &[2], &[1.0, 2.0]).unwrap();
        let d: SqlArray = t.clone().into();
        let back: TypedArray<f32> = d.try_into().unwrap();
        assert_eq!(back, t);
    }
}
