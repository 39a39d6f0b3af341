//! The dynamically typed array blob.
//!
//! A [`SqlArray`] owns exactly the bytes that the original library stored in
//! a `VARBINARY` column: the header (see [`crate::header`]) immediately
//! followed by the elements in column-major order. Every operation is
//! defined on that buffer, so an array can round-trip through the storage
//! engine, the wire, or a file without any re-encoding.

use crate::element::{Element, ElementType};
use crate::errors::{ArrayError, Result};
use crate::header::{Header, StorageClass, SHORT_MAX_BYTES, SHORT_MAX_RANK};
use crate::scalar::Scalar;
use crate::shape::Shape;
use std::borrow::Cow;

/// A multidimensional array stored as a self-describing binary blob.
///
/// Invariants (enforced by every constructor):
/// * the buffer begins with a valid encoded [`Header`];
/// * the buffer length equals `header_len + count * elem_size`;
/// * short-class constraints (rank ≤ 6, total ≤ 8000 bytes) hold.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlArray {
    header: Header,
    buf: Vec<u8>,
}

impl SqlArray {
    // ---------------------------------------------------------------
    // Construction
    // ---------------------------------------------------------------

    /// Builds an array from typed data in column-major element order.
    pub fn from_vec<T: Element>(
        class: StorageClass,
        dims: &[usize],
        data: &[T],
    ) -> Result<SqlArray> {
        let shape = Shape::new(dims)?;
        if shape.count() != data.len() {
            return Err(ArrayError::CountMismatch {
                dims_product: shape.count(),
                count: data.len(),
            });
        }
        let header = Header::new(class, T::TYPE, shape)?;
        let hlen = header.header_len();
        let mut buf = vec![0u8; header.blob_len()];
        header.encode(&mut buf);
        for (i, &v) in data.iter().enumerate() {
            v.write_le(&mut buf[hlen + i * T::SIZE..]);
        }
        Ok(SqlArray { header, buf })
    }

    /// Builds a zero-filled array of a dynamically chosen element type.
    pub fn zeros(class: StorageClass, elem: ElementType, dims: &[usize]) -> Result<SqlArray> {
        let shape = Shape::new(dims)?;
        let header = Header::new(class, elem, shape)?;
        let mut buf = vec![0u8; header.blob_len()];
        header.encode(&mut buf);
        Ok(SqlArray { header, buf })
    }

    /// Builds an array by evaluating `f` at every multi-index, in
    /// column-major order.
    pub fn from_fn<T: Element>(
        class: StorageClass,
        dims: &[usize],
        mut f: impl FnMut(&[usize]) -> T,
    ) -> Result<SqlArray> {
        let shape = Shape::new(dims)?;
        let header = Header::new(class, T::TYPE, shape)?;
        let hlen = header.header_len();
        let mut buf = vec![0u8; header.blob_len()];
        header.encode(&mut buf);
        for lin in 0..header.shape.count() {
            let idx = header.shape.multi_index(lin);
            f(&idx).write_le(&mut buf[hlen + lin * T::SIZE..]);
        }
        Ok(SqlArray { header, buf })
    }

    /// Adopts a raw blob (header + payload), validating it end to end.
    /// This is the path every blob read from storage takes.
    pub fn from_blob(buf: Vec<u8>) -> Result<SqlArray> {
        let header = ArrayView::from_blob(&buf)?.header;
        Ok(SqlArray { header, buf })
    }

    /// Chooses the storage class automatically: short if the blob fits the
    /// in-page budget and the short-class limits, max otherwise. Mirrors
    /// what a user of the original library would do when deciding between
    /// `FloatArray` and `FloatArrayMax` schemas.
    pub(crate) fn auto_class(elem: ElementType, dims: &[usize]) -> Result<StorageClass> {
        let shape = Shape::new(dims)?;
        let fits_short = shape.rank() <= SHORT_MAX_RANK
            && shape
                .dims()
                .iter()
                .all(|&d| d <= crate::header::SHORT_MAX_DIM)
            && Header::new(StorageClass::Short, elem, shape.clone())
                .map(|h| h.blob_len() <= SHORT_MAX_BYTES)
                .unwrap_or(false);
        Ok(if fits_short {
            StorageClass::Short
        } else {
            StorageClass::Max
        })
    }

    // ---------------------------------------------------------------
    // Introspection (the T-SQL dimension/size accessors)
    // ---------------------------------------------------------------

    /// The decoded header.
    #[inline]
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Storage class of this blob.
    #[inline]
    pub fn class(&self) -> StorageClass {
        self.header.class
    }

    /// Element base type.
    #[inline]
    pub fn elem(&self) -> ElementType {
        self.header.elem
    }

    /// Shape (per-dimension sizes).
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.header.shape
    }

    /// Number of dimensions (`Rank` in the T-SQL interface).
    #[inline]
    pub fn rank(&self) -> usize {
        self.header.shape.rank()
    }

    /// Per-dimension sizes (`Size_N`).
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.header.shape.dims()
    }

    /// Total number of elements (`Count`).
    #[inline]
    pub fn count(&self) -> usize {
        self.header.shape.count()
    }

    // ---------------------------------------------------------------
    // Blob access
    // ---------------------------------------------------------------

    /// The full blob (header + payload) — what gets written to a
    /// `VARBINARY` column.
    #[inline]
    pub fn as_blob(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the array, returning the blob.
    #[inline]
    pub fn into_blob(self) -> Vec<u8> {
        self.buf
    }

    /// The payload bytes (elements only, header stripped). This is the
    /// T-SQL `Raw` function.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.buf[self.header.header_len()..]
    }

    /// Verifies the array carries elements of type `T`, the runtime check
    /// performed when a blob reaches a typed function schema.
    pub(crate) fn expect_type<T: Element>(&self) -> Result<()> {
        if self.elem() != T::TYPE {
            return Err(ArrayError::TypeMismatch {
                expected: T::TYPE,
                got: self.elem(),
            });
        }
        Ok(())
    }

    /// Borrows the payload as a typed slice when its address is already
    /// suitably aligned (the common case for heap buffers), copying
    /// otherwise. This is the "directly compatible with LAPACK" guarantee:
    /// math kernels receive the stored column-major data with no
    /// re-marshaling.
    pub fn elements<T: Element>(&self) -> Result<Cow<'_, [T]>> {
        self.expect_type::<T>()?;
        let payload = self.payload();
        assert_eq!(payload.len(), self.count() * T::SIZE);
        // Elements are stored little-endian, the native order on every
        // supported target; elsewhere the copy below decodes them.
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `align_to` splits the byte slice into a maximal aligned
            // middle. All eight element types are plain-old-data with no
            // invalid bit patterns at the byte level (verified by the
            // round-trip property tests), so reinterpreting aligned bytes is
            // sound on this little-endian target.
            let (head, mid, tail) = unsafe { payload.align_to::<T>() };
            if head.is_empty() && tail.is_empty() && mid.len() == self.count() {
                return Ok(Cow::Borrowed(mid));
            }
        }
        let mut out = Vec::with_capacity(self.count());
        for i in 0..self.count() {
            out.push(T::read_le(&payload[i * T::SIZE..]));
        }
        Ok(Cow::Owned(out))
    }

    /// Copies the payload into a typed `Vec` — the `.NET` client-side
    /// conversion (`dr.SqlFloatArray(...)`), a "simple memory copy".
    pub fn to_vec<T: Element>(&self) -> Result<Vec<T>> {
        Ok(self.elements::<T>()?.into_owned())
    }

    // ---------------------------------------------------------------
    // Item access (`Item_N`, `UpdateItem_N`)
    // ---------------------------------------------------------------

    /// Reads the element at a multi-index, dynamically typed.
    pub fn item(&self, idx: &[usize]) -> Result<Scalar> {
        let lin = self.header.shape.linear_index(idx)?;
        Ok(self.item_linear(lin))
    }

    /// Reads the element at a linear (column-major) offset. The offset must
    /// be in bounds.
    #[inline]
    pub(crate) fn item_linear(&self, lin: usize) -> Scalar {
        let es = self.elem().size();
        Scalar::read_le(self.elem(), &self.payload()[lin * es..])
    }

    /// Overwrites the element at a multi-index. The value is cast to the
    /// array's element type (SQL assignment semantics); an impossible cast
    /// (complex → real with non-zero imaginary part) fails.
    pub fn update_item(&mut self, idx: &[usize], value: Scalar) -> Result<()> {
        let lin = self.header.shape.linear_index(idx)?;
        let v = value.cast_to(self.elem())?;
        let es = self.elem().size();
        let h = self.header.header_len();
        v.write_le(&mut self.buf[h + lin * es..]);
        Ok(())
    }

    /// Iterates all elements as dynamically typed scalars, in storage
    /// (column-major) order.
    pub fn iter_scalars(&self) -> impl Iterator<Item = Scalar> + '_ {
        (0..self.count()).map(|lin| self.item_linear(lin))
    }
}

/// Read access to an array blob — the decoded header plus the payload
/// bytes — shared by the owned [`SqlArray`] and the borrowed
/// [`ArrayView`], so read-only kernels (`Item`, the whole-array
/// aggregates) run over either without copying.
pub trait ArrayData {
    /// The decoded header.
    fn header(&self) -> &Header;

    /// The payload bytes (elements only, header stripped).
    fn payload(&self) -> &[u8];

    /// Element base type.
    #[inline]
    fn elem(&self) -> ElementType {
        self.header().elem
    }

    /// Storage class of the blob.
    #[inline]
    fn class(&self) -> StorageClass {
        self.header().class
    }

    /// Number of dimensions.
    #[inline]
    fn rank(&self) -> usize {
        self.header().shape.rank()
    }

    /// Per-dimension sizes.
    #[inline]
    fn dims(&self) -> &[usize] {
        self.header().shape.dims()
    }

    /// Total number of elements.
    #[inline]
    fn count(&self) -> usize {
        self.header().shape.count()
    }

    /// Reads the element at a multi-index, dynamically typed.
    fn item(&self, idx: &[usize]) -> Result<Scalar> {
        let lin = self.header().shape.linear_index(idx)?;
        let elem = self.elem();
        Ok(Scalar::read_le(elem, &self.payload()[lin * elem.size()..]))
    }
}

impl ArrayData for SqlArray {
    #[inline]
    fn header(&self) -> &Header {
        &self.header
    }

    #[inline]
    fn payload(&self) -> &[u8] {
        SqlArray::payload(self)
    }
}

/// A validated array blob borrowed from someone else's buffer — a batch
/// cell, a UDF argument — instead of copied into a [`SqlArray`].
///
/// [`ArrayView::from_blob`] is the blob validation (header decode,
/// payload length) — [`SqlArray::from_blob`] goes through it — so handing
/// a read-only function a view keeps every runtime check and drops only
/// the copy.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayView<'a> {
    header: Header,
    buf: &'a [u8],
}

impl<'a> ArrayView<'a> {
    /// Borrows a raw blob (header + payload), validating it end to end.
    #[inline]
    pub fn from_blob(buf: &'a [u8]) -> Result<ArrayView<'a>> {
        let header = Header::decode(buf)?;
        let need = header.blob_len();
        if buf.len() != need {
            return Err(ArrayError::PayloadSizeMismatch {
                got: buf.len(),
                need,
            });
        }
        Ok(ArrayView { header, buf })
    }

    /// Copies the viewed blob into an owned array.
    pub fn into_array(self) -> SqlArray {
        SqlArray {
            header: self.header,
            buf: self.buf.to_vec(),
        }
    }
}

impl ArrayData for ArrayView<'_> {
    #[inline]
    fn header(&self) -> &Header {
        &self.header
    }

    #[inline]
    fn payload(&self) -> &[u8] {
        &self.buf[self.header.header_len()..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_round_trip() {
        let a =
            SqlArray::from_vec(StorageClass::Short, &[5], &[1.0f64, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(a.rank(), 1);
        assert_eq!(a.count(), 5);
        assert_eq!(a.elem(), ElementType::Float64);
        assert_eq!(a.to_vec::<f64>().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn from_vec_count_mismatch() {
        let err = SqlArray::from_vec(StorageClass::Short, &[4], &[1.0f64, 2.0]);
        assert!(matches!(err, Err(ArrayError::CountMismatch { .. })));
    }

    #[test]
    fn blob_round_trip_preserves_bytes() {
        let a = SqlArray::from_vec(StorageClass::Max, &[2, 3], &[1i32, 2, 3, 4, 5, 6]).unwrap();
        let blob = a.as_blob().to_vec();
        let b = SqlArray::from_blob(blob.clone()).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.as_blob(), &blob[..]);
    }

    #[test]
    fn from_blob_rejects_wrong_length() {
        let a = SqlArray::from_vec(StorageClass::Short, &[3], &[1i16, 2, 3]).unwrap();
        let mut blob = a.into_blob();
        blob.push(0);
        assert!(matches!(
            SqlArray::from_blob(blob),
            Err(ArrayError::PayloadSizeMismatch { .. })
        ));
    }

    #[test]
    fn item_is_column_major() {
        // Matrix [[0.1, 0.3], [0.2, 0.4]] stored column-major as
        // 0.1, 0.2, 0.3, 0.4 — matches the paper's Matrix_2 example where
        // Item_2(@m, 1, 0) is the second stored element.
        let m = SqlArray::from_vec(StorageClass::Short, &[2, 2], &[0.1f64, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(m.item(&[1, 0]).unwrap(), Scalar::F64(0.2));
        assert_eq!(m.item(&[0, 1]).unwrap(), Scalar::F64(0.3));
    }

    #[test]
    fn item_errors() {
        let a = SqlArray::from_vec(StorageClass::Short, &[2, 2], &[1i32, 2, 3, 4]).unwrap();
        assert!(a.item(&[2, 0]).is_err());
        assert!(a.item(&[0]).is_err());
    }

    #[test]
    fn update_item_casts_value() {
        let mut a = SqlArray::from_vec(StorageClass::Short, &[3], &[1i32, 2, 3]).unwrap();
        a.update_item(&[1], Scalar::F64(7.9)).unwrap();
        assert_eq!(a.item(&[1]).unwrap(), Scalar::I32(7)); // truncated
        assert!(a
            .update_item(&[0], Scalar::C64(crate::complex::Complex64::I))
            .is_err());
    }

    #[test]
    fn elements_zero_copy_when_aligned() {
        let a = SqlArray::from_vec(StorageClass::Short, &[4], &[1.0f64, 2.0, 3.0, 4.0]).unwrap();
        let view = a.elements::<f64>().unwrap();
        assert_eq!(&view[..], &[1.0, 2.0, 3.0, 4.0]);
        // Short header is 24 bytes and Vec allocations are ≥ 8-aligned, so
        // the borrow branch is virtually always taken; either way the data
        // must be identical.
        let owned = a.to_vec::<f64>().unwrap();
        assert_eq!(owned, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn zeros_of_a_dynamic_type() {
        let z = SqlArray::zeros(StorageClass::Max, ElementType::Complex64, &[3]).unwrap();
        assert!(z
            .iter_scalars()
            .all(|s| s == Scalar::C64(crate::complex::Complex64::ZERO)));
    }

    #[test]
    fn from_fn_sees_multi_indices() {
        let a = SqlArray::from_fn(StorageClass::Short, &[3, 2], |idx| {
            (10 * idx[0] + idx[1]) as i32
        })
        .unwrap();
        assert_eq!(a.item(&[2, 1]).unwrap(), Scalar::I32(21));
        assert_eq!(a.item(&[0, 0]).unwrap(), Scalar::I32(0));
    }

    #[test]
    fn auto_class_picks_short_until_page_budget() {
        assert_eq!(
            SqlArray::auto_class(ElementType::Float64, &[100]).unwrap(),
            StorageClass::Short
        );
        assert_eq!(
            SqlArray::auto_class(ElementType::Float64, &[2000]).unwrap(),
            StorageClass::Max
        );
        // Rank 7 can never be short.
        assert_eq!(
            SqlArray::auto_class(ElementType::Int8, &[1, 1, 1, 1, 1, 1, 2]).unwrap(),
            StorageClass::Max
        );
    }

    #[test]
    fn view_checks_like_from_blob_and_reads_like_the_array() {
        let a = SqlArray::from_vec(StorageClass::Max, &[2, 3], &[1i32, 2, 3, 4, 5, 6]).unwrap();
        let v = ArrayView::from_blob(a.as_blob()).unwrap();
        assert_eq!(v.header(), a.header());
        assert_eq!(ArrayData::payload(&v), a.payload());
        assert_eq!(v.item(&[1, 2]).unwrap(), a.item(&[1, 2]).unwrap());
        assert!(v.item(&[2, 0]).is_err());
        assert_eq!(v.into_array(), a);
        let blob = a.as_blob();
        assert!(matches!(
            ArrayView::from_blob(&blob[..blob.len() - 1]),
            Err(ArrayError::PayloadSizeMismatch { .. })
        ));
        let mut long = blob.to_vec();
        long.push(0);
        assert!(matches!(
            ArrayView::from_blob(&long),
            Err(ArrayError::PayloadSizeMismatch { .. })
        ));
    }

    #[test]
    fn payload_is_header_stripped() {
        let a = SqlArray::from_vec(StorageClass::Short, &[2], &[1i64, 2]).unwrap();
        assert_eq!(a.as_blob().len(), 24 + 16);
        assert_eq!(a.payload().len(), 16);
        assert_eq!(i64::read_le(a.payload()), 1);
    }
}
