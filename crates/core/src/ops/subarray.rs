//! Contiguous subarray extraction (`Subarray`).
//!
//! "Sub-arrays of an array can be retrieved using the Subarray function. The
//! offset of the sub-array and the dimension sizes are the input parameters.
//! Only retrieval of contiguous parts of the arrays is supported. [...] The
//! last parameter specifies whether subarrays with length of one in any
//! dimension are automatically converted to a lower dimensional array. This
//! is useful, for example, for retrieving the column vectors of a matrix."
//! (§5.1)

use crate::array::SqlArray;
use crate::errors::Result;
use crate::header::Header;

/// Extracts the rectangular region `[offset, offset+size)` along each axis.
///
/// The result keeps the element type and storage class of the input. When
/// `squeeze` is true, axes of length 1 in the result are dropped (a
/// 5×1×5 slab becomes a 5×5 matrix; a fully scalar result becomes `[1]`).
pub fn subarray(a: &SqlArray, offset: &[usize], size: &[usize], squeeze: bool) -> Result<SqlArray> {
    let region = a.shape().validate_subarray(offset, size)?;
    let out_shape = if squeeze { region.squeeze() } else { region };
    let es = a.elem().size();

    let out_header = Header::new(a.class(), a.elem(), out_shape)?;
    let out_hlen = out_header.header_len();
    let mut out = vec![0u8; out_header.blob_len()];
    out_header.encode(&mut out);

    let payload = a.payload();
    let mut cursor = out_hlen;
    for (start_elem, run_elems) in a.shape().region_runs(offset, size) {
        let src = start_elem * es..(start_elem + run_elems) * es;
        out[cursor..cursor + run_elems * es].copy_from_slice(&payload[src]);
        cursor += run_elems * es;
    }
    assert_eq!(cursor, out.len());
    SqlArray::from_blob(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::StorageClass;
    use crate::scalar::Scalar;

    fn grid3d() -> SqlArray {
        SqlArray::from_fn(StorageClass::Max, &[6, 5, 4], |idx| {
            (100 * idx[0] + 10 * idx[1] + idx[2]) as i64
        })
        .unwrap()
    }

    #[test]
    fn paper_cube_example() {
        // Subarray(@a, Vector_3(1,4,6), Vector_3(5,5,5), 0) on a 3-D array:
        // offsets (1,4,6), sizes (5,5,5), no squeeze.
        let a = SqlArray::from_fn(StorageClass::Max, &[8, 10, 12], |idx| {
            (idx[0] + 8 * idx[1] + 80 * idx[2]) as f32
        })
        .unwrap();
        let s = subarray(&a, &[1, 4, 6], &[5, 5, 5], false).unwrap();
        assert_eq!(s.dims(), &[5, 5, 5]);
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    assert_eq!(
                        s.item(&[i, j, k]).unwrap(),
                        a.item(&[1 + i, 4 + j, 6 + k]).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn subarray_values_match_source() {
        let a = grid3d();
        let s = subarray(&a, &[2, 1, 0], &[3, 2, 4], false).unwrap();
        assert_eq!(s.dims(), &[3, 2, 4]);
        for i in 0..3 {
            for j in 0..2 {
                for k in 0..4 {
                    assert_eq!(
                        s.item(&[i, j, k]).unwrap(),
                        Scalar::I64((100 * (i + 2) + 10 * (j + 1) + k) as i64)
                    );
                }
            }
        }
    }

    #[test]
    fn squeeze_lowers_rank() {
        let a = grid3d();
        let s = subarray(&a, &[0, 3, 0], &[6, 1, 4], true).unwrap();
        assert_eq!(s.dims(), &[6, 4]);
        assert_eq!(s.item(&[5, 2]).unwrap(), Scalar::I64(100 * 5 + 10 * 3 + 2));
        let unsqueezed = subarray(&a, &[0, 3, 0], &[6, 1, 4], false).unwrap();
        assert_eq!(unsqueezed.dims(), &[6, 1, 4]);
    }

    #[test]
    fn scalar_region_squeezes_to_unit_vector() {
        let a = grid3d();
        let s = subarray(&a, &[3, 2, 1], &[1, 1, 1], true).unwrap();
        assert_eq!(s.dims(), &[1]);
        assert_eq!(s.item(&[0]).unwrap(), Scalar::I64(321));
    }

    #[test]
    fn matrix_column() {
        let m = crate::build::matrix(
            StorageClass::Short,
            2,
            3,
            &[1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        // m = [[1,2,3],[4,5,6]]; column 1, squeezed to a vector.
        let c1 = subarray(&m, &[0, 1], &[2, 1], true).unwrap();
        assert_eq!(c1.dims(), &[2]);
        assert_eq!(c1.to_vec::<f64>().unwrap(), vec![2.0, 5.0]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let a = grid3d();
        assert!(subarray(&a, &[4, 0, 0], &[3, 1, 1], false).is_err());
        assert!(subarray(&a, &[0, 0], &[1, 1], false).is_err());
    }

    #[test]
    fn keeps_class_and_type() {
        let a = SqlArray::from_vec(StorageClass::Short, &[4], &[1i16, 2, 3, 4]).unwrap();
        let s = subarray(&a, &[1], &[2], false).unwrap();
        assert_eq!(s.class(), StorageClass::Short);
        assert_eq!(s.elem(), crate::element::ElementType::Int16);
        assert_eq!(s.to_vec::<i16>().unwrap(), vec![2, 3]);
    }

    #[test]
    fn full_extent_subarray_is_identity() {
        let a = grid3d();
        let dims = a.dims().to_vec();
        let s = subarray(&a, &[0, 0, 0], &dims, false).unwrap();
        assert_eq!(s, a);
    }
}
