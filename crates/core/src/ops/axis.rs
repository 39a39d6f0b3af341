//! Reductions over a single axis.
//!
//! "Higher dimensional spectrum processing would require subsetting arrays
//! and summation over certain axes to get, for example, the overall
//! spectrum of an object that was originally observed with an integral
//! field spectrograph." (§2.2)

use crate::array::SqlArray;
use crate::element::ElementType;
use crate::errors::{ArrayError, Result};
use crate::header::Header;
use crate::shape::Shape;

/// Sums `a` along `axis`, producing an array whose rank is one lower
/// (unless the input is 1-D, in which case the result is the 1-element
/// vector). Real inputs produce `float64` output, complex inputs
/// `complex64`.
pub fn sum_axis(a: &SqlArray, axis: usize) -> Result<SqlArray> {
    let rank = a.rank();
    if axis >= rank {
        return Err(ArrayError::BadAxis { axis, rank });
    }
    let complex = a.elem().is_complex();

    let dims = a.dims();
    let out_dims: Vec<usize> = if rank == 1 {
        vec![1]
    } else {
        dims.iter()
            .enumerate()
            .filter(|&(i, _)| i != axis)
            .map(|(_, &d)| d)
            .collect()
    };
    let out_elem = if complex {
        ElementType::Complex64
    } else {
        ElementType::Float64
    };
    let out_shape = Shape::new(&out_dims)?;
    let header = Header::new(a.class(), out_elem, out_shape.clone())?;
    let hlen = header.header_len();
    let mut out = vec![0u8; header.blob_len()];
    header.encode(&mut out);

    let strides = a.shape().strides();
    let axis_stride = strides[axis];
    let axis_len = dims[axis];
    let es = out_elem.size();

    // Iterate the output lattice; for each output cell walk the reduced
    // axis in the input.
    for out_lin in 0..out_shape.count() {
        let out_idx = out_shape.multi_index(out_lin);
        // Rebuild the input base offset with 0 on the reduced axis.
        let mut base = 0usize;
        let mut oi = 0usize;
        for (ax, &stride) in strides.iter().enumerate() {
            if ax == axis {
                continue;
            }
            let i = if rank == 1 { 0 } else { out_idx[oi] };
            base += i * stride;
            oi += 1;
        }
        if complex {
            let mut acc = crate::complex::Complex64::ZERO;
            for k in 0..axis_len {
                acc += a.item_linear(base + k * axis_stride).as_c64();
            }
            crate::scalar::Scalar::C64(acc).write_le(&mut out[hlen + out_lin * es..]);
        } else {
            let mut acc = 0.0;
            for k in 0..axis_len {
                acc += a.item_linear(base + k * axis_stride).as_f64()?;
            }
            crate::scalar::Scalar::F64(acc).write_le(&mut out[hlen + out_lin * es..]);
        }
    }
    SqlArray::from_blob(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::matrix;
    use crate::header::StorageClass;

    #[test]
    fn sum_over_matrix_axes() {
        // m = [[1,2,3],[4,5,6]]
        let m = matrix(
            StorageClass::Short,
            2,
            3,
            &[1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        // Reducing axis 0 (rows) leaves the 3 column sums.
        let cols = sum_axis(&m, 0).unwrap();
        assert_eq!(cols.dims(), &[3]);
        assert_eq!(cols.to_vec::<f64>().unwrap(), vec![5.0, 7.0, 9.0]);
        // Reducing axis 1 (columns) leaves the 2 row sums.
        let rows = sum_axis(&m, 1).unwrap();
        assert_eq!(rows.to_vec::<f64>().unwrap(), vec![6.0, 15.0]);
    }

    #[test]
    fn reduce_1d_to_scalar_vector() {
        let v = crate::build::short_vector(&[1.0f64, 2.0, 3.0]).unwrap();
        let s = sum_axis(&v, 0).unwrap();
        assert_eq!(s.dims(), &[1]);
        assert_eq!(s.to_vec::<f64>().unwrap(), vec![6.0]);
    }

    #[test]
    fn ifu_cube_collapses_to_spectrum() {
        // A 3-D IFU cube (wavelength, x, y): summing over both spatial axes
        // yields the integrated spectrum (§2.2).
        let cube = SqlArray::from_fn(StorageClass::Max, &[4, 3, 2], |idx| {
            (idx[0] + 1) as f64 // flux depends only on wavelength bin
        })
        .unwrap();
        let partial = sum_axis(&cube, 2).unwrap(); // sum over y
        assert_eq!(partial.dims(), &[4, 3]);
        let spectrum = sum_axis(&partial, 1).unwrap(); // sum over x
        assert_eq!(spectrum.dims(), &[4]);
        assert_eq!(
            spectrum.to_vec::<f64>().unwrap(),
            vec![6.0, 12.0, 18.0, 24.0]
        );
    }

    #[test]
    fn integer_input_reduces_to_float() {
        let m = matrix(StorageClass::Short, 2, 2, &[1i32, 2, 3, 4]).unwrap();
        let s = sum_axis(&m, 0).unwrap();
        assert_eq!(s.elem(), ElementType::Float64);
        assert_eq!(s.to_vec::<f64>().unwrap(), vec![4.0, 6.0]);
    }

    #[test]
    fn complex_sum_axis() {
        use crate::complex::Complex64;
        let v = SqlArray::from_vec(
            StorageClass::Short,
            &[2, 2],
            &[
                Complex64::new(1.0, 1.0),
                Complex64::new(2.0, -1.0),
                Complex64::new(0.5, 0.0),
                Complex64::new(0.5, 2.0),
            ],
        )
        .unwrap();
        let s = sum_axis(&v, 0).unwrap();
        assert_eq!(s.elem(), ElementType::Complex64);
        let vals = s.to_vec::<Complex64>().unwrap();
        assert_eq!(vals[0], Complex64::new(3.0, 0.0));
        assert_eq!(vals[1], Complex64::new(1.0, 2.0));
    }

    #[test]
    fn bad_axis_rejected() {
        let v = crate::build::short_vector(&[1.0f64]).unwrap();
        assert!(matches!(
            sum_axis(&v, 1),
            Err(ArrayError::BadAxis { axis: 1, rank: 1 })
        ));
    }
}
