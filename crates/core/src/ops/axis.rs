//! Reductions over a single axis.
//!
//! "Higher dimensional spectrum processing would require subsetting arrays
//! and summation over certain axes to get, for example, the overall
//! spectrum of an object that was originally observed with an integral
//! field spectrograph." (§2.2)

use crate::array::SqlArray;
use crate::complex::{Complex32, Complex64};
use crate::element::{Element, ElementType};
use crate::errors::{ArrayError, Result};
use crate::exact::ExactSum;
use crate::header::Header;
use crate::shape::Shape;

/// Sums `a` along `axis`, producing an array whose rank is one lower
/// (unless the input is 1-D, in which case the result is the 1-element
/// vector). Real inputs produce `float64` output, complex inputs
/// `complex64`.
///
/// Each output cell is the exactly rounded sum of its lane, like `Sum`:
/// the lane's elements go to one [`ExactSum`] (one per component for
/// complex), read straight from the payload at the axis stride.
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

    let lanes = Lanes {
        payload: a.payload(),
        dims,
        strides: a.shape().strides(),
        axis,
    };
    let cells = &mut out[hlen..];
    match a.elem() {
        ElementType::Int8 => lanes.sum_into::<i8, 1>(cells, [|v| v as f64]),
        ElementType::Int16 => lanes.sum_into::<i16, 1>(cells, [|v| v as f64]),
        ElementType::Int32 => lanes.sum_into::<i32, 1>(cells, [|v| v as f64]),
        ElementType::Int64 => lanes.sum_into::<i64, 1>(cells, [|v| v as f64]),
        ElementType::Float32 => lanes.sum_into::<f32, 1>(cells, [|v| v as f64]),
        ElementType::Float64 => lanes.sum_into::<f64, 1>(cells, [|v| v]),
        ElementType::Complex32 => {
            lanes.sum_into::<Complex32, 2>(cells, [|c| c.re as f64, |c| c.im as f64])
        }
        ElementType::Complex64 => lanes.sum_into::<Complex64, 2>(cells, [|c| c.re, |c| c.im]),
    }
    SqlArray::from_blob(out)
}

/// The lanes of one reduction: the input's payload and geometry, and the
/// axis every lane runs along.
struct Lanes<'a> {
    payload: &'a [u8],
    dims: &'a [usize],
    strides: Vec<usize>,
    axis: usize,
}

impl Lanes<'_> {
    /// Writes the sum of every lane into its output cell, in output
    /// (column-major) order: `N` components per cell, component `c` the
    /// exact sum of `views[c]` over the lane's `T` elements, stored as
    /// `f64` (one component) or `complex64` (two).
    fn sum_into<T: Element, const N: usize>(&self, cells: &mut [u8], views: [fn(T) -> f64; N]) {
        let (stride, len) = (self.strides[self.axis], self.dims[self.axis]);
        let at = |i: usize| T::read_le(&self.payload[i * T::SIZE..(i + 1) * T::SIZE]);
        for (out_lin, cell) in cells.chunks_exact_mut(8 * N).enumerate() {
            // The lane's first element: the output index spread over the
            // kept axes, 0 on the reduced one.
            let (mut rem, mut base) = (out_lin, 0);
            for (ax, (&d, &s)) in self.dims.iter().zip(&self.strides).enumerate() {
                if ax != self.axis {
                    base += rem % d * s;
                    rem /= d;
                }
            }
            // A `complex64` cell is its real part's `f64`, then its
            // imaginary part's.
            for (view, part) in views.iter().zip(cell.chunks_exact_mut(8)) {
                let mut acc = ExactSum::new();
                acc.add_iter((0..len).map(|k| view(at(base + k * stride))));
                acc.value().write_le(part);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::matrix;
    use crate::header::StorageClass;
    use crate::rng::{Rng, SeedableRng, StdRng};
    use crate::scalar::Scalar;

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

    /// The limb-at-a-time register's rounded sum of `xs`.
    fn limb_sum(xs: impl IntoIterator<Item = f64>) -> f64 {
        let mut acc = crate::exact::reference::LimbSum::new();
        xs.into_iter().for_each(|x| acc.add(x));
        acc.value()
    }

    #[test]
    fn a_cancelling_lane_sums_exactly() {
        // Plain `+=` gives 0.0 here; the exact sum keeps the 1.
        let v = crate::build::short_vector(&[1e100, 1.0, -1e100]).unwrap();
        let s = sum_axis(&v, 0).unwrap();
        assert_eq!(s.to_vec::<f64>().unwrap(), vec![1.0]);
        assert_eq!(crate::ops::agg::sum(&v).unwrap(), Scalar::F64(1.0));
        // Along either axis of a matrix, and per component of a complex one.
        let m = matrix(
            StorageClass::Short,
            3,
            2,
            &[1e100, 2.0, 1.0, -1e100, -1e100, 1e100],
        )
        .unwrap();
        assert_eq!(
            sum_axis(&m, 0).unwrap().to_vec::<f64>().unwrap(),
            [1.0, 2.0]
        );
        let c = SqlArray::from_vec(
            StorageClass::Short,
            &[3],
            &[
                Complex64::new(1e100, -1e300),
                Complex64::new(1.0, 2.0),
                Complex64::new(-1e100, 1e300),
            ],
        )
        .unwrap();
        let s = sum_axis(&c, 0).unwrap();
        assert_eq!(s.to_vec::<Complex64>().unwrap(), [Complex64::new(1.0, 2.0)]);
    }

    /// Values of random sign whose magnitudes span `2^-60..2^60`, with the
    /// occasional exact cancellation partner.
    fn spread_values(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let mut xs: Vec<f64> = (0..n)
            .map(|_| {
                let x = (rng.gen::<f64>() + 0.5) * 2f64.powi(rng.gen_range(-60..60));
                if rng.gen_bool(0.5) {
                    -x
                } else {
                    x
                }
            })
            .collect();
        for i in 1..n {
            if rng.gen_range(0..4) == 0 {
                xs[i] = -xs[i - 1];
            }
        }
        xs
    }

    #[test]
    fn sum_axis_of_a_vector_is_its_sum() {
        let mut rng = StdRng::seed_from_u64(0x5A_0A);
        for n in [1, 2, 3, 17, 256, 1025] {
            let xs = spread_values(&mut rng, n);
            let v = SqlArray::from_vec(StorageClass::Max, &[n], &xs).unwrap();
            let axis = sum_axis(&v, 0).unwrap().to_vec::<f64>().unwrap();
            let Scalar::F64(sum) = crate::ops::agg::sum(&v).unwrap() else {
                panic!("a real sum")
            };
            assert_eq!(axis[0].to_bits(), sum.to_bits(), "{n} values");
            assert_eq!(sum.to_bits(), limb_sum(xs).to_bits(), "{n} values");
        }
    }

    #[test]
    fn every_axis_of_random_shapes_sums_each_lane_exactly() {
        let mut rng = StdRng::seed_from_u64(0xA8_15);
        for _ in 0..40 {
            let rank = rng.gen_range(1..5);
            let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..7)).collect();
            let shape = Shape::new(&dims).unwrap();
            let xs = spread_values(&mut rng, shape.count());
            let ints: Vec<i32> = xs.iter().map(|x| (x * 1e-9) as i32).collect();
            let cs: Vec<Complex64> = xs
                .iter()
                .zip(xs.iter().rev())
                .map(|(&re, &im)| Complex64::new(re, im))
                .collect();
            let real = SqlArray::from_vec(StorageClass::Max, &dims, &xs).unwrap();
            let int = SqlArray::from_vec(StorageClass::Max, &dims, &ints).unwrap();
            let complex = SqlArray::from_vec(StorageClass::Max, &dims, &cs).unwrap();
            for axis in 0..rank {
                // The oracle: every input element whose index, with
                // `axis` dropped, is the output cell's index.
                let lane_of = |lin: usize| {
                    let mut idx = shape.multi_index(lin);
                    idx.remove(axis);
                    idx
                };
                let s = sum_axis(&real, axis).unwrap();
                let si = sum_axis(&int, axis).unwrap();
                let sc = sum_axis(&complex, axis).unwrap();
                let (got, got_i) = (s.to_vec::<f64>().unwrap(), si.to_vec::<f64>().unwrap());
                let got_c = sc.to_vec::<Complex64>().unwrap();
                for cell in 0..s.count() {
                    let want_idx = if rank == 1 {
                        Vec::new()
                    } else {
                        s.shape().multi_index(cell)
                    };
                    let lane: Vec<usize> = (0..shape.count())
                        .filter(|&lin| lane_of(lin) == want_idx)
                        .collect();
                    assert_eq!(lane.len(), dims[axis]);
                    let want = limb_sum(lane.iter().map(|&l| xs[l]));
                    assert_eq!(got[cell].to_bits(), want.to_bits(), "{dims:?} axis {axis}");
                    let want = limb_sum(lane.iter().map(|&l| ints[l] as f64));
                    assert_eq!(
                        got_i[cell].to_bits(),
                        want.to_bits(),
                        "{dims:?} axis {axis}"
                    );
                    let re = limb_sum(lane.iter().map(|&l| cs[l].re));
                    let im = limb_sum(lane.iter().map(|&l| cs[l].im));
                    assert_eq!(
                        (got_c[cell].re.to_bits(), got_c[cell].im.to_bits()),
                        (re.to_bits(), im.to_bits()),
                        "{dims:?} axis {axis}"
                    );
                }
            }
        }
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
