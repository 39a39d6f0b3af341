//! Multidimensional transforms over column-major buffers.
//!
//! Applies a 1-D transform along every axis in turn, gathering strided
//! lines into a contiguous scratch buffer. The layout contract is the
//! array blob's: column-major, first index fastest — so an `n₀×n₁×n₂`
//! max-array payload transforms in place with no reshaping.
//!
//! Every line is transformed on the calling thread — inside a query, the
//! scan worker evaluating the row (the scan is the parallel unit).

use crate::plan::{Direction, Plan};
use sqlarray_core::Complex64;

/// In-place n-dimensional DFT of column-major `data` with shape `dims`.
/// Unnormalized in both directions (like FFTW): a forward+inverse round
/// trip scales by `Πdims`.
pub fn fftn(data: &mut [Complex64], dims: &[usize], dir: Direction) {
    let count: usize = dims.iter().product();
    assert_eq!(data.len(), count, "buffer must hold the whole lattice");
    if count == 0 {
        return;
    }

    let mut stride = 1usize;
    for &n in dims {
        if n > 1 {
            transform_axis(data, count, n, stride, dir);
        }
        stride *= n;
    }
}

/// Transforms every length-`n` line along the axis with the given stride.
fn transform_axis(data: &mut [Complex64], count: usize, n: usize, stride: usize, dir: Direction) {
    let plan = Plan::new(n, dir);
    let mut line = vec![Complex64::ZERO; n];
    let lines = count / n;
    // Enumerate line origins: indices whose coordinate on this axis is 0.
    // For the axis with extent n and stride s, origins are
    // base = (block * s * n) + offset, offset in [0, s).
    let block_len = stride * n;
    let blocks = count / block_len;
    assert_eq!(blocks * stride, lines);
    for b in 0..blocks {
        for off in 0..stride {
            let base = b * block_len + off;
            for (k, slot) in line.iter_mut().enumerate() {
                *slot = data[base + k * stride];
            }
            plan.execute_inplace(&mut line);
            for (k, &v) in line.iter().enumerate() {
                data[base + k * stride] = v;
            }
        }
    }
}

/// Normalized inverse n-D transform: `ifftn(fftn(x)) = x`.
pub fn ifftn_normalized(data: &mut [Complex64], dims: &[usize]) {
    fftn(data, dims, Direction::Inverse);
    let scale = 1.0 / dims.iter().product::<usize>() as f64;
    for v in data.iter_mut() {
        *v = v.scale(scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(dims: &[usize]) -> Vec<Complex64> {
        let count: usize = dims.iter().product();
        (0..count)
            .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos()))
            .collect()
    }

    #[test]
    fn round_trip_2d_and_3d() {
        for dims in [&[4usize, 8][..], &[3, 5, 7][..], &[8, 8, 8][..]] {
            let orig = lattice(dims);
            let mut data = orig.clone();
            fftn(&mut data, dims, Direction::Forward);
            ifftn_normalized(&mut data, dims);
            for (a, b) in data.iter().zip(&orig) {
                assert!((*a - *b).abs() < 1e-9, "dims {dims:?}");
            }
        }
    }

    #[test]
    fn separable_2d_matches_manual_rows_then_cols() {
        // 2-D DFT = 1-D over columns then 1-D over rows (any order).
        let dims = [4usize, 4];
        let orig = lattice(&dims);
        let mut fast = orig.clone();
        fftn(&mut fast, &dims, Direction::Forward);

        // Manual: axis 0 (contiguous columns), then axis 1 (strided).
        let mut manual = orig.clone();
        let plan = Plan::new(4, Direction::Forward);
        for c in 0..4 {
            let mut col: Vec<Complex64> = (0..4).map(|r| manual[c * 4 + r]).collect();
            plan.execute_inplace(&mut col);
            for r in 0..4 {
                manual[c * 4 + r] = col[r];
            }
        }
        for r in 0..4 {
            let mut row: Vec<Complex64> = (0..4).map(|c| manual[c * 4 + r]).collect();
            plan.execute_inplace(&mut row);
            for c in 0..4 {
                manual[c * 4 + r] = row[c];
            }
        }
        for (a, b) in fast.iter().zip(&manual) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn plane_wave_concentrates_in_one_3d_bin() {
        let n = 8usize;
        let dims = [n, n, n];
        let (kx, ky, kz) = (2usize, 3, 1);
        let tau = 2.0 * std::f64::consts::PI / n as f64;
        let mut data = vec![Complex64::ZERO; n * n * n];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    data[x + n * y + n * n * z] =
                        Complex64::cis(tau * (kx * x + ky * y + kz * z) as f64);
                }
            }
        }
        fftn(&mut data, &dims, Direction::Forward);
        let hot = kx + n * ky + n * n * kz;
        let total = (n * n * n) as f64;
        assert!((data[hot].abs() - total).abs() < 1e-6);
        for (i, v) in data.iter().enumerate() {
            if i != hot {
                assert!(v.abs() < 1e-6, "leak at {i}");
            }
        }
    }

    #[test]
    fn unit_axes_are_skipped_gracefully() {
        let dims = [1usize, 6, 1];
        let orig = lattice(&dims);
        let mut data = orig.clone();
        fftn(&mut data, &dims, Direction::Forward);
        // Equivalent to a 1-D transform of length 6.
        let expected = crate::plan::fft(&orig);
        for (a, b) in data.iter().zip(&expected) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "whole lattice")]
    fn shape_mismatch_panics() {
        let mut data = vec![Complex64::ZERO; 5];
        fftn(&mut data, &[2, 3], Direction::Forward);
    }
}
