//! BLAS-level kernels: dot, axpy, norms, matrix-vector and matrix-matrix
//! products over column-major buffers.
//!
//! # Threads and the determinism contract
//!
//! Every kernel runs on the thread that calls it. Inside a query that is
//! one scan worker — the scan is the parallel unit, at the DOP its
//! admission ticket grants — so a kernel never starts threads of its own.
//! [`gemm`] is cache-blocked, and blocking only re-tiles the loops: each
//! output element accumulates exactly the sequence [`gemm_naive`] does,
//! so the two agree **bit for bit**.

use crate::matrix::Matrix;

/// Cache-blocking panel width along the shared (`k`) dimension of
/// [`gemm`]: the A-tile it streams is at most
/// [`GEMM_MC`]` × GEMM_KC` elements.
pub(crate) const GEMM_KC: usize = 128;

/// Cache-blocking row-tile height of [`gemm`]: together with [`GEMM_KC`]
/// it keeps the reused A-tile (`GEMM_MC × GEMM_KC × 8` bytes = 256 KiB)
/// resident in L2 while it multiplies every column of C.
pub(crate) const GEMM_MC: usize = 256;

/// `xᵀy`. Panics when the lengths differ (a release-mode guard: a silent
/// `zip` truncation here returns a plausible but wrong dot product).
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot requires equal-length vectors");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y ← αx + y`. Panics when the lengths differ (a silent truncation
/// here updates only a prefix of `y`).
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal-length vectors");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← αx`.
pub(crate) fn scal(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm, computed with scaling to avoid overflow.
pub(crate) fn nrm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
        if v != 0.0 {
            let a = v.abs();
            if scale < a {
                ssq = 1.0 + ssq * (scale / a).powi(2);
                scale = a;
            } else {
                ssq += (a / scale).powi(2);
            }
        }
    }
    scale * ssq.sqrt()
}

/// `y ← A·x` (A is `m × n`, x has n entries, y gets m entries).
/// Column-major: accumulates one column at a time (unit-stride inner
/// loop).
pub(crate) fn gemv(a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(a.cols(), x.len());
    assert_eq!(a.rows(), y.len());
    y.fill(0.0);
    for (j, &xj) in x.iter().enumerate() {
        if xj != 0.0 {
            axpy(xj, a.col(j), y);
        }
    }
}

/// `y ← Aᵀ·x`: each `y[j]` is one dot product.
pub(crate) fn gemv_t(a: &Matrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(a.rows(), x.len());
    assert_eq!(a.cols(), y.len());
    for (j, yj) in y.iter_mut().enumerate() {
        *yj = dot(a.col(j), x);
    }
}

/// `C ← A·B`, cache-blocked.
///
/// # Determinism contract
///
/// The result is **bit-for-bit identical** to [`gemm_naive`] at every
/// blocking size: the k dimension is blocked in ascending `GEMM_KC`
/// strips, so each `C[i][j]` receives exactly the serial sequence of
/// `B[k][j]·A[i][k]` contributions — in the same order, with the same
/// `B[k][j] == 0` terms skipped. Row tiling (`GEMM_MC`) only re-tiles
/// the *i* loop, which never reorders accumulation into a single element;
/// the `GEMM_MC × GEMM_KC` A-tile stays in cache while it updates every
/// column of C.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let m = a.rows();
    let kdim = a.cols();
    let mut c = Matrix::zeros(m, b.cols());
    let mut kb = 0;
    while kb < kdim {
        let kbe = (kb + GEMM_KC).min(kdim);
        let mut ib = 0;
        while ib < m {
            let ibe = (ib + GEMM_MC).min(m);
            for j in 0..b.cols() {
                let bcol = &b.col(j)[kb..kbe];
                let ccol = &mut c.col_mut(j)[ib..ibe];
                for (k, &bkj) in bcol.iter().enumerate() {
                    if bkj != 0.0 {
                        axpy(bkj, &a.col(kb + k)[ib..ibe], ccol);
                    }
                }
            }
            ib = ibe;
        }
        kb = kbe;
    }
    c
}

/// `C ← A·B` in the reference jki order: C's column j accumulates A's
/// columns scaled by `B[k][j]` — all unit-stride in a column-major
/// layout. This is the un-blocked baseline [`gemm`] must match
/// bit-for-bit (asserted by the tests and re-checked by `table1_report`
/// on every run).
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for j in 0..b.cols() {
        let bcol = b.col(j);
        let ccol = c.col_mut(j);
        for (k, &bkj) in bcol.iter().enumerate() {
            if bkj != 0.0 {
                axpy(bkj, a.col(k), ccol);
            }
        }
    }
    c
}

/// `C ← Aᵀ·A` (the Gram/correlation matrix PCA needs), exploiting
/// symmetry: the upper triangle holds one dot product per entry, the
/// strict lower triangle mirrors it.
pub(crate) fn gram(a: &Matrix) -> Matrix {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..=j {
            c.set(i, j, dot(a.col(i), a.col(j)));
        }
    }
    for j in 0..n {
        for i in j + 1..n {
            c.set(i, j, c.get(j, i));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [4.0, 5.0, 6.0];
        assert!(close(dot(&x, &y), 32.0));
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [3.0, 4.5, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dot requires equal-length vectors")]
    fn dot_rejects_length_mismatch() {
        // Regression: this used to be a debug_assert, so release builds
        // silently truncated via `zip` and returned 1·3 = 3.0.
        let _ = dot(&[1.0, 2.0], &[3.0]);
    }

    #[test]
    #[should_panic(expected = "axpy requires equal-length vectors")]
    fn axpy_rejects_length_mismatch() {
        // Regression: release builds used to update only y[0] and return.
        let mut y = [1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
    }

    #[test]
    fn nrm2_is_stable() {
        assert!(close(nrm2(&[3.0, 4.0]), 5.0));
        // Values that would overflow a naive sum of squares.
        let big = nrm2(&[1e200, 1e200]);
        assert!(close(big / 1e200, std::f64::consts::SQRT_2));
        assert_eq!(nrm2(&[]), 0.0);
    }

    #[test]
    fn gemv_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = [1.0, -1.0];
        let mut y = [0.0; 3];
        gemv(&a, &x, &mut y);
        assert_eq!(y, [-1.0, -1.0, -1.0]);
        let mut yt = [0.0; 2];
        gemv_t(&a, &[1.0, 1.0, 1.0], &mut yt);
        assert_eq!(yt, [9.0, 12.0]);
    }

    #[test]
    fn gemm_small_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = gemm(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let c = gemm(&a, &Matrix::identity(4));
        assert_eq!(c, a);
        let c2 = gemm(&Matrix::identity(4), &a);
        assert_eq!(c2, a);
    }

    /// A deterministic pseudo-random matrix with a sprinkling of exact
    /// zeros, denormal-adjacent magnitudes, and negative zeros — the
    /// entries where accumulation-order differences would surface.
    fn awkward(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match state >> 61 {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-200 * ((state >> 33) as f64),
                _ => ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0,
            }
        })
    }

    #[test]
    fn blocked_gemm_matches_naive_bitwise() {
        // Shapes straddling the GEMM_KC/GEMM_MC block edges.
        for (m, k, n) in [(1, 1, 1), (7, 5, 3), (64, 129, 33), (257, 130, 17)] {
            let a = awkward(m, k, 42);
            let b = awkward(k, n, 1337);
            let want = gemm_naive(&a, &b);
            let got = gemm(&a, &b);
            assert_eq!(got.rows(), m);
            assert_eq!(got.cols(), n);
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "gemm diverged at shape {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn zero_dimension_products() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let c = gemm(&a, &b);
        assert_eq!((c.rows(), c.cols()), (0, 4));
        let d = gemm(&Matrix::zeros(2, 0), &Matrix::zeros(0, 5));
        assert_eq!((d.rows(), d.cols()), (2, 5));
        assert!(d.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[1.0, 0.0]]);
        let g = gram(&a);
        assert_eq!(g.get(0, 1), g.get(1, 0));
        assert!(close(g.get(0, 0), 2.0)); // |col0|^2
        assert!(close(g.get(1, 1), 5.0));
        assert!(close(g.get(0, 1), 2.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn gemm_checks_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = gemm(&a, &b);
    }
}
