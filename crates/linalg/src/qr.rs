//! Householder QR factorization.
//!
//! `A = Q·R` with Q orthonormal (`m × n`, thin) and R upper triangular
//! (`n × n`), LAPACK's `geqrf` + `orgqr`. The least-squares solver takes
//! the SVD route instead ([`crate::lstsq_svd`]), which also covers
//! rank-deficient and wide systems.

use crate::blas;
use crate::matrix::Matrix;

/// The factorization result.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Thin orthonormal factor, `m × n`.
    pub q: Matrix,
    /// Upper-triangular factor, `n × n`.
    pub r: Matrix,
}

/// Applies the Householder reflector `(I − τ·v·vᵀ)` (acting on rows
/// `k..m`) to columns `lo..hi` of `mat`: one dot + axpy per column. This
/// is the Q-application step shared by factorization and Q formation.
fn apply_reflector(mat: &mut Matrix, k: usize, lo: usize, hi: usize, v: &[f64], tau: f64) {
    for j in lo..hi {
        let cj = &mut mat.col_mut(j)[k..];
        let w = blas::dot(v, cj);
        blas::axpy(-tau * w, v, cj);
    }
}

/// Computes the thin QR of `a` (`m × n`, requires `m ≥ n`).
pub fn qr(a: &Matrix) -> Qr {
    let m = a.rows();
    let n = a.cols();
    assert!(m >= n, "qr requires rows >= cols; transpose first");

    // Work on a copy; accumulate Householder vectors in-place below the
    // diagonal, as LAPACK's geqrf does.
    let mut work = a.clone();
    let mut taus = Vec::with_capacity(n);

    for k in 0..n {
        // Build the Householder reflector for column k, rows k..m.
        let col = work.col(k);
        let x = &col[k..];
        let alpha = x[0];
        let norm = blas::nrm2(x);
        if norm == 0.0 {
            taus.push((0.0, vec![0.0; m - k]));
            continue;
        }
        let beta = -norm.copysign(alpha);
        let mut v: Vec<f64> = x.to_vec();
        v[0] -= beta;
        let vnorm = blas::nrm2(&v);
        if vnorm == 0.0 {
            taus.push((0.0, v));
            work.set(k, k, beta);
            continue;
        }
        blas::scal(1.0 / vnorm, &mut v);
        let tau = 2.0;

        // Apply (I - tau v vᵀ) to the trailing columns.
        apply_reflector(&mut work, k, k, n, &v, tau);
        taus.push((tau, v));
    }

    // Extract R.
    let mut r = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..=j {
            r.set(i, j, work.get(i, j));
        }
    }

    // Form thin Q by applying the reflectors to the first n columns of I.
    let mut q = Matrix::zeros(m, n);
    for j in 0..n {
        q.set(j, j, 1.0);
    }
    for k in (0..n).rev() {
        let (tau, v) = &taus[k];
        if *tau == 0.0 {
            continue;
        }
        apply_reflector(&mut q, k, 0, n, v, *tau);
    }
    Qr { q, r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemm;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn reconstructs_a() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0],
            &[7.0, 8.0, 10.0],
            &[2.0, -1.0, 0.5],
        ]);
        let f = qr(&a);
        let qr_prod = gemm(&f.q, &f.r);
        assert!(qr_prod.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn q_is_orthonormal() {
        let a = Matrix::from_fn(6, 3, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let f = qr(&a);
        let qtq = crate::blas::gram(&f.q);
        assert!(qtq.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::from_fn(5, 4, |i, j| (1 + i + 2 * j) as f64 * 0.3);
        let f = qr(&a);
        for i in 0..4 {
            for j in 0..i {
                assert_close(f.r.get(i, j), 0.0, 1e-12);
            }
        }
    }

    #[test]
    fn square_identity_qr() {
        let f = qr(&Matrix::identity(3));
        assert!(gemm(&f.q, &f.r).max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn rank_deficient_still_factors() {
        // Column 1 = 2 × column 0.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let f = qr(&a);
        assert!(gemm(&f.q, &f.r).max_abs_diff(&a) < 1e-10);
        // R(1,1) collapses to ~0.
        assert!(f.r.get(1, 1).abs() < 1e-10);
    }

    #[test]
    fn zero_column_does_not_panic() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 3.0]]);
        let f = qr(&a);
        assert!(gemm(&f.q, &f.r).max_abs_diff(&a) < 1e-10);
    }
}
