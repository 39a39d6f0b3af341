//! Singular value decomposition — the `*gesvd` replacement.
//!
//! The original library "wrote wrappers for LAPACK's singular value
//! decomposition driver function *gesvd" (§3.6); spectra PCA needs
//! "executing a singular value decomposition algorithm over the
//! correlation matrix" (§2.2). This implementation uses one-sided Jacobi
//! rotations: slower than Golub–Kahan for large matrices but simple,
//! numerically robust, and accurate to machine precision — the right
//! trade-off for a reproduction whose matrices are small (spectral bases,
//! correlation matrices).

use crate::blas;
use crate::matrix::Matrix;

/// Thin SVD `A = U · diag(s) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × n` (thin).
    pub u: Matrix,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors, `n × n` (**not** transposed).
    pub v: Matrix,
}

/// Computes the thin SVD of `a` (`m × n`). Handles `m < n` by factoring
/// the transpose and swapping U and V.
pub fn gesvd(a: &Matrix) -> Svd {
    if a.rows() < a.cols() {
        let t = gesvd(&a.transpose());
        return Svd {
            u: t.v,
            s: t.s,
            v: t.u,
        };
    }
    let m = a.rows();
    let n = a.cols();
    let mut u = a.clone(); // becomes U·diag(s) column by column
    let mut v = Matrix::identity(n);

    let eps = f64::EPSILON;
    let max_sweeps = 60;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                let ap = u.col(p);
                let aq = u.col(q);
                let alpha = blas::dot(ap, ap);
                let beta = blas::dot(aq, aq);
                let gamma = blas::dot(ap, aq);
                if gamma == 0.0 {
                    continue;
                }
                let denom = (alpha * beta).sqrt();
                if denom > 0.0 {
                    off = off.max(gamma.abs() / denom);
                }
                if gamma.abs() <= eps * denom {
                    continue;
                }
                // Jacobi rotation zeroing the (p, q) inner product.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = u.get(i, p);
                    let uq = u.get(i, q);
                    u.set(i, p, c * up - s * uq);
                    u.set(i, q, s * up + c * uq);
                }
                for i in 0..n {
                    let vp = v.get(i, p);
                    let vq = v.get(i, q);
                    v.set(i, p, c * vp - s * vq);
                    v.set(i, q, s * vp + c * vq);
                }
            }
        }
        if off <= eps.sqrt() * 1e-2 {
            break;
        }
    }

    // Extract singular values (column norms) and sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    let sigma: Vec<f64> = (0..n).map(|j| blas::nrm2(u.col(j))).collect();
    order.sort_by(|&i, &j| sigma[j].partial_cmp(&sigma[i]).expect("norms are finite"));

    // Permuted, normalized copy-out. A null column stays the zero vector
    // (the caller can re-orthonormalize if a full basis is required).
    let u_out = Matrix::from_fn(m, n, |i, dst| {
        let src = order[dst];
        if sigma[src] > 0.0 {
            u.get(i, src) / sigma[src]
        } else {
            0.0
        }
    });
    let v_out = Matrix::from_fn(n, n, |i, dst| v.get(i, order[dst]));
    let s_out: Vec<f64> = order.iter().map(|&src| sigma[src]).collect();
    Svd {
        u: u_out,
        s: s_out,
        v: v_out,
    }
}

/// Reconstructs `U · diag(s) · Vᵀ` (for tests and diagnostics).
pub fn reconstruct(svd: &Svd) -> Matrix {
    let n = svd.s.len();
    let mut us = svd.u.clone();
    for j in 0..n {
        blas::scal(svd.s[j], us.col_mut(j));
    }
    blas::gemm(&us, &svd.v.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_reconstructs(a: &Matrix, tol: f64) -> Svd {
        let f = gesvd(a);
        let r = reconstruct(&f);
        let err = r.max_abs_diff(a);
        assert!(err < tol, "reconstruction error {err}");
        // Singular values are sorted and non-negative.
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(f.s.iter().all(|&s| s >= 0.0));
        f
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0]]);
        let f = assert_reconstructs(&a, 1e-10);
        assert!((f.s[0] - 3.0).abs() < 1e-10);
        assert!((f.s[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn known_singular_values() {
        // A = [[1,0],[0,1],[1,1]] has s = sqrt(3), 1.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let f = assert_reconstructs(&a, 1e-10);
        assert!((f.s[0] - 3f64.sqrt()).abs() < 1e-10);
        assert!((f.s[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn wide_matrix_via_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let f = gesvd(&a);
        assert_eq!(f.u.rows(), 2);
        assert_eq!(f.v.rows(), 3);
        let r = reconstruct(&f);
        // reconstruct gives m x n for the wide case too because u is 2x2
        // and v is 3x2... dimensions: u: 2x2, s: 2, v: 3x2, u*diag*s*v^T = 2x3.
        assert!(r.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn orthonormal_factors() {
        let a = Matrix::from_fn(8, 4, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let f = assert_reconstructs(&a, 1e-9);
        let utu = crate::blas::gram(&f.u);
        assert!(utu.max_abs_diff(&Matrix::identity(4)) < 1e-10);
        let vtv = crate::blas::gram(&f.v);
        assert!(vtv.max_abs_diff(&Matrix::identity(4)) < 1e-10);
    }

    #[test]
    fn rank_deficient_matrix() {
        // rank 1: every column is a multiple of the first.
        let a = Matrix::from_fn(5, 3, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let f = gesvd(&a);
        assert!(f.s[1] < 1e-9 * f.s[0]);
        assert!(f.s[2] < 1e-9 * f.s[0]);
        assert!(reconstruct(&f).max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(3, 2);
        let f = gesvd(&a);
        assert!(f.s.iter().all(|&s| s == 0.0));
        assert!(reconstruct(&f).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn larger_random_like_matrix() {
        // Deterministic pseudo-random entries.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a = Matrix::from_fn(20, 12, |_, _| next());
        assert_reconstructs(&a, 1e-9);
    }

    #[test]
    fn singular_values_match_gram_eigenvalues() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0]]);
        let f = gesvd(&a);
        // s_i^2 are the eigenvalues of A^T A; verify via the characteristic
        // polynomial of the 2x2 Gram matrix.
        let g = crate::blas::gram(&a);
        let tr = g.get(0, 0) + g.get(1, 1);
        let det = g.get(0, 0) * g.get(1, 1) - g.get(0, 1) * g.get(1, 0);
        let disc = (tr * tr / 4.0 - det).sqrt();
        let l1 = tr / 2.0 + disc;
        let l2 = tr / 2.0 - disc;
        assert!((f.s[0] * f.s[0] - l1).abs() < 1e-9);
        assert!((f.s[1] * f.s[1] - l2).abs() < 1e-9);
    }
}
