//! Symmetric eigendecomposition via the classical Jacobi rotation method.
//!
//! PCA over spectra (§2.2) diagonalizes the correlation matrix; Jacobi is
//! exact, stable, and ideal for the modest dimensions involved.

use crate::matrix::Matrix;
use std::fmt;

/// Eigendecomposition `A = V · diag(λ) · Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, matching `values` order.
    pub vectors: Matrix,
    /// Jacobi sweeps it took to reach the off-diagonal tolerance.
    pub sweeps: usize,
}

/// The Jacobi iteration failed to drive the off-diagonal mass below
/// tolerance within the sweep budget.
///
/// Before this type existed, `eigh` capped the iteration at 100 sweeps
/// and **silently returned whatever it had** — no signal, no error — so
/// a pathological input produced quietly wrong eigenpairs downstream
/// (PCA bases, spectrum expansions). Non-convergence is now always
/// surfaced: [`eigh`] panics with it.
/// Non-finite inputs (NaN/∞) report it immediately with zero sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct NoConvergence {
    /// Sweeps performed before giving up.
    pub sweeps: usize,
    /// Largest off-diagonal magnitude still standing.
    pub off_diag: f64,
    /// The tolerance that was not reached.
    pub tolerance: f64,
}

impl fmt::Display for NoConvergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Jacobi eigendecomposition did not converge: off-diagonal {:.3e} \
             above tolerance {:.3e} after {} sweeps",
            self.off_diag, self.tolerance, self.sweeps
        )
    }
}

impl std::error::Error for NoConvergence {}

/// Default sweep budget for [`eigh`]. Classical Jacobi
/// converges quadratically once rotations start to bite; well-posed
/// symmetric systems need ~5–15 sweeps, so 100 is a generous ceiling
/// that only a genuinely pathological input (NaN/∞ entries, or a caller
/// bug producing a wildly asymmetric "symmetric" matrix) fails to meet.
pub(crate) const DEFAULT_MAX_SWEEPS: usize = 100;

/// Computes the eigendecomposition of a symmetric matrix.
///
/// Panics if `a` is not square, **or if the Jacobi iteration does not
/// converge within `DEFAULT_MAX_SWEEPS` sweeps**. Symmetry is assumed
/// (only the upper triangle drives the rotations; the input is
/// symmetrized defensively).
pub fn eigh(a: &Matrix) -> Eigen {
    eigh_with_sweeps(a, DEFAULT_MAX_SWEEPS).unwrap_or_else(|err| panic!("{err}"))
}

/// [`eigh`] with an explicit sweep budget, returning non-convergence as
/// an error (the tests pin the budget low to exercise that path
/// deterministically).
fn eigh_with_sweeps(a: &Matrix, max_sweeps: usize) -> Result<Eigen, NoConvergence> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "eigh requires a square matrix");

    // Defensive symmetrization (guards against tiny asymmetries from
    // accumulated Gram computations).
    let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a.get(i, j) + a.get(j, i)));
    let mut v = Matrix::identity(n);

    let mut swept = 0usize;
    loop {
        // Largest off-diagonal magnitude. Non-finiteness (NaN/∞ input,
        // or overflow mid iteration) is tracked in the same pass: it
        // can never meet the tolerance, and `f64::max` ignores NaN, so
        // the magnitude scan alone could otherwise "converge" on
        // garbage. (The rotations are driven by the upper triangle and
        // the diagonal, which is exactly what this scan covers.)
        let mut off = 0.0f64;
        let mut finite = true;
        for i in 0..n {
            for j in i + 1..n {
                let v = m.get(i, j).abs();
                finite &= v.is_finite();
                off = off.max(v);
            }
        }
        let diag_max = max_abs_diag(&m);
        finite &= diag_max.is_finite();
        // NaN folds away under f64::max, so the tolerance stays
        // well-defined even for pathological inputs.
        let tolerance = 1e-14 * (1.0 + diag_max);
        if !finite {
            return Err(NoConvergence {
                sweeps: swept,
                off_diag: f64::INFINITY,
                tolerance,
            });
        }
        if off < tolerance {
            break;
        }
        if swept >= max_sweeps {
            return Err(NoConvergence {
                sweeps: swept,
                off_diag: off,
                tolerance,
            });
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (1.0 + theta * theta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;

                // A ← Jᵀ A J over rows/cols p and q.
                for k in 0..n {
                    let akp = m.get(k, p);
                    let akq = m.get(k, q);
                    m.set(k, p, c * akp - s * akq);
                    m.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = m.get(p, k);
                    let aqk = m.get(q, k);
                    m.set(p, k, c * apk - s * aqk);
                    m.set(q, k, s * apk + c * aqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
        swept += 1;
    }

    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("finite eigenvalues"));

    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v.get(i, order[j]));
    Ok(Eigen {
        values,
        vectors,
        sweeps: swept,
    })
}

fn max_abs_diag(m: &Matrix) -> f64 {
    (0..m.rows()).map(|i| m.get(i, i).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm, gram};

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let e = eigh(&a);
        assert!((e.values[0] - 9.0).abs() < 1e-12);
        assert!((e.values[1] - 4.0).abs() < 1e-12);
        // Already diagonal: converged without a single sweep.
        assert_eq!(e.sweeps, 0);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = eigh(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let a = Matrix::from_fn(6, 6, |i, j| 1.0 / (1.0 + i as f64 + j as f64)); // Hilbert-ish, symmetric
        let e = eigh(&a);
        // V is orthonormal.
        assert!(gram(&e.vectors).max_abs_diff(&Matrix::identity(6)) < 1e-10);
        // V diag(λ) Vᵀ = A.
        let mut vd = e.vectors.clone();
        for j in 0..6 {
            crate::blas::scal(e.values[j], vd.col_mut(j));
        }
        let rec = gemm(&vd, &e.vectors.transpose());
        assert!(rec.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let a = Matrix::from_fn(5, 5, |i, j| if i == j { (i + 1) as f64 } else { 0.1 });
        let e = eigh(&a);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn eigenvalues_match_svd_of_psd_matrix() {
        let b = Matrix::from_fn(7, 4, |i, j| ((i * 5 + j * 3) % 11) as f64 - 5.0);
        let g = gram(&b); // PSD
        let e = eigh(&g);
        let s = crate::svd::gesvd(&b);
        for k in 0..4 {
            assert!(
                (e.values[k] - s.s[k] * s.s[k]).abs() < 1e-8 * (1.0 + e.values[0]),
                "λ{k}"
            );
        }
    }

    #[test]
    fn negative_eigenvalues_supported() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let e = eigh(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] + 1.0).abs() < 1e-12);
    }

    /// The n×n Hilbert matrix — condition number ~10^(1.5·n), the
    /// classic ill-conditioned stress case.
    fn hilbert(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + i as f64 + j as f64))
    }

    #[test]
    fn ill_conditioned_hilbert_converges_and_reconstructs() {
        // cond(H₁₂) ≈ 1e16: eigenvalues span machine precision, yet
        // Jacobi must still converge inside the default budget and
        // reconstruct to a residual scaled by the largest eigenvalue.
        let n = 12;
        let a = hilbert(n);
        let e = eigh_with_sweeps(&a, DEFAULT_MAX_SWEEPS).expect("Hilbert must converge");
        assert!(e.sweeps <= DEFAULT_MAX_SWEEPS);
        assert!(gram(&e.vectors).max_abs_diff(&Matrix::identity(n)) < 1e-9);
        let mut vd = e.vectors.clone();
        for j in 0..n {
            crate::blas::scal(e.values[j], vd.col_mut(j));
        }
        let rec = gemm(&vd, &e.vectors.transpose());
        assert!(rec.max_abs_diff(&a) < 1e-12 * (1.0 + e.values[0]));
        // Tiny eigenvalues must not have gone negative-garbage: H is PSD.
        assert!(e.values.iter().all(|&v| v > -1e-12));
    }

    #[test]
    fn exhausted_sweep_budget_is_an_error_not_a_silent_return() {
        // Regression: with the budget pinned below what the matrix
        // needs, the old code returned un-converged eigenpairs silently;
        // now it reports exactly how far it got.
        let a = hilbert(8);
        let err = eigh_with_sweeps(&a, 0).expect_err("0 sweeps cannot converge");
        assert_eq!(err.sweeps, 0);
        assert!(err.off_diag > err.tolerance);
        let msg = err.to_string();
        assert!(msg.contains("did not converge"), "{msg}");
        // The same matrix converges once the budget is realistic, and
        // the checked and panicking fronts agree.
        let ok = eigh_with_sweeps(&a, DEFAULT_MAX_SWEEPS).unwrap();
        assert!(ok.sweeps > 0);
        let direct = eigh(&a);
        assert_eq!(direct.values, ok.values);
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn eigh_panic_message_names_the_failure() {
        // eigh's documented panic on non-convergence: drive it through a
        // non-finite input, which can never meet the tolerance.
        let a = Matrix::from_rows(&[&[1.0, f64::INFINITY], &[f64::INFINITY, 1.0]]);
        let _ = eigh(&a);
    }
}
