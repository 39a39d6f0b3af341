//! Least squares, including the masked/weighted variant the spectrum
//! pipeline needs.
//!
//! "Because of the flags that mask out wrong measurements bin by bin, dot
//! product cannot be used for expanding spectra on a basis but least
//! squares fitting is necessary, which is again a very generic
//! functionality that would be required in a vector library addressing a
//! wide range of users." (§2.2)

use crate::matrix::Matrix;
use crate::svd;

/// Solves least squares via the SVD pseudo-inverse, dropping singular
/// values below `rcond * s_max` (negative `rcond` is clamped to 0).
/// Always succeeds with the minimum-norm solution, including for
/// degenerate systems: zero columns yield an empty solution, zero rows
/// yield the zero vector, and a rank-0 (all-zero) matrix yields the zero
/// vector — never NaN.
pub fn lstsq_svd(a: &Matrix, b: &[f64], rcond: f64) -> Vec<f64> {
    assert_eq!(a.rows(), b.len(), "rhs length must match rows");
    let n = a.cols();
    if n == 0 {
        // No unknowns: the unique (and thus minimum-norm) solution is
        // the empty vector.
        return Vec::new();
    }
    if a.rows() == 0 {
        // No equations: every x is a solution; the minimum-norm one is 0.
        return vec![0.0; n];
    }
    let f = svd::gesvd(a);
    // The rank-revealing coefficient space has min(m, n) = s.len()
    // dimensions — NOT n. Sizing `utb` by `a.cols()` (as this function
    // once did) panicked inside `gemv_t` for every wide system, and the
    // `zip` below silently ignored the excess entries for any caller
    // that got past it.
    let rank_dims = f.s.len();
    assert_eq!(f.u.cols(), rank_dims, "thin U spans the singular values");
    assert_eq!(f.v.cols(), rank_dims, "thin V spans the singular values");
    let cutoff = rcond.max(0.0) * f.s.first().copied().unwrap_or(0.0);
    let mut utb = vec![0.0; rank_dims];
    crate::blas::gemv_t(&f.u, b, &mut utb);
    for (c, &s) in utb.iter_mut().zip(&f.s) {
        if s > cutoff && s > 0.0 {
            *c /= s;
        } else {
            *c = 0.0;
        }
    }
    let mut x = vec![0.0; n];
    crate::blas::gemv(&f.v, &utb, &mut x);
    x
}

/// Weighted least squares: `min ‖W^{1/2}(A·x − b)‖₂` with per-row weights
/// (`w[i] = 0` masks row i out entirely — the bad-pixel flags of §2.2).
pub fn lstsq_weighted(a: &Matrix, b: &[f64], w: &[f64], rcond: f64) -> Vec<f64> {
    assert_eq!(a.rows(), b.len());
    assert_eq!(a.rows(), w.len());
    let sw: Vec<f64> = w.iter().map(|&v| v.max(0.0).sqrt()).collect();
    let aw = Matrix::from_fn(a.rows(), a.cols(), |i, j| a.get(i, j) * sw[i]);
    let bw: Vec<f64> = b.iter().zip(&sw).map(|(&v, &s)| v * s).collect();
    lstsq_svd(&aw, &bw, rcond)
}

/// Residual norm `‖A·x − b‖₂` (diagnostic).
pub fn residual_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    crate::blas::gemv(a, x, &mut ax);
    let mut ss = 0.0;
    for (p, q) in ax.iter().zip(b) {
        ss += (p - q) * (p - q);
    }
    ss.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close_vec(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn exact_system() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]);
        let x = lstsq_svd(&a, &[3.0, 1.0], 1e-12);
        close_vec(&x, &[2.0, 1.0], 1e-12);
    }

    #[test]
    fn overdetermined_regression() {
        // Fit y = 2t + 1 through noiseless samples.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |i, j| if j == 0 { ts[i] } else { 1.0 });
        let b: Vec<f64> = ts.iter().map(|&t| 2.0 * t + 1.0).collect();
        let x = lstsq_svd(&a, &b, 1e-12);
        close_vec(&x, &[2.0, 1.0], 1e-10);
        assert!(residual_norm(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let b = [1.0, 1.0, 0.0];
        let x = lstsq_svd(&a, &b, 1e-12);
        let r_opt = residual_norm(&a, &x, &b);
        // Any perturbation increases the residual.
        for d in [[0.01, 0.0], [0.0, 0.01], [-0.01, 0.01]] {
            let xp = [x[0] + d[0], x[1] + d[1]];
            assert!(residual_norm(&a, &xp, &b) > r_opt);
        }
    }

    #[test]
    fn rank_deficient_gets_minimum_norm_solution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let x = lstsq_svd(&a, &[1.0, 2.0, 3.0], 1e-10);
        // Minimum-norm solution of x1 + 2 x2 = 1 is (1/5, 2/5).
        close_vec(&x, &[0.2, 0.4], 1e-10);
    }

    #[test]
    fn weighted_masks_bad_rows() {
        // Five samples of y = 3t, one corrupted; masking the bad row
        // recovers the exact slope.
        let ts = [1.0, 2.0, 3.0, 4.0, 5.0];
        let a = Matrix::from_fn(5, 1, |i, _| ts[i]);
        let mut b: Vec<f64> = ts.iter().map(|&t| 3.0 * t).collect();
        b[2] = -100.0; // cosmic ray
        let w = [1.0, 1.0, 0.0, 1.0, 1.0];
        let x = lstsq_weighted(&a, &b, &w, 1e-12);
        close_vec(&x, &[3.0], 1e-10);
        // Unweighted fit is badly off.
        let x_bad = lstsq_svd(&a, &b, 1e-12);
        assert!((x_bad[0] - 3.0).abs() > 1.0);
    }

    #[test]
    fn wide_underdetermined_system_gets_minimum_norm_solution() {
        // Regression: `utb` used to be sized by `a.cols()`, so every
        // m < n system panicked inside `gemv_t` before producing
        // anything. x₁ + x₂ = 2 has minimum-norm solution (1, 1).
        let a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let x = lstsq_svd(&a, &[2.0], 1e-12);
        close_vec(&x, &[1.0, 1.0], 1e-10);
        assert!(residual_norm(&a, &x, &[2.0]) < 1e-10);
        // 2×4 wide system, exactly satisfiable.
        let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0, 0.0], &[0.0, 2.0, 0.0, 1.0]]);
        let b = [3.0, 4.0];
        let x = lstsq_svd(&a, &b, 1e-12);
        assert!(residual_norm(&a, &x, &b) < 1e-10);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn degenerate_shapes_solve_cleanly() {
        // 0 columns: no unknowns, empty solution — for any row count.
        assert!(lstsq_svd(&Matrix::zeros(3, 0), &[1.0, 2.0, 3.0], 1e-12).is_empty());
        assert!(lstsq_svd(&Matrix::zeros(0, 0), &[], 1e-12).is_empty());
        // 0 rows: no equations, minimum-norm solution is the zero vector.
        assert_eq!(lstsq_svd(&Matrix::zeros(0, 3), &[], 1e-12), vec![0.0; 3]);
        // Weighted path composes the same degenerate handling.
        assert_eq!(
            lstsq_weighted(&Matrix::zeros(0, 2), &[], &[], 1e-12),
            vec![0.0; 2]
        );
    }

    #[test]
    fn rank_zero_input_yields_zero_vector_not_nan() {
        // All-zero matrix: s_max = 0, so the cutoff logic must zero
        // every coefficient instead of dividing 0/0 into NaN.
        let a = Matrix::zeros(4, 3);
        let x = lstsq_svd(&a, &[1.0, -2.0, 3.0, 4.0], 1e-12);
        assert_eq!(x, vec![0.0; 3]);
        // Negative rcond clamps to 0 rather than resurrecting zero
        // singular values through a negative cutoff.
        let x = lstsq_svd(&a, &[1.0, -2.0, 3.0, 4.0], -1.0);
        assert_eq!(x, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn lstsq_svd_rejects_rhs_length_mismatch() {
        let _ = lstsq_svd(&Matrix::zeros(3, 2), &[1.0], 1e-12);
    }
}
