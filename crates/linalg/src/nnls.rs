//! Non-negative least squares (Lawson–Hanson active set).
//!
//! "Certain spectrum processing operations also require non-negative least
//! squares fitting." (§2.2) Solves `min ‖A·x − b‖₂  s.t.  x ≥ 0`.

use crate::blas;
use crate::lstsq;
use crate::matrix::Matrix;

/// Result of an NNLS solve.
#[derive(Debug, Clone)]
pub struct Nnls {
    /// The non-negative solution.
    pub x: Vec<f64>,
    /// Final residual norm `‖A·x − b‖₂`.
    pub residual: f64,
    /// Outer iterations consumed.
    pub iterations: usize,
}

/// Lawson–Hanson NNLS. `max_iter` bounds the outer loop (3·n is the
/// customary default; pass 0 to use it).
pub fn nnls(a: &Matrix, b: &[f64], max_iter: usize) -> Nnls {
    let n = a.cols();
    let max_iter = if max_iter == 0 {
        3 * n.max(10)
    } else {
        max_iter
    };
    let mut x = vec![0.0f64; n];
    let mut passive = vec![false; n]; // true = in the positive set

    let tol = 1e-10;
    let mut iterations = 0;

    loop {
        // Gradient w = Aᵀ(b − A·x).
        let mut ax = vec![0.0; a.rows()];
        blas::gemv(a, &x, &mut ax);
        let resid: Vec<f64> = b.iter().zip(&ax).map(|(&bi, &ai)| bi - ai).collect();
        let mut w = vec![0.0; n];
        blas::gemv_t(a, &resid, &mut w);

        // Pick the most violated constraint among the active (zero) set.
        let mut best = None;
        for j in 0..n {
            if !passive[j] && w[j] > tol && best.map(|(_, bw)| w[j] > bw).unwrap_or(true) {
                best = Some((j, w[j]));
            }
        }
        let Some((j_enter, _)) = best else {
            // KKT satisfied.
            let r = blas::nrm2(&resid);
            return Nnls {
                x,
                residual: r,
                iterations,
            };
        };
        passive[j_enter] = true;

        // Inner loop: solve the unconstrained problem on the passive set,
        // clipping variables that go non-positive.
        loop {
            iterations += 1;
            if iterations > max_iter {
                let mut ax = vec![0.0; a.rows()];
                blas::gemv(a, &x, &mut ax);
                let r = blas::nrm2(
                    &b.iter()
                        .zip(&ax)
                        .map(|(&bi, &ai)| bi - ai)
                        .collect::<Vec<_>>(),
                );
                return Nnls {
                    x,
                    residual: r,
                    iterations,
                };
            }
            let idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
            let ap = Matrix::from_fn(a.rows(), idx.len(), |i, jj| a.get(i, idx[jj]));
            let z = lstsq::lstsq_svd(&ap, b, 1e-12);

            if z.iter().all(|&v| v > tol) {
                for (jj, &j) in idx.iter().enumerate() {
                    x[j] = z[jj];
                }
                break;
            }
            // Step as far as feasibility allows toward z.
            let mut alpha = f64::INFINITY;
            for (jj, &j) in idx.iter().enumerate() {
                if z[jj] <= tol {
                    let d = x[j] - z[jj];
                    if d > 0.0 {
                        alpha = alpha.min(x[j] / d);
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (jj, &j) in idx.iter().enumerate() {
                x[j] += alpha * (z[jj] - x[j]);
                if x[j] <= tol {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_optimum_already_nonnegative() {
        // y = 2 t fit: the LS slope is positive, so NNLS equals LS.
        let a = Matrix::from_fn(4, 1, |i, _| (i + 1) as f64);
        let b: Vec<f64> = (1..=4).map(|t| 2.0 * t as f64).collect();
        let r = nnls(&a, &b, 0);
        assert!((r.x[0] - 2.0).abs() < 1e-8);
        assert!(r.residual < 1e-8);
    }

    #[test]
    fn negative_optimum_clamps_to_zero() {
        // Best unconstrained slope is negative; NNLS must return 0.
        let a = Matrix::from_fn(4, 1, |i, _| (i + 1) as f64);
        let b: Vec<f64> = (1..=4).map(|t| -2.0 * t as f64).collect();
        let r = nnls(&a, &b, 0);
        assert_eq!(r.x, vec![0.0]);
        assert!((r.residual - blas::nrm2(&b)).abs() < 1e-10);
    }

    #[test]
    fn mixed_signs_partial_activation() {
        // b = 3*c0 - 1*c1 with orthogonal columns: NNLS keeps c0, zeroes c1.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let b = [3.0, -1.0, 0.0];
        let r = nnls(&a, &b, 0);
        assert!((r.x[0] - 3.0).abs() < 1e-8);
        assert_eq!(r.x[1], 0.0);
        assert!((r.residual - 1.0).abs() < 1e-8);
    }

    #[test]
    fn recovers_nonnegative_mixture() {
        // Synthetic spectrum: b = 0.7*s1 + 0.3*s2 (both templates
        // non-negative); NNLS recovers the weights.
        let s1: Vec<f64> = (0..20).map(|i| ((i as f64) * 0.3).sin().abs()).collect();
        let s2: Vec<f64> = (0..20)
            .map(|i| ((i as f64) * 0.7).cos().abs() + 0.2)
            .collect();
        let a = Matrix::from_fn(20, 2, |i, j| if j == 0 { s1[i] } else { s2[i] });
        let b: Vec<f64> = (0..20).map(|i| 0.7 * s1[i] + 0.3 * s2[i]).collect();
        let r = nnls(&a, &b, 0);
        assert!((r.x[0] - 0.7).abs() < 1e-6, "{:?}", r.x);
        assert!((r.x[1] - 0.3).abs() < 1e-6, "{:?}", r.x);
    }

    #[test]
    fn solution_is_feasible_and_kkt_ish() {
        let a = Matrix::from_fn(10, 4, |i, j| ((i * 3 + j * 5) % 7) as f64 - 3.0);
        let b: Vec<f64> = (0..10).map(|i| (i as f64 * 1.3).sin() * 2.0).collect();
        let r = nnls(&a, &b, 0);
        assert!(r.x.iter().all(|&v| v >= 0.0));
        // Gradient on the positive set must vanish (stationarity).
        let mut ax = vec![0.0; 10];
        blas::gemv(&a, &r.x, &mut ax);
        let resid: Vec<f64> = b.iter().zip(&ax).map(|(&bi, &ai)| bi - ai).collect();
        let mut w = vec![0.0; 4];
        blas::gemv_t(&a, &resid, &mut w);
        for (j, &wj) in w.iter().enumerate() {
            if r.x[j] > 1e-8 {
                assert!(wj.abs() < 1e-6, "gradient {wj} at active var {j}");
            } else {
                assert!(wj < 1e-6, "violated KKT at {j}");
            }
        }
    }
}
