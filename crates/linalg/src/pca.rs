//! Principal component analysis.
//!
//! "Running PCA over a set of spectra requires resampling and normalization
//! of the individual data vectors, computing the correlation matrix and
//! executing a singular value decomposition algorithm over the correlation
//! matrix. The spectra then have to be expanded on the basis derived from
//! the SVD." (§2.2)

use crate::blas;
use crate::eigen;
use crate::matrix::Matrix;

/// A fitted PCA basis.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Per-feature mean subtracted before fitting.
    pub mean: Vec<f64>,
    /// Principal components as columns (`features × k`), orthonormal,
    /// ordered by decreasing explained variance.
    pub components: Matrix,
    /// Variance explained by each retained component.
    pub explained_variance: Vec<f64>,
    /// Total variance of the training data (all components).
    pub total_variance: f64,
}

/// Fits a PCA basis with `k` components from a data matrix whose *rows*
/// are observations (`samples × features`, `k ≤ features`).
///
/// Diagonalizing the covariance panics if the Jacobi iteration does not
/// converge — see [`crate::eigen::eigh`]; real (finite) data always
/// converges.
pub fn fit(data: &Matrix, k: usize) -> Pca {
    let n = data.rows();
    let d = data.cols();
    assert!(k <= d, "cannot keep more components than features");
    assert!(n >= 2, "need at least two samples");

    // Mean-center each feature column.
    let mean: Vec<f64> = (0..d)
        .map(|j| data.col(j).iter().sum::<f64>() / n as f64)
        .collect();
    let centered = Matrix::from_fn(n, d, |i, j| data.get(i, j) - mean[j]);

    // Covariance = Xᵀ X / (n-1), then diagonalize.
    let mut cov = blas::gram(&centered);
    for v in cov.as_mut_slice().iter_mut() {
        *v /= (n - 1) as f64;
    }
    let e = eigen::eigh(&cov);

    let total_variance: f64 = e.values.iter().map(|&v| v.max(0.0)).sum();
    let components = Matrix::from_fn(d, k, |i, j| e.vectors.get(i, j));
    let explained_variance: Vec<f64> = e.values[..k].iter().map(|&v| v.max(0.0)).collect();
    Pca {
        mean,
        components,
        explained_variance,
        total_variance,
    }
}

impl Pca {
    /// Number of retained components.
    pub fn k(&self) -> usize {
        self.components.cols()
    }

    /// Projects one observation onto the basis, returning `k` coefficients.
    #[cfg(test)]
    fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len());
        let centered: Vec<f64> = x.iter().zip(&self.mean).map(|(&v, &m)| v - m).collect();
        let mut coeffs = vec![0.0; self.k()];
        blas::gemv_t(&self.components, &centered, &mut coeffs);
        coeffs
    }

    /// Reconstructs an observation from its coefficients: the tests'
    /// measure of a fit.
    #[cfg(test)]
    fn inverse_transform(&self, coeffs: &[f64]) -> Vec<f64> {
        assert_eq!(coeffs.len(), self.k());
        let mut x = vec![0.0; self.mean.len()];
        blas::gemv(&self.components, coeffs, &mut x);
        for (xi, &m) in x.iter_mut().zip(&self.mean) {
            *xi += m;
        }
        x
    }

    /// Fraction of total variance captured by the retained components.
    pub fn explained_ratio(&self) -> f64 {
        if self.total_variance == 0.0 {
            1.0
        } else {
            self.explained_variance.iter().sum::<f64>() / self.total_variance
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random generator for test data.
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    /// Data concentrated along a known direction.
    fn line_data(n: usize, dir: &[f64], noise: f64) -> Matrix {
        let mut r = rng(42);
        let d = dir.len();
        Matrix::from_fn(n, d, |_, _| 0.0).clone_with(|m| {
            for i in 0..n {
                let t = r() * 10.0;
                for (j, &dj) in dir.iter().enumerate() {
                    m.set(i, j, t * dj + noise * r());
                }
            }
        })
    }

    trait CloneWith: Sized {
        fn clone_with(self, f: impl FnOnce(&mut Self)) -> Self;
    }
    impl CloneWith for Matrix {
        fn clone_with(mut self, f: impl FnOnce(&mut Self)) -> Self {
            f(&mut self);
            self
        }
    }

    #[test]
    fn finds_dominant_direction() {
        let dir = [3.0 / 5.0, 4.0 / 5.0, 0.0];
        let data = line_data(200, &dir, 0.01);
        let p = fit(&data, 1);
        let c0: Vec<f64> = p.components.col(0).to_vec();
        // Up to sign.
        let dot: f64 = c0.iter().zip(&dir).map(|(a, b)| a * b).sum();
        assert!(dot.abs() > 0.999, "component {c0:?}");
        assert!(p.explained_ratio() > 0.99);
    }

    #[test]
    fn transform_inverse_round_trip_in_subspace() {
        let dir = [1.0 / 2f64.sqrt(), 1.0 / 2f64.sqrt()];
        let data = line_data(100, &dir, 0.0);
        let p = fit(&data, 1);
        // A point exactly on the line reconstructs exactly.
        let x = [5.0 * dir[0] + p.mean[0] - p.mean[0], 5.0 * dir[1]];
        // Shift by mean to be fair:
        let x = [x[0] + p.mean[0], x[1] + p.mean[1]];
        let c = p.transform(&x);
        let back = p.inverse_transform(&c);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn components_are_orthonormal() {
        let mut r = rng(7);
        let data = Matrix::from_fn(60, 8, |_, _| r());
        let p = fit(&data, 4);
        let g = blas::gram(&p.components);
        assert!(g.max_abs_diff(&Matrix::identity(4)) < 1e-10);
    }

    #[test]
    fn explained_variance_is_sorted_and_bounded() {
        let mut r = rng(9);
        let data = Matrix::from_fn(50, 6, |_, _| r());
        let p = fit(&data, 6);
        for w in p.explained_variance.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!((p.explained_ratio() - 1.0).abs() < 1e-9); // kept everything
    }

    #[test]
    fn reconstruction_error_decreases_with_k() {
        let mut r = rng(11);
        // Two strong directions + noise.
        let data = Matrix::from_fn(120, 5, |i, j| {
            let t = (i as f64) * 0.1;
            let u = (i as f64) * 0.03;
            (j as f64 + 1.0) * t.sin() + (5.0 - j as f64) * u.cos() + 0.01 * r()
        });
        let probe: Vec<f64> = (0..5).map(|j| data.get(17, j)).collect();
        let mut last_err = f64::INFINITY;
        for k in 1..=4 {
            let p = fit(&data, k);
            let rec = p.inverse_transform(&p.transform(&probe));
            let err: f64 = probe
                .iter()
                .zip(&rec)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(err <= last_err + 1e-9, "error grew at k={k}");
            last_err = err;
        }
        assert!(last_err < 0.1);
    }
}
