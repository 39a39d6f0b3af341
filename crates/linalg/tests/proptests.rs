//! Property-based tests for the dense solvers.

use proptest::prelude::*;
use sqlarray_linalg::{blas, eigh, gesvd, lstsq_svd, nnls, qr, Matrix};

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// `AᵀA`.
fn gram(a: &Matrix) -> Matrix {
    blas::gemm(&a.transpose(), a)
}

proptest! {
    /// SVD reconstructs any matrix, factors are orthonormal, singular
    /// values sorted and non-negative.
    #[test]
    fn svd_reconstructs(rows in 1usize..12, cols in 1usize..12, seed in any::<u64>()) {
        let a = matrix(rows, cols, seed);
        let f = gesvd(&a);
        let rec = sqlarray_linalg::svd::reconstruct(&f);
        prop_assert!(rec.max_abs_diff(&a) < 1e-8);
        for w in f.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(f.s.iter().all(|&v| v >= 0.0));
        let k = rows.min(cols);
        // Thin factor of the smaller side is orthonormal.
        let g = if rows >= cols { gram(&f.u) } else { gram(&f.v) };
        prop_assert!(g.max_abs_diff(&Matrix::identity(k)) < 1e-8);
    }

    /// QR reconstructs and Q is orthonormal for tall matrices.
    #[test]
    fn qr_reconstructs(rows in 1usize..14, cols in 1usize..10, seed in any::<u64>()) {
        prop_assume!(rows >= cols);
        let a = matrix(rows, cols, seed);
        let f = qr(&a);
        prop_assert!(blas::gemm(&f.q, &f.r).max_abs_diff(&a) < 1e-9);
        prop_assert!(gram(&f.q).max_abs_diff(&Matrix::identity(cols)) < 1e-9);
    }

    /// Least squares via SVD minimizes the residual: random perturbations
    /// never do better.
    #[test]
    fn lstsq_is_optimal(rows in 3usize..12, cols in 1usize..6, seed in any::<u64>()) {
        prop_assume!(rows > cols);
        let a = matrix(rows, cols, seed);
        let b: Vec<f64> = (0..rows).map(|i| ((i as f64) * 0.7).sin()).collect();
        let x = lstsq_svd(&a, &b, 1e-12);
        let r0 = sqlarray_linalg::lstsq::residual_norm(&a, &x, &b);
        let mut s = seed | 1;
        for _ in 0..6 {
            let xp: Vec<f64> = x.iter().map(|v| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                v + 0.01 * (((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
            }).collect();
            let rp = sqlarray_linalg::lstsq::residual_norm(&a, &xp, &b);
            prop_assert!(rp >= r0 - 1e-9, "perturbation improved the fit: {rp} < {r0}");
        }
    }

    /// Symmetric eigendecomposition reconstructs and matches SVD on PSD
    /// Gram matrices.
    #[test]
    fn eigh_reconstructs(n in 1usize..9, seed in any::<u64>()) {
        let b = matrix(n + 2, n, seed);
        let g = gram(&b); // symmetric PSD
        let e = eigh(&g);
        let vd = Matrix::from_fn(n, n, |i, j| e.vectors.get(i, j) * e.values[j]);
        let rec = blas::gemm(&vd, &e.vectors.transpose());
        let frobenius = g.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(rec.max_abs_diff(&g) < 1e-8 * (1.0 + frobenius));
        prop_assert!(e.values.iter().all(|&v| v > -1e-9));
    }

    /// NNLS always returns a feasible point with residual no worse than
    /// the zero vector's.
    #[test]
    fn nnls_feasible_and_no_worse_than_zero(rows in 2usize..10, cols in 1usize..6, seed in any::<u64>()) {
        let a = matrix(rows, cols, seed);
        let b: Vec<f64> = (0..rows).map(|i| ((i as f64) * 1.3).cos()).collect();
        let r = nnls(&a, &b, 0);
        prop_assert!(r.x.iter().all(|&v| v >= 0.0));
        let zero_resid = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(r.residual <= zero_resid + 1e-9);
    }

    /// GEMM is associative with the identity and distributes over
    /// addition (spot property).
    #[test]
    fn gemm_identity(n in 1usize..10, seed in any::<u64>()) {
        let a = matrix(n, n, seed);
        prop_assert!(blas::gemm(&a, &Matrix::identity(n)).max_abs_diff(&a) < 1e-12);
        prop_assert!(blas::gemm(&Matrix::identity(n), &a).max_abs_diff(&a) < 1e-12);
    }

    /// Blocked gemm == naive gemm, bit for bit (the cache-blocked path
    /// must preserve the per-element accumulation order exactly), over
    /// data spanning signs, zeros and several orders of magnitude.
    #[test]
    fn gemm_matches_naive_model(
        (m, k, a_data) in (1usize..=24, 1usize..=16).prop_flat_map(|(m, k)| {
            (Just(m), Just(k), prop::collection::vec(-1e3f64..1e3, m * k..=m * k))
        }),
        n in 1usize..=12,
        b_seed in any::<u64>(),
    ) {
        let a = Matrix::from_col_major(m, k, a_data);
        // B with exact zeros sprinkled in (the naive path skips them;
        // blocked must too).
        let mut state = b_seed | 1;
        let b = Matrix::from_fn(k, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state >> 62 == 0 { 0.0 } else { ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 }
        });
        let want = blas::gemm_naive(&a, &b);
        let got = blas::gemm(&a, &b);
        prop_assert!(
            got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
        );
    }
}

#[test]
fn large_qr_factors_are_valid() {
    // 300 × 64: reflector panels far larger than the proptest shapes.
    let a = Matrix::from_fn(300, 64, |i, j| ((i * 13 + j * 29) % 37) as f64 / 37.0 - 0.5);
    let f = qr(&a);
    assert!(gram(&f.q).max_abs_diff(&Matrix::identity(64)) < 1e-10);
    assert!(blas::gemm(&f.q, &f.r).max_abs_diff(&a) < 1e-9);
}
