//! Bluestein's chirp-z algorithm: DFT of arbitrary length via a padded
//! power-of-two convolution. Covers the non-power-of-two grids of the
//! science workloads (e.g. the 100³ Fourier cubes the N-body pipeline
//! dumps, §2.3).

use crate::radix2::{fft_pow2, Direction, Twiddles};
use sqlarray_core::Complex64;

/// Precomputed state for a Bluestein transform of size `n`.
#[derive(Debug, Clone)]
pub struct Bluestein {
    n: usize,
    m: usize, // padded power-of-two convolution size ≥ 2n-1
    chirp: Vec<Complex64>,
    /// Forward FFT of the zero-padded conjugate chirp (the convolution
    /// kernel), reused across executions.
    kernel_spec: Vec<Complex64>,
    fwd: Twiddles,
    inv: Twiddles,
}

impl Bluestein {
    /// Builds the plan for size `n ≥ 1`.
    pub(crate) fn new(n: usize, dir: Direction) -> Bluestein {
        assert!(n >= 1);
        let m = (2 * n - 1).next_power_of_two();
        let sign = dir.sign();
        // chirp[j] = e^{sign·πi·j²/n}
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let jj = (j * j) % (2 * n); // j² mod 2n keeps the angle exact
                Complex64::cis(sign * std::f64::consts::PI * jj as f64 / n as f64)
            })
            .collect();
        let fwd = Twiddles::new(m, Direction::Forward);
        let inv = Twiddles::new(m, Direction::Inverse);

        // Kernel b[j] = conj(chirp[j]) wrapped circularly.
        let mut kernel = vec![Complex64::ZERO; m];
        kernel[0] = chirp[0].conj();
        for j in 1..n {
            let c = chirp[j].conj();
            kernel[j] = c;
            kernel[m - j] = c;
        }
        fft_pow2(&mut kernel, &fwd);
        Bluestein {
            n,
            m,
            chirp,
            kernel_spec: kernel,
            fwd,
            inv,
        }
    }

    /// Executes the transform in place.
    pub(crate) fn execute(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "data length must match the plan");
        let n = self.n;
        if n == 1 {
            return;
        }
        // a[j] = x[j]·chirp[j], zero-padded to m.
        let mut a = vec![Complex64::ZERO; self.m];
        for j in 0..n {
            a[j] = data[j] * self.chirp[j];
        }
        fft_pow2(&mut a, &self.fwd);
        for (av, &kv) in a.iter_mut().zip(&self.kernel_spec) {
            *av *= kv;
        }
        fft_pow2(&mut a, &self.inv);
        let scale = 1.0 / self.m as f64;
        for k in 0..n {
            data[k] = a[k].scale(scale) * self.chirp[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dft_naive(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
        let n = input.len();
        let step = dir.sign() * 2.0 * std::f64::consts::PI / n as f64;
        (0..n)
            .map(|k| {
                let mut acc = Complex64::ZERO;
                for (j, &x) in input.iter().enumerate() {
                    acc += x * Complex64::cis(step * (j as f64) * (k as f64));
                }
                acc
            })
            .collect()
    }

    fn probe(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|j| Complex64::new((j as f64 * 0.9).sin() + 0.2, (j as f64 * 0.4).cos()))
            .collect()
    }

    #[test]
    fn matches_naive_for_awkward_sizes() {
        for n in [3usize, 5, 7, 12, 100, 129] {
            let input = probe(n);
            let mut data = input.clone();
            Bluestein::new(n, Direction::Forward).execute(&mut data);
            let reference = dft_naive(&input, Direction::Forward);
            for (k, (a, b)) in data.iter().zip(&reference).enumerate() {
                assert!(
                    (*a - *b).abs() < 1e-8 * n as f64,
                    "n={n} bin {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matches_radix2_on_powers_of_two() {
        let n = 64;
        let input = probe(n);
        let mut b = input.clone();
        Bluestein::new(n, Direction::Forward).execute(&mut b);
        let r = crate::radix2::tests::fft_forward_pow2(&input);
        for (a, c) in b.iter().zip(&r) {
            assert!((*a - *c).abs() < 1e-9);
        }
    }

    #[test]
    fn round_trip_arbitrary_size() {
        let n = 100; // the N-body Fourier cube edge
        let input = probe(n);
        let mut data = input.clone();
        Bluestein::new(n, Direction::Forward).execute(&mut data);
        Bluestein::new(n, Direction::Inverse).execute(&mut data);
        for (a, &b) in data.iter().zip(&input) {
            assert!((a.scale(1.0 / n as f64) - b).abs() < 1e-9);
        }
    }

    #[test]
    fn size_one_is_identity() {
        let mut data = vec![Complex64::new(3.0, -1.0)];
        Bluestein::new(1, Direction::Forward).execute(&mut data);
        assert_eq!(data[0], Complex64::new(3.0, -1.0));
    }

    #[test]
    fn plan_is_reusable() {
        let plan = Bluestein::new(9, Direction::Forward);
        let x1 = probe(9);
        let x2: Vec<Complex64> = probe(9).iter().map(|v| v.scale(2.0)).collect();
        let mut y1 = x1.clone();
        let mut y2 = x2.clone();
        plan.execute(&mut y1);
        plan.execute(&mut y2);
        // Linearity: transform(2x) = 2·transform(x).
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a.scale(2.0) - *b).abs() < 1e-9);
        }
    }
}
