//! Iterative radix-2 Cooley–Tukey FFT for power-of-two lengths.

use sqlarray_core::Complex64;

/// Transform direction. Following FFTW's convention, neither direction
/// normalizes: `inverse(forward(x)) = n·x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `X[k] = Σ x[j]·e^{-2πi jk/n}`.
    Forward,
    /// `x[j] = Σ X[k]·e^{+2πi jk/n}` (unnormalized).
    Inverse,
}

impl Direction {
    /// Sign of the exponent.
    #[inline]
    pub(crate) fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// Precomputed twiddle factors for a power-of-two size.
#[derive(Debug, Clone)]
pub struct Twiddles {
    n: usize,
    /// `w[k] = e^{sign·2πi·k/n}` for `k < n/2`.
    w: Vec<Complex64>,
}

impl Twiddles {
    /// Builds the table for size `n` (must be a power of two ≥ 1).
    pub(crate) fn new(n: usize, dir: Direction) -> Twiddles {
        assert!(n.is_power_of_two(), "radix-2 needs a power-of-two size");
        let step = dir.sign() * 2.0 * std::f64::consts::PI / n as f64;
        let w = (0..n / 2)
            .map(|k| Complex64::cis(step * k as f64))
            .collect();
        Twiddles { n, w }
    }
}

/// In-place radix-2 FFT of `data` (length must equal the twiddle size).
pub(crate) fn fft_pow2(data: &mut [Complex64], tw: &Twiddles) {
    let n = data.len();
    assert_eq!(n, tw.n, "data length must match the plan size");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterflies: stage sizes 2, 4, ..., n.
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let stride = n / len; // twiddle index stride into the size-n table
        for start in (0..n).step_by(len) {
            let mut tw_idx = 0usize;
            for k in start..start + half {
                let w = tw.w[tw_idx];
                let u = data[k];
                let t = data[k + half] * w;
                data[k] = u + t;
                data[k + half] = u - t;
                tw_idx += stride;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Out-of-place forward transform of a power-of-two slice.
    pub(crate) fn fft_forward_pow2(input: &[Complex64]) -> Vec<Complex64> {
        let mut data = input.to_vec();
        let tw = Twiddles::new(input.len(), Direction::Forward);
        fft_pow2(&mut data, &tw);
        data
    }

    fn cnear(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// Reference O(n²) DFT.
    pub fn dft_naive(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
        let n = input.len();
        let step = dir.sign() * 2.0 * std::f64::consts::PI / n as f64;
        (0..n)
            .map(|k| {
                let mut acc = Complex64::ZERO;
                for (j, &x) in input.iter().enumerate() {
                    acc += x * Complex64::cis(step * (j * k % n) as f64);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex64::ZERO; 8];
        data[0] = Complex64::ONE;
        let tw = Twiddles::new(8, Direction::Forward);
        fft_pow2(&mut data, &tw);
        for v in data {
            assert!(cnear(v, Complex64::ONE, 1e-12));
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let mut data = vec![Complex64::ONE; 16];
        let tw = Twiddles::new(16, Direction::Forward);
        fft_pow2(&mut data, &tw);
        assert!(cnear(data[0], Complex64::new(16.0, 0.0), 1e-12));
        for v in &data[1..] {
            assert!(cnear(*v, Complex64::ZERO, 1e-12));
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        // x[j] = e^{2πi·3j/32} → spectrum concentrated in bin 3.
        let n = 32;
        let mut data: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * 3.0 * j as f64 / n as f64))
            .collect();
        let tw = Twiddles::new(n, Direction::Forward);
        fft_pow2(&mut data, &tw);
        assert!(cnear(data[3], Complex64::new(n as f64, 0.0), 1e-9));
        for (k, v) in data.iter().enumerate() {
            if k != 3 {
                assert!(v.abs() < 1e-9, "leak in bin {k}");
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 64] {
            let input: Vec<Complex64> = (0..n)
                .map(|j| Complex64::new((j as f64 * 0.7).sin(), (j as f64 * 1.3).cos()))
                .collect();
            let fast = fft_forward_pow2(&input);
            let slow = dft_naive(&input, Direction::Forward);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(cnear(*a, *b, 1e-9 * n as f64));
            }
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        let n = 128;
        let input: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new((j as f64).sin(), (j as f64 * 0.5).cos()))
            .collect();
        let mut data = input.clone();
        let fw = Twiddles::new(n, Direction::Forward);
        let bw = Twiddles::new(n, Direction::Inverse);
        fft_pow2(&mut data, &fw);
        fft_pow2(&mut data, &bw);
        for (a, &b) in data.iter().zip(&input) {
            assert!(cnear(a.scale(1.0 / n as f64), b, 1e-10));
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 64;
        let input: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new((j as f64 * 2.1).cos(), 0.3 * (j as f64).sin()))
            .collect();
        let spec = fft_forward_pow2(&input);
        let time_energy: f64 = input.iter().map(|v| v.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_panics() {
        let _ = Twiddles::new(12, Direction::Forward);
    }
}
