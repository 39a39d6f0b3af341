//! Real-input transforms.

use crate::plan::{fft, ifft};
use sqlarray_core::Complex64;

/// Forward DFT of a real signal, returning the non-redundant half spectrum
/// (`n/2 + 1` bins, like FFTW's `r2c`).
pub fn rfft(input: &[f64]) -> Vec<Complex64> {
    let n = input.len();
    let complex: Vec<Complex64> = input.iter().map(|&v| Complex64::new(v, 0.0)).collect();
    let full = fft(&complex);
    full[..n / 2 + 1].to_vec()
}

/// Inverse of [`rfft`]: reconstructs the length-`n` real signal from the
/// half spectrum using Hermitian symmetry.
pub fn irfft(spectrum: &[Complex64], n: usize) -> Vec<f64> {
    assert_eq!(spectrum.len(), n / 2 + 1, "need n/2+1 bins for length n");
    let mut full = vec![Complex64::ZERO; n];
    full[..spectrum.len()].copy_from_slice(spectrum);
    for k in spectrum.len()..n {
        full[k] = spectrum[n - k].conj();
    }
    ifft(&full).iter().map(|c| c.re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfft_of_cosine_peaks_at_tone_bin() {
        let n = 64;
        let f = 5.0;
        let x: Vec<f64> = (0..n)
            .map(|j| (2.0 * std::f64::consts::PI * f * j as f64 / n as f64).cos())
            .collect();
        let spec = rfft(&x);
        assert_eq!(spec.len(), 33);
        // cos splits into two half-amplitude bins; the half spectrum keeps
        // bin 5 with magnitude n/2.
        assert!((spec[5].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (k, c) in spec.iter().enumerate() {
            if k != 5 {
                assert!(c.abs() < 1e-9, "leak at {k}");
            }
        }
    }

    #[test]
    fn rfft_irfft_round_trip_even_and_odd() {
        for n in [16usize, 25] {
            let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.37).sin() + 0.1).collect();
            let back = irfft(&rfft(&x), n);
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn hermitian_symmetry_holds() {
        let x: Vec<f64> = (0..32).map(|j| (j as f64).cos() * 0.5 + 0.25).collect();
        let complex: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let full = fft(&complex);
        for k in 1..32 {
            let a = full[k];
            let b = full[32 - k].conj();
            assert!((a - b).abs() < 1e-9);
        }
    }
}
