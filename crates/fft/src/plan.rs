//! FFT plans — the FFTW-style entry point.
//!
//! "FFTW requires specially aligned memory buffers to perform well. When
//! calling FFTW, a memory copy into a pre-aligned buffer is necessary but
//! the performance gain is usually worth the otherwise expensive
//! operation." (§5.3) A [`Plan`] owns its twiddles and a reusable aligned
//! scratch buffer; executing out-of-place through the plan models exactly
//! that copy.

use crate::bluestein::Bluestein;
use crate::radix2::{fft_pow2, Twiddles};
use sqlarray_core::Complex64;

pub use crate::radix2::Direction;

enum Kind {
    Radix2(Twiddles),
    Bluestein(Bluestein),
}

/// A reusable transform plan for one `(size, direction)` pair.
pub struct Plan {
    n: usize,
    kind: Kind,
    /// Reusable buffer standing in for FFTW's aligned allocation.
    scratch: Vec<Complex64>,
}

impl Plan {
    /// Plans a transform of length `n` (any size ≥ 1; powers of two take
    /// the radix-2 path, everything else Bluestein).
    pub fn new(n: usize, dir: Direction) -> Plan {
        assert!(n >= 1, "cannot plan a zero-length transform");
        let kind = if n.is_power_of_two() {
            Kind::Radix2(Twiddles::new(n, dir))
        } else {
            Kind::Bluestein(Bluestein::new(n, dir))
        };
        Plan {
            n,
            kind,
            scratch: vec![Complex64::ZERO; n],
        }
    }

    /// Executes in place (data must already live in a caller-managed
    /// buffer of the planned size).
    pub fn execute_inplace(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "data length must match the plan");
        match &self.kind {
            Kind::Radix2(tw) => fft_pow2(data, tw),
            Kind::Bluestein(b) => b.execute(data),
        }
    }

    /// Executes via the plan's internal buffer: copy in, transform, copy
    /// out — the FFTW aligned-buffer round trip. Slightly slower than
    /// [`execute_inplace`](Self::execute_inplace); benchmark E7 quantifies
    /// the difference.
    pub fn execute(&mut self, input: &[Complex64], output: &mut [Complex64]) {
        assert_eq!(input.len(), self.n);
        assert_eq!(output.len(), self.n);
        self.scratch.copy_from_slice(input);
        match &self.kind {
            Kind::Radix2(tw) => fft_pow2(&mut self.scratch, tw),
            Kind::Bluestein(b) => b.execute(&mut self.scratch),
        }
        output.copy_from_slice(&self.scratch);
    }
}

/// One-shot forward DFT (plans internally; use [`Plan`] for repeated
/// transforms).
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let mut out = input.to_vec();
    Plan::new(input.len(), Direction::Forward).execute_inplace(&mut out);
    out
}

/// One-shot inverse DFT, normalized by `1/n` so that `ifft(fft(x)) = x`.
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let mut out = input.to_vec();
    Plan::new(n, Direction::Inverse).execute_inplace(&mut out);
    let scale = 1.0 / n as f64;
    for v in &mut out {
        *v = v.scale(scale);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|j| Complex64::new((j as f64 * 1.1).sin(), (j as f64 * 0.2).cos() - 0.4))
            .collect()
    }

    #[test]
    fn fft_ifft_round_trip_both_paths() {
        for n in [8usize, 100] {
            let x = probe(n);
            let back = ifft(&fft(&x));
            for (a, b) in back.iter().zip(&x) {
                assert!((*a - *b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn plan_reuse_matches_oneshot() {
        let x = probe(24);
        let mut plan = Plan::new(24, Direction::Forward);
        let mut out = vec![Complex64::ZERO; 24];
        plan.execute(&x, &mut out);
        let reference = fft(&x);
        for (a, b) in out.iter().zip(&reference) {
            assert!((*a - *b).abs() < 1e-10);
        }
        // Second execution through the same plan (scratch reuse).
        let mut out2 = vec![Complex64::ZERO; 24];
        plan.execute(&x, &mut out2);
        assert_eq!(out, out2);
    }

    #[test]
    fn inplace_and_buffered_agree() {
        let x = probe(33);
        let mut a = x.clone();
        let plan = Plan::new(33, Direction::Forward);
        plan.execute_inplace(&mut a);
        let mut plan2 = Plan::new(33, Direction::Forward);
        let mut b = vec![Complex64::ZERO; 33];
        plan2.execute(&x, &mut b);
        for (p, q) in a.iter().zip(&b) {
            assert!((*p - *q).abs() < 1e-12);
        }
    }

    #[test]
    fn linearity() {
        let x = probe(50);
        let y: Vec<Complex64> = probe(50).iter().map(|v| v.scale(-0.5)).collect();
        let sum: Vec<Complex64> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        for k in 0..50 {
            assert!((fx[k] + fy[k] - fsum[k]).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "match the plan")]
    fn size_mismatch_panics() {
        let plan = Plan::new(8, Direction::Forward);
        let mut wrong = vec![Complex64::ZERO; 4];
        plan.execute_inplace(&mut wrong);
    }
}
