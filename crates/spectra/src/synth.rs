//! Synthetic spectrum generation.
//!
//! Stands in for the SDSS-style spectra of Spectrum Services (§2.2):
//! a smooth continuum, a set of emission/absorption lines whose observed
//! positions scale with `(1 + z)`, Gaussian noise, and randomly masked
//! (bad) pixels.

use crate::spectrum::Spectrum;
use sqlarray_core::rng::{Rng, SeedableRng, StdRng};

/// Parameters of the generator.
#[derive(Debug, Clone)]
pub struct SynthParams {
    /// Observed wavelength range (Å).
    pub lambda_range: (f64, f64),
    /// Number of bins.
    pub bins: usize,
    /// Continuum amplitude.
    pub continuum: f64,
    /// Relative noise level (σ as a fraction of the continuum).
    pub noise: f64,
    /// Probability that a pixel is masked.
    pub mask_prob: f64,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            lambda_range: (3800.0, 9200.0),
            bins: 512,
            continuum: 10.0,
            noise: 0.02,
            mask_prob: 0.01,
        }
    }
}

/// Rest-frame template lines: (λ_rest Å, relative strength; negative =
/// absorption). A small galaxy-like line list.
pub(crate) const TEMPLATE_LINES: &[(f64, f64)] = &[
    (3727.0, 1.8),  // [OII]
    (4102.0, -0.4), // Hδ
    (4341.0, -0.5), // Hγ
    (4861.0, 1.0),  // Hβ
    (5007.0, 2.5),  // [OIII]
    (5893.0, -0.8), // Na D
    (6563.0, 3.0),  // Hα
    (6725.0, 0.9),  // [SII]
];

/// Two spectral classes with different line mixes, to give PCA something
/// to separate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectralClass {
    /// Strong emission lines, blue continuum.
    Emission,
    /// Absorption-dominated, red continuum.
    Absorption,
}

/// Generates one synthetic spectrum.
pub fn synth_spectrum(
    seed: u64,
    class: SpectralClass,
    redshift: f64,
    params: &SynthParams,
) -> Spectrum {
    let mut rng = StdRng::seed_from_u64(seed);
    let (lo, hi) = params.lambda_range;
    let n = params.bins;
    let wavelength: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect();

    let slope = match class {
        SpectralClass::Emission => -0.6,
        SpectralClass::Absorption => 0.8,
    };
    let line_sign = match class {
        SpectralClass::Emission => 1.0,
        SpectralClass::Absorption => -0.6,
    };
    let sigma_v: f64 = 3.0 + rng.gen_range(0.0..2.0); // line width in Å (rest)

    let mut flux = Vec::with_capacity(n);
    for &w in &wavelength {
        let rest = w / (1.0 + redshift);
        // Power-law-ish continuum in rest wavelength.
        let mut f = params.continuum * (rest / 5000.0).powf(slope);
        for &(line, strength) in TEMPLATE_LINES {
            let d = (rest - line) / sigma_v;
            if d.abs() < 8.0 {
                f += line_sign * strength * params.continuum * 0.4 * (-0.5 * d * d).exp();
            }
        }
        flux.push(f);
    }

    let mut error = Vec::with_capacity(n);
    let mut flags = vec![0i16; n];
    for (i, f) in flux.iter_mut().enumerate() {
        let sigma = params.noise * params.continuum;
        // Box–Muller from two uniforms.
        let (u1, u2) = (rng.gen_range(1e-12..1.0f64), rng.gen_range(0.0..1.0f64));
        let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        *f += sigma * gauss;
        error.push(sigma);
        if rng.gen_bool(params.mask_prob) {
            flags[i] = 1;
            *f = -1000.0; // corrupted pixel, must be ignored by fits
        }
    }

    Spectrum::new(wavelength, flux, error, flags, redshift).expect("generated grid is valid")
}

/// Generates a survey: `count` spectra with alternating classes and
/// redshifts cycling through `redshifts`.
pub fn synth_survey(
    seed: u64,
    count: usize,
    redshifts: &[f64],
    params: &SynthParams,
) -> Vec<Spectrum> {
    (0..count)
        .map(|i| {
            let class = if i % 2 == 0 {
                SpectralClass::Emission
            } else {
                SpectralClass::Absorption
            };
            let z = redshifts[i % redshifts.len()];
            synth_spectrum(seed.wrapping_add(i as u64 * 7919), class, z, params)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct() {
        let p = SynthParams::default();
        let a = synth_spectrum(1, SpectralClass::Emission, 0.1, &p);
        let b = synth_spectrum(1, SpectralClass::Emission, 0.1, &p);
        let c = synth_spectrum(2, SpectralClass::Emission, 0.1, &p);
        assert_eq!(a, b);
        assert_ne!(a.flux, c.flux);
    }

    #[test]
    fn emission_lines_appear_at_redshifted_positions() {
        let p = SynthParams {
            noise: 0.0,
            mask_prob: 0.0,
            bins: 2048,
            ..SynthParams::default()
        };
        let z = 0.2;
        let s = synth_spectrum(3, SpectralClass::Emission, z, &p);
        // Hα at 6563(1+z) ≈ 7875.6 must be a local flux peak.
        let target = 6563.0 * (1.0 + z);
        let idx = s
            .wavelength
            .iter()
            .position(|&w| w >= target)
            .expect("in range");
        let peak = s.flux[idx - 2..idx + 2]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        let continuum_nearby = s.flux[idx + 40];
        assert!(
            peak > continuum_nearby * 1.5,
            "no line at {target}: peak {peak} vs continuum {continuum_nearby}"
        );
    }

    #[test]
    fn classes_differ_in_continuum_slope() {
        let p = SynthParams {
            noise: 0.0,
            mask_prob: 0.0,
            ..SynthParams::default()
        };
        let e = synth_spectrum(4, SpectralClass::Emission, 0.0, &p);
        let a = synth_spectrum(4, SpectralClass::Absorption, 0.0, &p);
        // Emission class is blue (falling), absorption red (rising).
        let ratio_e = e.flux[e.len() - 10] / e.flux[10];
        let ratio_a = a.flux[a.len() - 10] / a.flux[10];
        assert!(ratio_e < 1.0);
        assert!(ratio_a > 1.0);
    }

    #[test]
    fn masked_pixels_are_marked_and_corrupted() {
        let p = SynthParams {
            mask_prob: 0.2,
            ..SynthParams::default()
        };
        let s = synth_spectrum(5, SpectralClass::Emission, 0.05, &p);
        let masked = s.flags.iter().filter(|&&f| f != 0).count();
        assert!(masked > 0);
        for i in 0..s.len() {
            if s.flags[i] != 0 {
                assert!(s.flux[i] < -100.0, "masked pixel {i} not corrupted");
            }
        }
    }

    #[test]
    fn survey_cycles_classes_and_redshifts() {
        let p = SynthParams::default();
        let zs = [0.1, 0.3, 0.5];
        let survey = synth_survey(9, 12, &zs, &p);
        assert_eq!(survey.len(), 12);
        assert_eq!(survey[0].redshift, 0.1);
        assert_eq!(survey[4].redshift, 0.3);
        assert_eq!(survey[5].redshift, 0.5);
    }
}
