//! Flux normalization and wavelength-dependent corrections.
//!
//! "Normalization of the flux vector [...] requires integration of the
//! flux in given wavelength ranges and multiplication by scalar. Certain
//! corrections of physical effects require multiplying the flux vector
//! with a number that is a function of the wavelength." (§2.2)

use crate::spectrum::Spectrum;
use sqlarray_core::{ArrayError, Result};

/// Integrates flux over `[lo, hi]` (flux density × overlap width; masked
/// bins excluded).
pub(crate) fn integrate_window(s: &Spectrum, lo: f64, hi: f64) -> f64 {
    let edges = s.bin_edges();
    let mut total = 0.0;
    for i in 0..s.len() {
        if s.flags[i] != 0 {
            continue;
        }
        let olo = edges[i].max(lo);
        let ohi = edges[i + 1].min(hi);
        if ohi > olo {
            total += s.flux[i] * (ohi - olo);
        }
    }
    total
}

/// Scales the spectrum so the integral over `[lo, hi]` becomes `target`.
/// Fails when the window integral vanishes.
pub(crate) fn normalize_window(s: &Spectrum, lo: f64, hi: f64, target: f64) -> Result<Spectrum> {
    let current = integrate_window(s, lo, hi);
    if current.abs() < 1e-300 {
        return Err(ArrayError::Parse(format!(
            "zero flux in normalization window [{lo}, {hi}]"
        )));
    }
    let k = target / current;
    let mut out = s.clone();
    for f in &mut out.flux {
        *f *= k;
    }
    for e in &mut out.error {
        *e *= k.abs();
    }
    Ok(out)
}

/// Scales the spectrum to unit total integrated flux.
pub(crate) fn normalize_total(s: &Spectrum) -> Result<Spectrum> {
    let edges = s.bin_edges();
    normalize_window(s, edges[0], *edges.last().expect("non-empty"), 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Spectrum {
        let n = 50;
        Spectrum::new(
            (0..n).map(|i| 5000.0 + 2.0 * i as f64).collect(),
            (0..n).map(|i| 1.0 + i as f64 * 0.1).collect(),
            vec![0.2; n],
            vec![0; n],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn window_integral_of_flat_region() {
        let s = Spectrum::new(
            vec![1.0, 2.0, 3.0, 4.0],
            vec![5.0; 4],
            vec![0.0; 4],
            vec![0; 4],
            0.0,
        )
        .unwrap();
        // Window exactly covering bins 1 and 2 (width 2): integral 10.
        assert!((integrate_window(&s, 1.5, 3.5) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn masked_bins_excluded_from_integral() {
        let mut s = ramp();
        let full = integrate_window(&s, 5000.0, 5100.0);
        s.flags[10] = 1;
        let masked = integrate_window(&s, 5000.0, 5100.0);
        assert!(masked < full);
    }

    #[test]
    fn normalize_window_hits_target() {
        let s = ramp();
        let r = normalize_window(&s, 5010.0, 5050.0, 3.0).unwrap();
        assert!((integrate_window(&r, 5010.0, 5050.0) - 3.0).abs() < 1e-9);
        // Errors scale with the flux.
        let k = r.flux[0] / s.flux[0];
        assert!((r.error[0] - s.error[0] * k).abs() < 1e-12);
    }

    #[test]
    fn normalize_total_gives_unit_integral() {
        let s = ramp();
        let r = normalize_total(&s).unwrap();
        assert!((r.integrated_flux() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_rejected() {
        let s = Spectrum::new(
            vec![1.0, 2.0],
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![0, 0],
            0.0,
        )
        .unwrap();
        assert!(normalize_total(&s).is_err());
    }
}
