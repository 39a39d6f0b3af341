//! Flux-conserving resampling.
//!
//! "Resampling the spectra to a common wavelength grid is also very
//! important [...] the resampling should be done in such a way that the
//! integrated flux in any wavelength range remains the same." (§2.2)
//!
//! The spectrum is treated as a histogram: flux density is constant within
//! each source bin. A target bin receives the overlap-weighted average of
//! the source densities, which conserves `∫ f dλ` exactly over any union
//! of target bins inside the covered range.

use crate::spectrum::Spectrum;
use sqlarray_core::{ArrayError, Result};

/// Resamples onto the grid with the given bin centers. Errors propagate in
/// quadrature with the same overlap weights; a target bin is flagged if
/// any overlapping source bin is flagged, or if it has no coverage.
pub fn resample(s: &Spectrum, new_centers: &[f64]) -> Result<Spectrum> {
    if new_centers.len() < 2 {
        return Err(ArrayError::Parse("need at least two target bins".into()));
    }
    if new_centers.windows(2).any(|w| w[0] >= w[1]) {
        return Err(ArrayError::Parse(
            "target centers must be strictly increasing".into(),
        ));
    }
    let src_edges = s.bin_edges();
    let dst = Spectrum::new(
        new_centers.to_vec(),
        vec![0.0; new_centers.len()],
        vec![0.0; new_centers.len()],
        vec![0; new_centers.len()],
        s.redshift,
    )?;
    let dst_edges = dst.bin_edges();

    let mut flux = vec![0.0f64; new_centers.len()];
    let mut var = vec![0.0f64; new_centers.len()];
    let mut flags = vec![0i16; new_centers.len()];

    let mut j = 0usize; // source bin cursor
    for (t, f_out) in flux.iter_mut().enumerate() {
        let lo = dst_edges[t];
        let hi = dst_edges[t + 1];
        // Advance to the first source bin overlapping [lo, hi).
        while j < s.len() && src_edges[j + 1] <= lo {
            j += 1;
        }
        let mut k = j;
        let mut covered = 0.0f64;
        while k < s.len() && src_edges[k] < hi {
            let olo = src_edges[k].max(lo);
            let ohi = src_edges[k + 1].min(hi);
            let w = (ohi - olo).max(0.0);
            if w > 0.0 {
                *f_out += s.flux[k] * w;
                var[t] += (s.error[k] * w).powi(2);
                if s.flags[k] != 0 {
                    flags[t] = s.flags[k];
                }
                covered += w;
            }
            k += 1;
        }
        if covered > 0.0 {
            *f_out /= covered;
            var[t] = var[t].sqrt() / covered;
        } else {
            flags[t] = i16::MAX; // no coverage
        }
    }

    Spectrum::new(new_centers.to_vec(), flux, var, flags, s.redshift)
}

/// A linear wavelength grid of `n` centers spanning `[lo, hi]`.
pub fn linear_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_spectrum(n: usize, level: f64) -> Spectrum {
        Spectrum::new(
            (0..n).map(|i| 4000.0 + i as f64).collect(),
            vec![level; n],
            vec![0.1; n],
            vec![0; n],
            0.0,
        )
        .unwrap()
    }

    #[test]
    fn flat_spectrum_stays_flat() {
        let s = flat_spectrum(100, 2.5);
        let grid = linear_grid(4010.0, 4080.0, 37);
        let r = resample(&s, &grid).unwrap();
        for f in &r.flux {
            assert!((f - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn integrated_flux_is_conserved() {
        // A bumpy spectrum resampled onto a coarser grid covering the same
        // span: total integral preserved.
        let n = 128;
        let s = Spectrum::new(
            (0..n).map(|i| 4000.0 + i as f64).collect(),
            (0..n)
                .map(|i| 1.0 + (i as f64 * 0.2).sin().powi(2) * 3.0)
                .collect(),
            vec![0.05; n],
            vec![0; n],
            0.3,
        )
        .unwrap();
        // Target grid with edges aligned to the source coverage.
        let grid = linear_grid(4001.5, 4123.5, 32);
        let r = resample(&s, &grid).unwrap();
        // Compare integrals over the common support [edge0, edgeN].
        let r_edges = r.bin_edges();
        let (lo, hi) = (r_edges[0], *r_edges.last().unwrap());
        let src_edges = s.bin_edges();
        let mut src_int = 0.0;
        for i in 0..s.len() {
            let olo = src_edges[i].max(lo);
            let ohi = src_edges[i + 1].min(hi);
            if ohi > olo {
                src_int += s.flux[i] * (ohi - olo);
            }
        }
        let dst_int = r.integrated_flux();
        assert!(
            (src_int - dst_int).abs() < 1e-9 * src_int.abs(),
            "{src_int} vs {dst_int}"
        );
    }

    #[test]
    fn upsampling_preserves_levels() {
        let s = flat_spectrum(10, 7.0);
        let grid = linear_grid(4001.0, 4008.0, 50);
        let r = resample(&s, &grid).unwrap();
        for f in &r.flux {
            assert!((f - 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn flags_propagate() {
        let mut s = flat_spectrum(20, 1.0);
        s.flags[10] = 3;
        let grid = linear_grid(4005.0, 4015.0, 6);
        let r = resample(&s, &grid).unwrap();
        // The bins overlapping source bin 10 (λ≈4010) are flagged.
        assert!(r.flags.contains(&3));
        // Bins far from it are clean.
        assert_eq!(r.flags[0], 0);
    }

    #[test]
    fn no_coverage_is_flagged() {
        let s = flat_spectrum(10, 1.0); // covers ~[3999.5, 4009.5]
        let grid = linear_grid(4950.0, 5050.0, 5);
        let r = resample(&s, &grid).unwrap();
        assert!(r.flags.iter().all(|&f| f == i16::MAX));
    }

    #[test]
    fn rejects_bad_targets() {
        let s = flat_spectrum(10, 1.0);
        assert!(resample(&s, &[4000.0]).is_err());
        assert!(resample(&s, &[4001.0, 4000.0]).is_err());
    }

    #[test]
    fn errors_shrink_when_averaging_bins() {
        // Combining k source bins with equal errors reduces the error by
        // ~sqrt(k) (independent noise).
        let s = flat_spectrum(100, 1.0);
        let fine = resample(&s, &linear_grid(4010.0, 4090.0, 81)).unwrap();
        let coarse = resample(&s, &linear_grid(4010.0, 4090.0, 11)).unwrap();
        assert!(coarse.error[5] < fine.error[40]);
    }
}
