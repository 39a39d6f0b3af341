//! PCA classification and similar-spectrum search.
//!
//! The full §2.2 pipeline: resample and normalize the spectra, fit a PCA
//! basis, expand each spectrum on the basis — with **masked least
//! squares**, because "because of the flags that mask out wrong
//! measurements bin by bin, dot product cannot be used for expanding
//! spectra on a basis but least squares fitting is necessary" — store the
//! coefficients in a kd-tree, and answer similarity queries by expanding
//! the query spectrum on the fly.

use crate::kdtree::{KdTree, Neighbor};
use crate::normalize::normalize_total;
use crate::resample::resample;
use crate::spectrum::Spectrum;
use sqlarray_core::{ArrayError, Result};
use sqlarray_linalg::{lstsq_weighted, Matrix, Pca};

/// A fitted search index over a spectrum collection.
pub struct SpectrumIndex {
    grid: Vec<f64>,
    pca: Pca,
    tree: KdTree,
}

/// Resamples, normalizes and gap-fills one spectrum onto the index grid.
/// Returns the processed flux vector and the per-bin weights (0 = masked).
fn prepare(s: &Spectrum, grid: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
    let r = resample(s, grid)?;
    let n = normalize_total(&mask_for_normalization(&r))?;
    let weights: Vec<f64> = r
        .flags
        .iter()
        .map(|&f| if f == 0 { 1.0 } else { 0.0 })
        .collect();
    let filled = fill_masked(&n.flux, &weights);
    Ok((filled, weights))
}

/// Replaces masked flux values with zeros before integrating, so corrupted
/// pixels cannot skew the normalization.
fn mask_for_normalization(s: &Spectrum) -> Spectrum {
    let mut out = s.clone();
    for i in 0..out.len() {
        if out.flags[i] != 0 {
            out.flux[i] = 0.0;
        }
    }
    out
}

/// Linear interpolation across masked runs (PCA needs complete vectors).
fn fill_masked(flux: &[f64], weights: &[f64]) -> Vec<f64> {
    let n = flux.len();
    let mut out = flux.to_vec();
    let good: Vec<usize> = (0..n).filter(|&i| weights[i] > 0.0).collect();
    if good.is_empty() {
        return vec![0.0; n];
    }
    for i in 0..n {
        if weights[i] > 0.0 {
            continue;
        }
        let next = good.partition_point(|&g| g < i);
        out[i] = match (next.checked_sub(1).map(|p| good[p]), good.get(next)) {
            (Some(lo), Some(&hi)) => {
                let t = (i - lo) as f64 / (hi - lo) as f64;
                flux[lo] * (1.0 - t) + flux[hi] * t
            }
            (Some(lo), None) => flux[lo],
            (None, Some(&hi)) => flux[hi],
            (None, None) => 0.0,
        };
    }
    out
}

impl SpectrumIndex {
    /// Builds the index: fits a `k`-component PCA basis on the prepared
    /// spectra and stores every spectrum's masked-least-squares
    /// coefficients in a kd-tree keyed by the supplied ids.
    pub fn build(spectra: &[(u64, Spectrum)], grid: &[f64], k: usize) -> Result<SpectrumIndex> {
        if spectra.len() < 2 {
            return Err(ArrayError::Parse("need at least two spectra".into()));
        }
        let d = grid.len();
        let mut data = Matrix::zeros(spectra.len(), d);
        let mut prepared = Vec::with_capacity(spectra.len());
        for (row, (_, s)) in spectra.iter().enumerate() {
            let (flux, weights) = prepare(s, grid)?;
            for (col, &f) in flux.iter().enumerate() {
                data.set(row, col, f);
            }
            prepared.push((flux, weights));
        }
        let pca = sqlarray_linalg::pca::fit(&data, k);

        let mut coeffs = Vec::with_capacity(spectra.len());
        for ((id, _), (flux, weights)) in spectra.iter().zip(&prepared) {
            let c = expand_masked(&pca, flux, weights);
            coeffs.push((*id, c));
        }
        let tree = KdTree::build(k, coeffs);
        Ok(SpectrumIndex {
            grid: grid.to_vec(),
            pca,
            tree,
        })
    }

    /// The fitted basis.
    pub fn pca(&self) -> &Pca {
        &self.pca
    }

    /// Expands a spectrum on the basis with masked least squares.
    pub(crate) fn expand(&self, s: &Spectrum) -> Result<Vec<f64>> {
        let (flux, weights) = prepare(s, &self.grid)?;
        Ok(expand_masked(&self.pca, &flux, &weights))
    }

    /// The `k` most similar stored spectra to the query.
    pub fn similar(&self, query: &Spectrum, k: usize) -> Result<Vec<Neighbor>> {
        let c = self.expand(query)?;
        Ok(self.tree.nearest(&c, k))
    }
}

/// Masked least-squares expansion: solves
/// `min ‖W^{1/2}((x − μ) − C·c)‖₂` over the coefficients `c`.
fn expand_masked(pca: &Pca, flux: &[f64], weights: &[f64]) -> Vec<f64> {
    let d = flux.len();
    let k = pca.k();
    let centered: Vec<f64> = flux.iter().zip(&pca.mean).map(|(f, m)| f - m).collect();
    let basis = Matrix::from_fn(d, k, |i, j| pca.components.get(i, j));
    lstsq_weighted(&basis, &centered, weights, 1e-10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resample::linear_grid;
    use crate::synth::{synth_spectrum, synth_survey, SpectralClass, SynthParams};

    fn survey_index(count: usize, mask_prob: f64) -> (Vec<(u64, Spectrum)>, SpectrumIndex) {
        let params = SynthParams {
            noise: 0.02,
            mask_prob,
            bins: 256,
            ..SynthParams::default()
        };
        let spectra: Vec<(u64, Spectrum)> = synth_survey(7, count, &[0.1], &params)
            .into_iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s))
            .collect();
        let grid = linear_grid(4200.0, 8800.0, 128);
        let index = SpectrumIndex::build(&spectra, &grid, 6).unwrap();
        (spectra, index)
    }

    #[test]
    fn self_query_returns_self_first() {
        let (spectra, index) = survey_index(20, 0.0);
        for (id, s) in spectra.iter().take(6) {
            let hits = index.similar(s, 3).unwrap();
            assert_eq!(hits[0].id, *id, "self not first for {id}");
            assert!(hits[0].distance < 1e-6);
        }
    }

    #[test]
    fn neighbors_share_the_spectral_class() {
        // Even ids are emission, odd absorption (synth_survey alternates).
        let (_, index) = survey_index(40, 0.0);
        let params = SynthParams {
            noise: 0.02,
            mask_prob: 0.0,
            bins: 256,
            ..SynthParams::default()
        };
        let probe = synth_spectrum(991, SpectralClass::Emission, 0.1, &params);
        let hits = index.similar(&probe, 5).unwrap();
        let emission_hits = hits.iter().filter(|h| h.id % 2 == 0).count();
        assert!(
            emission_hits >= 4,
            "{emission_hits}/5 neighbors share the class"
        );
    }

    #[test]
    fn pca_separates_the_two_classes() {
        let (spectra, index) = survey_index(30, 0.0);
        // First coefficient should split the classes almost perfectly.
        let mut emission = Vec::new();
        let mut absorption = Vec::new();
        for (id, s) in &spectra {
            let c = index.expand(s).unwrap();
            if id % 2 == 0 {
                emission.push(c[0]);
            } else {
                absorption.push(c[0]);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (me, ma) = (mean(&emission), mean(&absorption));
        let spread = |v: &[f64], m: f64| {
            (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
        };
        let gap = (me - ma).abs();
        assert!(
            gap > 2.0 * (spread(&emission, me) + spread(&absorption, ma)),
            "classes overlap on PC1"
        );
    }

    #[test]
    fn masked_expansion_matches_unmasked() {
        // Same object with and without bad pixels: the masked LSQ
        // coefficients must stay close to the clean ones.
        let clean_params = SynthParams {
            noise: 0.0,
            mask_prob: 0.0,
            bins: 256,
            ..SynthParams::default()
        };
        let (_, index) = survey_index(30, 0.0);
        let clean = synth_spectrum(555, SpectralClass::Emission, 0.1, &clean_params);
        let mut damaged = clean.clone();
        for i in (20..damaged.len()).step_by(17) {
            damaged.flags[i] = 1;
            damaged.flux[i] = -1e4;
        }
        let c_clean = index.expand(&clean).unwrap();
        let c_masked = index.expand(&damaged).unwrap();
        let scale = c_clean.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (a, b) in c_clean.iter().zip(&c_masked) {
            assert!(
                (a - b).abs() < 0.15 * scale.max(1e-9),
                "coefficients diverged: {c_clean:?} vs {c_masked:?}"
            );
        }
        // The damaged spectrum must still resolve to a nearby point: far
        // closer to its clean twin than to the other class.
        let d_self: f64 = c_clean
            .iter()
            .zip(&c_masked)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(d_self < 0.3 * scale, "masked twin drifted {d_self}");
    }

    #[test]
    fn fill_masked_interpolates_gaps() {
        let flux = [1.0, -99.0, -99.0, 4.0, 5.0];
        let w = [1.0, 0.0, 0.0, 1.0, 1.0];
        let filled = super::fill_masked(&flux, &w);
        assert!((filled[1] - 2.0).abs() < 1e-12);
        assert!((filled[2] - 3.0).abs() < 1e-12);
        assert_eq!(filled[0], 1.0);
        // Edge extrapolation holds the nearest good value.
        let w2 = [0.0, 1.0, 1.0, 1.0, 0.0];
        let filled2 = super::fill_masked(&flux, &w2);
        assert_eq!(filled2[0], flux[1]);
        assert_eq!(filled2[4], flux[3]);
    }

    #[test]
    fn build_requires_two_spectra() {
        let grid = linear_grid(4200.0, 8800.0, 16);
        let params = SynthParams::default();
        let one = vec![(
            0u64,
            synth_spectrum(1, SpectralClass::Emission, 0.1, &params),
        )];
        assert!(SpectrumIndex::build(&one, &grid, 2).is_err());
    }
}
