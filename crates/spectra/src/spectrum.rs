//! The spectrum record.
//!
//! "Spectra are [...] represented as a number of vectors such as wavelength
//! bins (min, max and center wavelength), flux, error of the measured flux
//! and flags. Latter is usually a vector of 8 or 16 bit integers. As the
//! wavelength scale can change from observation to observation [...] it is
//! necessary to store the wavelength vector of each spectrum separately."
//! (§2.2)

use sqlarray_core::{build, ArrayError, Result, SqlArray, StorageClass};

/// A 1-D spectrum: per-bin wavelength centers, flux density, flux error
/// and quality flags (0 = good, non-zero = masked), plus the object's
/// redshift.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Bin-center wavelengths, strictly increasing (Å).
    pub wavelength: Vec<f64>,
    /// Flux density per bin.
    pub flux: Vec<f64>,
    /// 1σ flux uncertainty per bin.
    pub error: Vec<f64>,
    /// Quality flags per bin; non-zero bins are excluded from fits.
    pub flags: Vec<i16>,
    /// Redshift of the source.
    pub redshift: f64,
}

impl Spectrum {
    /// Validates the vectors and builds the record.
    pub(crate) fn new(
        wavelength: Vec<f64>,
        flux: Vec<f64>,
        error: Vec<f64>,
        flags: Vec<i16>,
        redshift: f64,
    ) -> Result<Spectrum> {
        let n = wavelength.len();
        if n == 0 {
            return Err(ArrayError::Parse("empty spectrum".into()));
        }
        if flux.len() != n || error.len() != n || flags.len() != n {
            return Err(ArrayError::Parse(format!(
                "vector length mismatch: λ {n}, flux {}, error {}, flags {}",
                flux.len(),
                error.len(),
                flags.len()
            )));
        }
        if wavelength.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ArrayError::Parse(
                "wavelengths must be strictly increasing".into(),
            ));
        }
        Ok(Spectrum {
            wavelength,
            flux,
            error,
            flags,
            redshift,
        })
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.wavelength.len()
    }

    /// True when the spectrum has no bins (unconstructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.wavelength.is_empty()
    }

    /// Bin edges implied by the centers (midpoints; end bins mirrored).
    pub(crate) fn bin_edges(&self) -> Vec<f64> {
        let w = &self.wavelength;
        let n = w.len();
        let mut edges = Vec::with_capacity(n + 1);
        edges.push(w[0] - (w[1] - w[0]) / 2.0);
        for i in 0..n - 1 {
            edges.push((w[i] + w[i + 1]) / 2.0);
        }
        edges.push(w[n - 1] + (w[n - 1] - w[n - 2]) / 2.0);
        edges
    }

    /// Serializes into the four array blobs the database stores: the
    /// wavelength/flux/error vectors as `float64` arrays and the flags as
    /// an `int16` array, picking the storage class by size.
    pub fn to_arrays(&self) -> Result<SpectrumArrays> {
        let class = |bytes: usize| {
            if bytes + 24 <= sqlarray_core::SHORT_MAX_BYTES {
                StorageClass::Short
            } else {
                StorageClass::Max
            }
        };
        let fc = class(self.len() * 8);
        let ic = class(self.len() * 2);
        Ok(SpectrumArrays {
            wavelength: build::vector(fc, &self.wavelength)?,
            flux: build::vector(fc, &self.flux)?,
            error: build::vector(fc, &self.error)?,
            flags: build::vector(ic, &self.flags)?,
            redshift: self.redshift,
        })
    }
}

/// The array-blob form of a spectrum row.
#[derive(Debug, Clone)]
pub struct SpectrumArrays {
    /// Wavelength vector blob.
    pub wavelength: SqlArray,
    /// Flux vector blob.
    pub flux: SqlArray,
    /// Error vector blob.
    pub error: SqlArray,
    /// Flags vector blob (`int16`, per the paper).
    pub flags: SqlArray,
    /// Redshift scalar.
    pub redshift: f64,
}

#[cfg(test)]
impl Spectrum {
    /// Integrated flux `∫ f dλ` over all bins (flux density × bin width).
    pub(crate) fn integrated_flux(&self) -> f64 {
        let edges = self.bin_edges();
        self.flux
            .iter()
            .enumerate()
            .map(|(i, f)| f * (edges[i + 1] - edges[i]))
            .sum()
    }

    /// Reconstructs from the stored blobs.
    pub(crate) fn from_arrays(a: &SpectrumArrays) -> Result<Spectrum> {
        Spectrum::new(
            a.wavelength.to_vec::<f64>()?,
            a.flux.to_vec::<f64>()?,
            a.error.to_vec::<f64>()?,
            a.flags.to_vec::<i16>()?,
            a.redshift,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Spectrum {
        Spectrum::new(
            vec![4000.0, 4001.0, 4003.0, 4006.0],
            vec![1.0, 2.0, 3.0, 4.0],
            vec![0.1, 0.1, 0.2, 0.2],
            vec![0, 0, 1, 0],
            0.5,
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(Spectrum::new(vec![], vec![], vec![], vec![], 0.0).is_err());
        assert!(Spectrum::new(vec![1.0, 2.0], vec![1.0], vec![1.0, 1.0], vec![0, 0], 0.0).is_err());
        assert!(Spectrum::new(
            vec![2.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![0, 0],
            0.0
        )
        .is_err());
    }

    #[test]
    fn bin_edges_bracket_centers() {
        let s = toy();
        let e = s.bin_edges();
        assert_eq!(e.len(), 5);
        for i in 0..s.len() {
            assert!(e[i] < s.wavelength[i] && s.wavelength[i] < e[i + 1]);
        }
        // Interior edge is the midpoint.
        assert!((e[1] - 4000.5).abs() < 1e-12);
    }

    #[test]
    fn integrated_flux_positive_and_scales() {
        let s = toy();
        let f1 = s.integrated_flux();
        assert!(f1 > 0.0);
        let mut s2 = s.clone();
        for f in &mut s2.flux {
            *f *= 2.0;
        }
        assert!((s2.integrated_flux() - 2.0 * f1).abs() < 1e-12);
    }

    #[test]
    fn array_round_trip() {
        let s = toy();
        let a = s.to_arrays().unwrap();
        assert_eq!(a.flags.elem(), sqlarray_core::ElementType::Int16);
        let back = Spectrum::from_arrays(&a).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn long_spectra_use_max_class() {
        let n = 3000; // SDSS-like bin count: 8 B × 3000 > 8000 B
        let s = Spectrum::new(
            (0..n).map(|i| 3800.0 + i as f64).collect(),
            vec![1.0; n],
            vec![0.1; n],
            vec![0; n],
            0.1,
        )
        .unwrap();
        let a = s.to_arrays().unwrap();
        assert_eq!(a.flux.class(), StorageClass::Max);
        assert_eq!(a.flags.class(), StorageClass::Short); // 2 B × 3000 fits
    }
}
