//! # sqlarray-spectra
//!
//! The astronomical-spectrum workload of Dobos et al. (EDBT 2011, §2.2):
//! spectra stored as per-object array blobs ([`spectrum`]),
//! flux-conserving resampling to common grids ([`resample`](mod@resample)), window
//! normalization and physical corrections ([`normalize`]),
//! inverse-variance composite stacking grouped by redshift
//! ([`composite`](mod@composite)), and PCA classification with masked least-squares
//! expansion plus kd-tree similarity search ([`search`], [`kdtree`]) over
//! synthetic SDSS-like surveys ([`synth`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composite;
pub mod kdtree;
pub mod normalize;
pub mod resample;
pub mod search;
pub mod spectrum;
pub mod synth;

pub use composite::{composite, composite_by_redshift};
pub use resample::{linear_grid, resample};
pub use search::SpectrumIndex;
pub use synth::{synth_spectrum, synth_survey, SpectralClass, SynthParams};
