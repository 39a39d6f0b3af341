//! # sqlarray-nbody
//!
//! The cosmological N-body workload of Dobos et al. (EDBT 2011, §2.3):
//! synthetic halo-model snapshots with persistent particle ids
//! ([`particle`]), Morton-keyed bucketed octrees with cone queries and
//! weighted decimation ([`octree`]), friends-of-friends halo finding
//! ([`fof`]), merger-history linking by shared particle labels
//! ([`merger`]), cloud-in-cell density grids packed as array blobs
//! ([`cic`]), FFT power spectra ([`power`]), two-point correlation
//! functions with analytic periodic randoms ([`correlate`]), and
//! light-cone construction across look-back snapshots ([`lightcone`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cic;
pub mod correlate;
pub mod fof;
pub mod lightcone;
pub mod merger;
pub mod octree;
pub mod particle;
pub mod power;

pub use cic::DensityGrid;
pub use correlate::two_point_correlation;
pub use fof::friends_of_friends;
pub use lightcone::{build_lightcone, LightconeSpec};
pub use merger::link_catalogs;
pub use octree::Octree;
pub use particle::SynthSim;
pub use power::power_spectrum;
