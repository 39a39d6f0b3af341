//! Cloud-in-cell (CIC) density assignment.
//!
//! "We will also need to compute the density over a 640³ grid,
//! interpolating over the particle positions, using a cloud-in-cell (CIC)
//! algorithm, then Fourier transform it and compute its power spectrum."
//! (§2.3)

use crate::particle::Particle;
use sqlarray_core::{SqlArray, StorageClass};

/// A periodic density grid (column-major `n³` doubles, mean-normalized
/// helpers included).
#[derive(Debug, Clone)]
pub struct DensityGrid {
    n: usize,
    cells: Vec<f64>,
}

impl DensityGrid {
    /// Assigns particles (unit mass each) onto an `n³` grid with CIC
    /// weights and periodic wrapping.
    pub fn assign_cic(particles: &[Particle], n: usize) -> DensityGrid {
        assert!(n >= 2);
        let mut cells = vec![0.0f64; n * n * n];
        let nf = n as f64;
        for p in particles {
            // Cell-centred convention: the particle at x contributes to
            // the two nearest cell centres per axis.
            let mut base = [0usize; 3];
            let mut frac = [0.0f64; 3];
            for k in 0..3 {
                let g = p.pos[k].rem_euclid(1.0) * nf - 0.5;
                let f = g.floor();
                base[k] = (f.rem_euclid(nf)) as usize % n;
                frac[k] = g - f;
            }
            for (dx, wx) in [(0usize, 1.0 - frac[0]), (1, frac[0])] {
                for (dy, wy) in [(0usize, 1.0 - frac[1]), (1, frac[1])] {
                    for (dz, wz) in [(0usize, 1.0 - frac[2]), (1, frac[2])] {
                        let ix = (base[0] + dx) % n;
                        let iy = (base[1] + dy) % n;
                        let iz = (base[2] + dz) % n;
                        cells[ix + n * (iy + n * iz)] += wx * wy * wz;
                    }
                }
            }
        }
        DensityGrid { n, cells }
    }

    /// Grid edge length.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Total assigned mass.
    pub fn total_mass(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Density contrast `δ = ρ/ρ̄ − 1` per cell.
    pub(crate) fn overdensity(&self) -> Vec<f64> {
        let mean = self.total_mass() / self.cells.len() as f64;
        if mean == 0.0 {
            return vec![0.0; self.cells.len()];
        }
        self.cells.iter().map(|c| c / mean - 1.0).collect()
    }

    /// Packs the grid into a rank-3 max array blob (`float64`), ready for
    /// the in-database FFT of §5.3.
    pub fn to_array(&self) -> SqlArray {
        SqlArray::from_vec(StorageClass::Max, &[self.n, self.n, self.n], &self.cells)
            .expect("grid dims are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particle_at(pos: [f64; 3]) -> Particle {
        Particle {
            id: 0,
            pos,
            vel: [0.0; 3],
        }
    }

    #[test]
    fn mass_is_conserved() {
        let sim = crate::particle::SynthSim::default();
        let snap = sim.snapshot(0);
        let g = DensityGrid::assign_cic(&snap.particles, 16);
        assert!((g.total_mass() - snap.particles.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn particle_at_cell_center_fills_one_cell() {
        // Cell centres sit at (i + 0.5)/n; a particle exactly there puts
        // all its mass in that cell.
        let n = 8;
        let pos = [2.5 / 8.0, 3.5 / 8.0, 4.5 / 8.0];
        let g = DensityGrid::assign_cic(&[particle_at(pos)], n);
        let idx = 2 + n * (3 + n * 4);
        assert!((g.cells[idx] - 1.0).abs() < 1e-12);
        assert!((g.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn particle_between_centers_splits_mass() {
        // Exactly on a cell boundary along x: 50/50 split.
        let n = 8;
        let pos = [3.0 / 8.0, 2.5 / 8.0, 2.5 / 8.0];
        let g = DensityGrid::assign_cic(&[particle_at(pos)], n);
        let a = g.cells[2 + n * (2 + n * 2)];
        let b = g.cells[3 + n * (2 + n * 2)];
        assert!((a - 0.5).abs() < 1e-12, "a = {a}");
        assert!((b - 0.5).abs() < 1e-12, "b = {b}");
    }

    #[test]
    fn wrapping_across_the_box_edge() {
        let n = 8;
        // Very close to the origin corner: mass wraps to the far cells.
        let g = DensityGrid::assign_cic(&[particle_at([0.01, 0.01, 0.01])], n);
        assert!((g.total_mass() - 1.0).abs() < 1e-12);
        // The far corner cell (7,7,7) receives some share.
        assert!(g.cells[7 + n * (7 + n * 7)] > 0.0);
    }

    #[test]
    fn uniform_lattice_gives_flat_density() {
        // One particle per cell centre → every cell holds exactly 1.
        let n = 4;
        let mut parts = Vec::new();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    parts.push(particle_at([
                        (x as f64 + 0.5) / n as f64,
                        (y as f64 + 0.5) / n as f64,
                        (z as f64 + 0.5) / n as f64,
                    ]));
                }
            }
        }
        let g = DensityGrid::assign_cic(&parts, n);
        for c in &g.cells {
            assert!((c - 1.0).abs() < 1e-9);
        }
        let delta = g.overdensity();
        assert!(delta.iter().all(|d| d.abs() < 1e-9));
    }

    #[test]
    fn overdensity_has_zero_mean() {
        let sim = crate::particle::SynthSim::default();
        let g = DensityGrid::assign_cic(&sim.snapshot(0).particles, 12);
        let delta = g.overdensity();
        let mean: f64 = delta.iter().sum::<f64>() / delta.len() as f64;
        assert!(mean.abs() < 1e-12);
        // Clustered input ⇒ real fluctuations.
        assert!(delta.iter().any(|d| d.abs() > 0.5));
    }

    #[test]
    fn to_array_round_trips() {
        let sim = crate::particle::SynthSim::default();
        let g = DensityGrid::assign_cic(&sim.snapshot(0).particles, 8);
        let a = g.to_array();
        assert_eq!(a.dims(), &[8, 8, 8]);
        assert_eq!(a.to_vec::<f64>().unwrap(), g.cells);
    }
}
