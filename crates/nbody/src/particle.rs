//! Particles, snapshots, and the synthetic simulation generator.
//!
//! Stand-in for the 500 × 320³-particle cosmological runs of §2.3: a halo
//! model places clustered particle groups plus a uniform background in a
//! periodic box, and "snapshots" evolve by drifting particles and growing
//! the halos, so consecutive snapshots share particle identities — which
//! is what merger-tree linking needs.

use sqlarray_core::rng::{Rng, SeedableRng, StdRng};

/// One simulation particle. The paper dumps "the ID, position and velocity
/// for each particle" (40 bytes per point per snapshot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Persistent particle identity across snapshots.
    pub id: i64,
    /// Position in the periodic unit box.
    pub pos: [f64; 3],
    /// Peculiar velocity.
    pub vel: [f64; 3],
}

/// One output time of a simulation.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Snapshot index (time step).
    pub step: u32,
    /// Particles, in id order.
    pub particles: Vec<Particle>,
}

/// Halo-model generator parameters.
#[derive(Debug, Clone)]
pub struct SynthSim {
    /// RNG seed.
    pub seed: u64,
    /// Number of halos.
    pub halos: usize,
    /// Particles per halo.
    pub halo_particles: usize,
    /// Gaussian radius of each halo.
    pub halo_radius: f64,
    /// Uniform background particles.
    pub background: usize,
    /// Velocity dispersion inside halos.
    pub sigma_v: f64,
}

impl Default for SynthSim {
    fn default() -> Self {
        SynthSim {
            seed: 42,
            halos: 12,
            halo_particles: 120,
            halo_radius: 0.015,
            background: 600,
            sigma_v: 0.002,
        }
    }
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl SynthSim {
    /// Generates snapshot `step`. Halos drift along fixed velocities;
    /// particles keep their ids, so FOF groups at consecutive steps share
    /// members.
    pub fn snapshot(&self, step: u32) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let dt = step as f64 * 0.01;
        let mut particles = Vec::with_capacity(self.halos * self.halo_particles + self.background);
        let mut next_id = 0i64;

        for _ in 0..self.halos {
            let center = [rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()];
            let drift: [f64; 3] = [
                rng.gen_range(-0.02..0.02),
                rng.gen_range(-0.02..0.02),
                rng.gen_range(-0.02..0.02),
            ];
            // Halos contract slightly over time (structure growth).
            let radius = self.halo_radius * (1.0 - 0.3 * (dt * 10.0).min(1.0));
            for _ in 0..self.halo_particles {
                let offset = [
                    gauss(&mut rng) * radius,
                    gauss(&mut rng) * radius,
                    gauss(&mut rng) * radius,
                ];
                let vel = [
                    drift[0] + gauss(&mut rng) * self.sigma_v,
                    drift[1] + gauss(&mut rng) * self.sigma_v,
                    drift[2] + gauss(&mut rng) * self.sigma_v,
                ];
                let pos = [
                    (center[0] + drift[0] * dt + offset[0]).rem_euclid(1.0),
                    (center[1] + drift[1] * dt + offset[1]).rem_euclid(1.0),
                    (center[2] + drift[2] * dt + offset[2]).rem_euclid(1.0),
                ];
                particles.push(Particle {
                    id: next_id,
                    pos,
                    vel,
                });
                next_id += 1;
            }
        }
        for _ in 0..self.background {
            let vel = [
                gauss(&mut rng) * self.sigma_v,
                gauss(&mut rng) * self.sigma_v,
                gauss(&mut rng) * self.sigma_v,
            ];
            let pos = [
                (rng.gen::<f64>() + vel[0] * dt).rem_euclid(1.0),
                (rng.gen::<f64>() + vel[1] * dt).rem_euclid(1.0),
                (rng.gen::<f64>() + vel[2] * dt).rem_euclid(1.0),
            ];
            particles.push(Particle {
                id: next_id,
                pos,
                vel,
            });
            next_id += 1;
        }
        Snapshot { step, particles }
    }
}

/// Minimum-image distance in the periodic unit box.
pub(crate) fn periodic_distance(a: [f64; 3], b: [f64; 3]) -> f64 {
    let mut s = 0.0;
    for k in 0..3 {
        let mut d = (a[k] - b[k]).abs();
        if d > 0.5 {
            d = 1.0 - d;
        }
        s += d * d;
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_deterministic() {
        let sim = SynthSim::default();
        let a = sim.snapshot(3);
        let b = sim.snapshot(3);
        assert_eq!(a.particles, b.particles);
        assert_eq!(
            a.particles.len(),
            sim.halos * sim.halo_particles + sim.background
        );
    }

    #[test]
    fn ids_are_unique_and_stable() {
        let sim = SynthSim::default();
        let s0 = sim.snapshot(0);
        let s1 = sim.snapshot(1);
        let ids0: Vec<i64> = s0.particles.iter().map(|p| p.id).collect();
        let ids1: Vec<i64> = s1.particles.iter().map(|p| p.id).collect();
        assert_eq!(ids0, ids1);
        let mut sorted = ids0.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids0.len());
    }

    #[test]
    fn positions_stay_in_the_box() {
        let sim = SynthSim::default();
        for step in [0u32, 5, 20] {
            for p in &sim.snapshot(step).particles {
                for c in p.pos {
                    assert!((0.0..1.0).contains(&c), "step {step}: {c}");
                }
            }
        }
    }

    #[test]
    fn halo_members_drift_together() {
        let sim = SynthSim::default();
        let s0 = sim.snapshot(0);
        let s5 = sim.snapshot(5);
        // Take two particles of halo 0 and check their displacement
        // vectors roughly agree (same drift).
        let d = |a: &Particle, b: &Particle| {
            let mut out = [0.0f64; 3];
            for (k, o) in out.iter_mut().enumerate() {
                let mut delta = b.pos[k] - a.pos[k];
                if delta > 0.5 {
                    delta -= 1.0;
                }
                if delta < -0.5 {
                    delta += 1.0;
                }
                *o = delta;
            }
            out
        };
        let m0 = d(&s0.particles[0], &s5.particles[0]);
        let m1 = d(&s0.particles[1], &s5.particles[1]);
        for k in 0..3 {
            assert!((m0[k] - m1[k]).abs() < 0.05, "axis {k}");
        }
    }

    #[test]
    fn periodic_distance_wraps() {
        let a = [0.02, 0.5, 0.5];
        let b = [0.98, 0.5, 0.5];
        assert!((periodic_distance(a, b) - 0.04).abs() < 1e-12);
        assert_eq!(periodic_distance(a, a), 0.0);
        // Maximum possible separation along one axis is 0.5.
        let c = [0.0, 0.0, 0.0];
        let d = [0.5, 0.0, 0.0];
        assert!((periodic_distance(c, d) - 0.5).abs() < 1e-12);
    }
}
