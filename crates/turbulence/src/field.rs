//! Synthetic isotropic turbulence velocity fields.
//!
//! Stand-in for the JHU 1024³ forced-isotropic-turbulence simulation the
//! paper's database serves (§2.1). The field is a sum of random
//! divergence-free Fourier modes on the periodic unit box — not a
//! Navier–Stokes solution, but smooth, solenoidal, periodic, and
//! analytically evaluable anywhere, which is exactly what validating a
//! blob-partitioned interpolation service needs (the substitution argument
//! in DESIGN.md).

use sqlarray_core::rng::{Rng, SeedableRng, StdRng};

/// One Fourier mode: `u · sin(2π k·x + φ)` with `u ⊥ k` (so ∇·v = 0).
#[derive(Debug, Clone, Copy)]
struct Mode {
    k: [f64; 3],
    u: [f64; 3],
    phase: f64,
}

/// A periodic, divergence-free synthetic velocity field with a smooth
/// pressure field.
#[derive(Debug, Clone)]
pub struct SyntheticField {
    modes: Vec<Mode>,
    pressure_modes: Vec<Mode>, // u unused as a vector: u[0] is the amplitude
}

impl SyntheticField {
    /// Builds a field with `n_modes` velocity modes, wavenumbers up to
    /// `k_max`, deterministic in `seed`.
    pub fn new(seed: u64, n_modes: usize, k_max: u32) -> SyntheticField {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut modes = Vec::with_capacity(n_modes);
        while modes.len() < n_modes {
            let k = [
                rng.gen_range(-(k_max as i64)..=k_max as i64) as f64,
                rng.gen_range(-(k_max as i64)..=k_max as i64) as f64,
                rng.gen_range(-(k_max as i64)..=k_max as i64) as f64,
            ];
            let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
            if k2 == 0.0 {
                continue;
            }
            // Random direction, projected perpendicular to k, with a
            // Kolmogorov-flavoured amplitude ~ k^{-5/6} per component.
            let raw: [f64; 3] = [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ];
            let dot = (raw[0] * k[0] + raw[1] * k[1] + raw[2] * k[2]) / k2;
            let mut u = [
                raw[0] - dot * k[0],
                raw[1] - dot * k[1],
                raw[2] - dot * k[2],
            ];
            let norm = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt();
            if norm < 1e-9 {
                continue;
            }
            let amp = k2.powf(-5.0 / 12.0); // |k|^{-5/6}
            for c in &mut u {
                *c *= amp / norm;
            }
            modes.push(Mode {
                k,
                u,
                phase: rng.gen_range(0.0..std::f64::consts::TAU),
            });
        }
        let pressure_modes = (0..n_modes.max(4) / 2)
            .map(|_| {
                let k = [
                    rng.gen_range(-(k_max as i64)..=k_max as i64) as f64,
                    rng.gen_range(-(k_max as i64)..=k_max as i64) as f64,
                    rng.gen_range(-(k_max as i64)..=k_max as i64) as f64,
                ];
                Mode {
                    k,
                    u: [rng.gen_range(-0.5..0.5), 0.0, 0.0],
                    phase: rng.gen_range(0.0..std::f64::consts::TAU),
                }
            })
            .collect();
        SyntheticField {
            modes,
            pressure_modes,
        }
    }

    /// Velocity at a point of the periodic unit box.
    pub fn velocity(&self, pos: [f64; 3]) -> [f64; 3] {
        let mut v = [0.0f64; 3];
        for m in &self.modes {
            let arg = std::f64::consts::TAU * (m.k[0] * pos[0] + m.k[1] * pos[1] + m.k[2] * pos[2])
                + m.phase;
            let s = arg.sin();
            v[0] += m.u[0] * s;
            v[1] += m.u[1] * s;
            v[2] += m.u[2] * s;
        }
        v
    }

    /// Pressure at a point.
    pub(crate) fn pressure(&self, pos: [f64; 3]) -> f64 {
        self.pressure_modes
            .iter()
            .map(|m| {
                let arg = std::f64::consts::TAU
                    * (m.k[0] * pos[0] + m.k[1] * pos[1] + m.k[2] * pos[2])
                    + m.phase;
                m.u[0] * arg.sin()
            })
            .sum()
    }

    /// The four stored components `(vx, vy, vz, p)` — the per-point record
    /// of the turbulence database.
    pub(crate) fn sample(&self, pos: [f64; 3]) -> [f64; 4] {
        let v = self.velocity(pos);
        [v[0], v[1], v[2], self.pressure(pos)]
    }
}

#[cfg(test)]
impl SyntheticField {
    /// Numerical divergence at a point (central differences with step
    /// `h`) — a validation helper.
    fn divergence(&self, pos: [f64; 3], h: f64) -> f64 {
        let mut div = 0.0;
        for axis in 0..3 {
            let mut hi = pos;
            let mut lo = pos;
            hi[axis] += h;
            lo[axis] -= h;
            div += (self.velocity(hi)[axis] - self.velocity(lo)[axis]) / (2.0 * h);
        }
        div
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = SyntheticField::new(7, 16, 4);
        let b = SyntheticField::new(7, 16, 4);
        let c = SyntheticField::new(8, 16, 4);
        let p = [0.3, 0.6, 0.9];
        assert_eq!(a.velocity(p), b.velocity(p));
        assert_ne!(a.velocity(p), c.velocity(p));
    }

    #[test]
    fn field_is_periodic() {
        let f = SyntheticField::new(1, 12, 3);
        let p = [0.25, 0.5, 0.75];
        let q = [p[0] + 1.0, p[1] - 1.0, p[2] + 2.0];
        let vp = f.velocity(p);
        let vq = f.velocity(q);
        for (a, b) in vp.iter().zip(&vq) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!((f.pressure(p) - f.pressure(q)).abs() < 1e-9);
    }

    #[test]
    fn field_is_divergence_free() {
        let f = SyntheticField::new(3, 24, 4);
        for p in [[0.1, 0.2, 0.3], [0.9, 0.05, 0.5], [0.42, 0.42, 0.42]] {
            let div = f.divergence(p, 1e-5);
            // Velocity magnitudes are O(1); the divergence must vanish to
            // finite-difference accuracy.
            assert!(div.abs() < 1e-5, "div = {div} at {p:?}");
        }
    }

    #[test]
    fn velocity_is_not_trivial() {
        let f = SyntheticField::new(5, 16, 4);
        let v = f.velocity([0.37, 0.11, 0.83]);
        assert!(v.iter().any(|c| c.abs() > 1e-3));
        let s = f.sample([0.2, 0.4, 0.6]);
        assert_eq!(&s[..3], &f.velocity([0.2, 0.4, 0.6])[..]);
    }

    #[test]
    fn field_is_smooth() {
        // Nearby points have nearby velocities (Lipschitz sanity bound).
        let f = SyntheticField::new(11, 16, 4);
        let p = [0.5, 0.5, 0.5];
        let q = [0.5 + 1e-4, 0.5, 0.5];
        let vp = f.velocity(p);
        let vq = f.velocity(q);
        for (a, b) in vp.iter().zip(&vq) {
            assert!((a - b).abs() < 0.05);
        }
    }
}
