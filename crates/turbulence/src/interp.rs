//! Interpolation kernels: nearest point, Lagrange 4/6/8, and PCHIP.
//!
//! "The interpolation method provided by the service can be chosen from
//! nearest point, PCHIP, and 4-6-8 point Lagrangian interpolation schemes.
//! For the 8 point interpolation we need to convolve an 8³ neighborhood
//! with an 8³ interpolation kernel for each point." (§2.1)
//!
//! All 3-D schemes are tensor products of 1-D kernels, so an order-w
//! scheme needs exactly a w³ neighborhood — the subarray the service
//! fetches from the blob.

/// The interpolation scheme of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Snap to the nearest grid point (stencil width 1).
    Nearest,
    /// 4-point Lagrange polynomial per axis.
    Lagrange4,
    /// 6-point Lagrange polynomial per axis.
    Lagrange6,
    /// 8-point Lagrange polynomial per axis.
    Lagrange8,
    /// Piecewise cubic Hermite (Fritsch–Carlson monotone slopes), 4-point
    /// stencil.
    Pchip,
}

impl Scheme {
    /// Stencil width per axis.
    pub(crate) fn width(self) -> usize {
        match self {
            Scheme::Nearest => 1,
            Scheme::Lagrange4 | Scheme::Pchip => 4,
            Scheme::Lagrange6 => 6,
            Scheme::Lagrange8 => 8,
        }
    }

    /// Offset of the stencil's first node relative to `floor(x)`.
    pub(crate) fn start_offset(self) -> isize {
        match self {
            Scheme::Nearest => 0,
            Scheme::Lagrange4 | Scheme::Pchip => -1,
            Scheme::Lagrange6 => -2,
            Scheme::Lagrange8 => -3,
        }
    }

    /// Grid cells of support needed on each side of a sample — the minimum
    /// ghost-zone width a blob partition must carry for this scheme.
    pub(crate) fn ghost_needed(self) -> usize {
        match self {
            Scheme::Nearest => 1,
            Scheme::Lagrange4 | Scheme::Pchip => 2,
            Scheme::Lagrange6 => 3,
            Scheme::Lagrange8 => 4,
        }
    }
}

/// Lagrange basis weights for `w` consecutive integer nodes starting at
/// `start`, evaluated at `x` (grid units).
pub(crate) fn lagrange_weights(start: f64, w: usize, x: f64, out: &mut [f64]) {
    debug_assert_eq!(out.len(), w);
    for (i, o) in out.iter_mut().enumerate() {
        let ti = start + i as f64;
        let mut num = 1.0f64;
        let mut den = 1.0f64;
        for j in 0..w {
            if i == j {
                continue;
            }
            let tj = start + j as f64;
            num *= x - tj;
            den *= ti - tj;
        }
        *o = num / den;
    }
}

/// 1-D PCHIP evaluation on the 4-point stencil `f[0..4]` at nodes
/// `-1, 0, 1, 2`, for `t ∈ [0, 1]` between `f[1]` and `f[2]`.
///
/// Endpoint slopes use the Fritsch–Carlson harmonic-mean limiter, which
/// keeps the interpolant monotone on monotone data.
pub(crate) fn pchip_1d(f: &[f64], t: f64) -> f64 {
    debug_assert_eq!(f.len(), 4);
    let d0 = f[1] - f[0];
    let d1 = f[2] - f[1];
    let d2 = f[3] - f[2];
    let m1 = fc_slope(d0, d1);
    let m2 = fc_slope(d1, d2);
    // Cubic Hermite basis on [0, 1].
    let t2 = t * t;
    let t3 = t2 * t;
    let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
    let h10 = t3 - 2.0 * t2 + t;
    let h01 = -2.0 * t3 + 3.0 * t2;
    let h11 = t3 - t2;
    h00 * f[1] + h10 * m1 + h01 * f[2] + h11 * m2
}

/// Fritsch–Carlson limited slope from the two adjacent secants.
fn fc_slope(d_prev: f64, d_next: f64) -> f64 {
    if d_prev * d_next <= 0.0 {
        0.0
    } else {
        2.0 * d_prev * d_next / (d_prev + d_next)
    }
}

/// Interpolates a w³ neighborhood with separable Lagrange weights.
/// `cube[i + w*(j + w*k)]` is the value at node `(i, j, k)`; `wx/wy/wz`
/// are the per-axis weights.
pub(crate) fn tensor_apply(cube: &[f64], w: usize, wx: &[f64], wy: &[f64], wz: &[f64]) -> f64 {
    debug_assert_eq!(cube.len(), w * w * w);
    let mut acc = 0.0f64;
    for (k, &wzk) in wz.iter().enumerate() {
        if wzk == 0.0 {
            continue;
        }
        for (j, &wyj) in wy.iter().enumerate() {
            let wyz = wyj * wzk;
            if wyz == 0.0 {
                continue;
            }
            let base = w * (j + w * k);
            let mut row = 0.0;
            for i in 0..w {
                row += wx[i] * cube[base + i];
            }
            acc += row * wyz;
        }
    }
    acc
}

/// Interpolates a 4³ neighborhood with PCHIP applied axis by axis
/// (x first, then y, then z), with fractional offsets `t = (tx, ty, tz)`.
pub(crate) fn pchip_3d(cube: &[f64], t: [f64; 3]) -> f64 {
    debug_assert_eq!(cube.len(), 64);
    let mut yz = [0.0f64; 16];
    for k in 0..4 {
        for j in 0..4 {
            let base = 4 * (j + 4 * k);
            yz[j + 4 * k] = pchip_1d(&cube[base..base + 4], t[0]);
        }
    }
    let mut z = [0.0f64; 4];
    for k in 0..4 {
        z[k] = pchip_1d(&yz[4 * k..4 * k + 4], t[1]);
    }
    pchip_1d(&z, t[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lagrange_weights_partition_unity() {
        let mut w = [0.0; 8];
        for &x in &[0.0, 0.3, 0.99, 3.5] {
            lagrange_weights(-3.0, 8, x, &mut w);
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn lagrange_interpolates_nodes_exactly() {
        let mut w = [0.0; 4];
        lagrange_weights(-1.0, 4, 1.0, &mut w); // x at node index 2
        assert!((w[2] - 1.0).abs() < 1e-12);
        for (i, &wi) in w.iter().enumerate() {
            if i != 2 {
                assert!(wi.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lagrange_reproduces_polynomials() {
        // A degree-3 polynomial is exact under 4-point Lagrange.
        let f = |x: f64| 2.0 * x * x * x - x * x + 3.0 * x - 5.0;
        let nodes: Vec<f64> = (-1..3).map(|i| f(i as f64)).collect();
        let mut w = [0.0; 4];
        for &x in &[0.25, 0.5, 0.75] {
            lagrange_weights(-1.0, 4, x, &mut w);
            let got: f64 = w.iter().zip(&nodes).map(|(a, b)| a * b).sum();
            assert!((got - f(x)).abs() < 1e-10);
        }
    }

    #[test]
    fn pchip_endpoints_and_monotonicity() {
        let f = [1.0, 2.0, 5.0, 6.0];
        assert!((pchip_1d(&f, 0.0) - 2.0).abs() < 1e-12);
        assert!((pchip_1d(&f, 1.0) - 5.0).abs() < 1e-12);
        // Monotone data → monotone interpolant (sampled check).
        let mut last = pchip_1d(&f, 0.0);
        for s in 1..=20 {
            let v = pchip_1d(&f, s as f64 / 20.0);
            assert!(v >= last - 1e-12);
            last = v;
        }
    }

    #[test]
    fn pchip_flat_at_local_extrema() {
        // A local max at node 1: slope must clamp to 0, no overshoot.
        let f = [0.0, 2.0, 1.0, 3.0];
        for s in 0..=20 {
            let v = pchip_1d(&f, s as f64 / 20.0);
            assert!((1.0 - 1e-12..=2.0 + 1e-12).contains(&v), "overshoot {v}");
        }
    }

    #[test]
    fn tensor_apply_is_separable() {
        // Cube f(i,j,k) = (i+1)(j+2)(k+3) factors; interpolation at the
        // node (1,1,1) recovers the product exactly.
        let w = 4;
        let cube: Vec<f64> = (0..64)
            .map(|lin| {
                let i = lin % 4;
                let j = (lin / 4) % 4;
                let k = lin / 16;
                ((i + 1) * (j + 2) * (k + 3)) as f64
            })
            .collect();
        let mut wx = [0.0; 4];
        let mut wy = [0.0; 4];
        let mut wz = [0.0; 4];
        lagrange_weights(0.0, w, 1.0, &mut wx);
        lagrange_weights(0.0, w, 1.0, &mut wy);
        lagrange_weights(0.0, w, 1.0, &mut wz);
        let v = tensor_apply(&cube, w, &wx, &wy, &wz);
        assert!((v - (2 * 3 * 4) as f64).abs() < 1e-10);
    }

    #[test]
    fn pchip_3d_reproduces_grid_values() {
        let cube: Vec<f64> = (0..64).map(|l| (l * 7 % 23) as f64).collect();
        // t = 0 lands on node (1,1,1) in each axis.
        let v = pchip_3d(&cube, [0.0, 0.0, 0.0]);
        let node = 1 + 4 * (1 + 4);
        assert!((v - cube[node]).abs() < 1e-12);
    }

    #[test]
    fn scheme_metadata_consistent() {
        for s in [
            Scheme::Nearest,
            Scheme::Lagrange4,
            Scheme::Lagrange6,
            Scheme::Lagrange8,
            Scheme::Pchip,
        ] {
            // The stencil [floor(x)+off, floor(x)+off+w) must cover
            // floor(x) and ceil(x) for every interior scheme.
            let off = s.start_offset();
            let w = s.width() as isize;
            if s != Scheme::Nearest {
                assert!(off <= 0 && off + w >= 2, "{s:?}");
                // The ghost zone must cover the stencil overhang on both
                // sides: `off` cells below, `off + w - 1` above.
                assert!(s.ghost_needed() as isize >= -off, "{s:?}");
                assert!(s.ghost_needed() as isize >= off + w - 1 - 1, "{s:?}");
            }
            // Paper: 8-point scheme with ±4-cell ghost zones.
            if s == Scheme::Lagrange8 {
                assert_eq!(s.ghost_needed(), 4);
            }
        }
    }
}
