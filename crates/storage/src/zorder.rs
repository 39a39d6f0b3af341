//! Z-order (Morton) space-filling curve keys.
//!
//! Both flagship workloads cluster multidimensional data on disk along a
//! space-filling curve: the turbulence database partitions its grid "along
//! a space filling curve (z-index)" (§2.1) and the N-body design computes
//! its octree "from a space filling curve index" (§2.3). Clustering the
//! B-tree on the Morton key makes spatially close blobs adjacent on disk,
//! which is what turns neighborhood fetches into sequential I/O.

/// Bits of each coordinate that participate in a 3-D Morton key
/// (3 × 21 = 63 bits fits `i64`).
pub const MORTON3_BITS: u32 = 21;

/// Spreads the low 21 bits of `v` so consecutive bits land 3 apart.
#[inline]
fn spread3(v: u64) -> u64 {
    let mut x = v & ((1 << MORTON3_BITS) - 1);
    x = (x | (x << 32)) & 0x001F_0000_0000_FFFF;
    x = (x | (x << 16)) & 0x001F_0000_FF00_00FF;
    x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Collapses bits spread 3 apart back into the low 21 bits.
#[inline]
fn compact3(v: u64) -> u64 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x001F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x001F_0000_0000_FFFF;
    x = (x | (x >> 32)) & ((1 << MORTON3_BITS) - 1);
    x
}

/// Interleaves three coordinates into a Morton key. Coordinates must fit
/// 21 bits (≤ 2²¹−1 = 2,097,151 grid cells per axis).
#[inline]
pub fn morton3_encode(x: u64, y: u64, z: u64) -> u64 {
    assert!(x < (1 << MORTON3_BITS));
    assert!(y < (1 << MORTON3_BITS));
    assert!(z < (1 << MORTON3_BITS));
    spread3(x) | (spread3(y) << 1) | (spread3(z) << 2)
}

/// Inverse of [`morton3_encode`].
#[inline]
pub fn morton3_decode(key: u64) -> (u64, u64, u64) {
    (compact3(key), compact3(key >> 1), compact3(key >> 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_3d() {
        let cases = [
            (0u64, 0u64, 0u64),
            (1, 2, 3),
            (255, 0, 255),
            (1 << 20, (1 << 21) - 1, 12345),
        ];
        for (x, y, z) in cases {
            let key = morton3_encode(x, y, z);
            assert_eq!(morton3_decode(key), (x, y, z));
        }
    }

    #[test]
    fn exhaustive_small_cube_is_a_bijection() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..8u64 {
            for y in 0..8 {
                for z in 0..8 {
                    let key = morton3_encode(x, y, z);
                    assert!(seen.insert(key), "collision at ({x},{y},{z})");
                    assert_eq!(morton3_decode(key), (x, y, z));
                }
            }
        }
        // 8³ cells map exactly onto keys 0..512.
        assert_eq!(seen.len(), 512);
        assert!(seen.iter().all(|&k| k < 512));
    }

    #[test]
    fn unit_steps_flip_expected_bits() {
        // Incrementing x flips the lowest interleaved bit.
        assert_eq!(morton3_encode(1, 0, 0), 1);
        assert_eq!(morton3_encode(0, 1, 0), 2);
        assert_eq!(morton3_encode(0, 0, 1), 4);
        assert_eq!(morton3_encode(2, 0, 0), 8);
    }

    #[test]
    fn locality_octants_are_contiguous() {
        // All cells of the low octant (coords < 4 within an 8-cube) come
        // before any cell of the high octant on the curve.
        let max_low = (0..4u64)
            .flat_map(|x| (0..4).flat_map(move |y| (0..4).map(move |z| (x, y, z))))
            .map(|(x, y, z)| morton3_encode(x, y, z))
            .max()
            .unwrap();
        let min_high = morton3_encode(4, 4, 4);
        assert!(max_low < min_high);
    }

    #[test]
    fn monotone_in_each_octant_bit() {
        // Keys respect the hierarchical octant ordering: the top bit
        // triple partitions space.
        let a = morton3_encode(100, 200, 300);
        let b = morton3_encode(100, 200, 301);
        assert_ne!(a, b);
    }
}
