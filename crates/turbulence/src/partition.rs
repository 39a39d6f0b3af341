//! Blob partitioning of the simulation grid.
//!
//! "The data is partitioned along a space filling curve (z-index) into
//! cubes of (64+8)³. The +8 means that each cube contains an extra 8 voxel
//! wide buffer so that particles on the edge of the original cube still
//! have their neighbors within 4 voxels in the same blob. Each blob is
//! about 6 MB and stored in a separate row." (§2.1)
//!
//! A blob is a rank-4 max array `[4, E, E, E]` (component-major,
//! column-major storage, `E = block + 2·ghost`) of `float32` — the
//! (vx, vy, vz, p) record per voxel. Ghost zones wrap periodically.

use crate::field::SyntheticField;
use sqlarray_core::{SqlArray, StorageClass};

/// Geometry of a partitioned grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Grid points per axis of the full simulation cube.
    pub grid_n: usize,
    /// Core cube edge (the paper's 64).
    pub block: usize,
    /// Ghost-zone width on *each* side (the paper's 4).
    pub ghost: usize,
}

impl PartitionSpec {
    /// Validates divisibility and returns the spec.
    pub fn new(grid_n: usize, block: usize, ghost: usize) -> PartitionSpec {
        assert!(block > 0 && grid_n % block == 0, "block must divide grid_n");
        assert!(
            ghost <= block,
            "ghost zones wider than the block are unsupported"
        );
        PartitionSpec {
            grid_n,
            block,
            ghost,
        }
    }

    /// Cubes per axis.
    pub(crate) fn cubes_per_axis(&self) -> usize {
        self.grid_n / self.block
    }

    /// Stored blob edge (`block + 2·ghost`).
    pub(crate) fn blob_edge(&self) -> usize {
        self.block + 2 * self.ghost
    }

    /// Blob payload size in bytes (4 components of `f32`).
    pub fn blob_bytes(&self) -> usize {
        4 * self.blob_edge().pow(3) * 4
    }

    /// Morton key of a cube.
    pub(crate) fn cube_key(&self, cube: [usize; 3]) -> i64 {
        sqlarray_storage::zorder::morton3_encode(cube[0] as u64, cube[1] as u64, cube[2] as u64)
            as i64
    }

    /// Which cube a grid point belongs to.
    pub(crate) fn cube_of_grid_point(&self, g: [usize; 3]) -> [usize; 3] {
        [g[0] / self.block, g[1] / self.block, g[2] / self.block]
    }
}

/// Samples the field over one cube (core + ghosts) into the blob array.
///
/// Axis order is `[component, x, y, z]`; with column-major storage the
/// four components of a voxel are adjacent, matching the "every point
/// contains the three components of the fluid velocity and the pressure"
/// record layout.
pub(crate) fn build_blob(
    field: &SyntheticField,
    spec: &PartitionSpec,
    cube: [usize; 3],
) -> SqlArray {
    let e = spec.blob_edge();
    let n = spec.grid_n as isize;
    let ghost = spec.ghost as isize;
    let origin = [
        (cube[0] * spec.block) as isize - ghost,
        (cube[1] * spec.block) as isize - ghost,
        (cube[2] * spec.block) as isize - ghost,
    ];
    // Precompute per-voxel samples to avoid re-evaluating the field four
    // times per point.
    let mut samples = vec![[0.0f64; 4]; e * e * e];
    for z in 0..e {
        for y in 0..e {
            for x in 0..e {
                let gx = (origin[0] + x as isize).rem_euclid(n) as f64 / n as f64;
                let gy = (origin[1] + y as isize).rem_euclid(n) as f64 / n as f64;
                let gz = (origin[2] + z as isize).rem_euclid(n) as f64 / n as f64;
                samples[x + e * (y + e * z)] = field.sample([gx, gy, gz]);
            }
        }
    }
    SqlArray::from_fn(StorageClass::Max, &[4, e, e, e], |idx| {
        samples[idx[1] + e * (idx[2] + e * idx[3])][idx[0]] as f32
    })
    .expect("blob dimensions are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_geometry() {
        // The paper's production layout: (64+8)³ cubes.
        let spec = PartitionSpec::new(128, 64, 4);
        assert_eq!(spec.cubes_per_axis(), 2);
        assert_eq!(spec.blob_edge(), 72);
        // (64+8)³ voxels × 4 components × 4 bytes ≈ 6 MB — the paper's
        // "each blob is about 6 MB".
        let mb = spec.blob_bytes() as f64 / (1024.0 * 1024.0);
        assert!((5.0..7.0).contains(&mb), "blob is {mb:.2} MB");
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn indivisible_grid_rejected() {
        let _ = PartitionSpec::new(100, 64, 4);
    }

    #[test]
    fn blob_core_matches_field() {
        let field = SyntheticField::new(2, 8, 2);
        let spec = PartitionSpec::new(32, 8, 2);
        let cube = [1, 2, 3];
        let blob = build_blob(&field, &spec, cube);
        assert_eq!(blob.dims(), &[4, 12, 12, 12]);
        // Spot-check core voxels against direct field evaluation.
        for (lx, ly, lz) in [(0usize, 0usize, 0usize), (3, 5, 7), (7, 7, 7)] {
            let g = [
                cube[0] * spec.block + lx,
                cube[1] * spec.block + ly,
                cube[2] * spec.block + lz,
            ];
            let pos = [
                g[0] as f64 / spec.grid_n as f64,
                g[1] as f64 / spec.grid_n as f64,
                g[2] as f64 / spec.grid_n as f64,
            ];
            let expect = field.sample(pos);
            for (c, &ec) in expect.iter().enumerate() {
                let stored = blob
                    .item(&[c, lx + spec.ghost, ly + spec.ghost, lz + spec.ghost])
                    .unwrap()
                    .as_f64()
                    .unwrap();
                assert!((stored - ec).abs() < 1e-6, "component {c} at {g:?}");
            }
        }
    }

    #[test]
    fn ghost_zones_wrap_periodically() {
        let field = SyntheticField::new(4, 8, 2);
        let spec = PartitionSpec::new(16, 8, 2);
        // Cube [0,0,0]: its low ghost cells sample grid coordinate N-1.
        let blob = build_blob(&field, &spec, [0, 0, 0]);
        let wrapped = field.sample([(spec.grid_n - 2) as f64 / spec.grid_n as f64, 0.0, 0.0]);
        let stored = blob
            .item(&[0, 0, spec.ghost, spec.ghost])
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((stored - wrapped[0]).abs() < 1e-6);
    }

    #[test]
    fn neighboring_blobs_agree_on_shared_voxels() {
        let field = SyntheticField::new(9, 8, 2);
        let spec = PartitionSpec::new(16, 8, 2);
        let left = build_blob(&field, &spec, [0, 0, 0]);
        let right = build_blob(&field, &spec, [1, 0, 0]);
        // Grid point x=8 is the right blob's first core voxel and lives in
        // the left blob's high ghost zone.
        let e = spec.ghost;
        for c in 0..4 {
            let from_right = right.item(&[c, e, e, e]).unwrap();
            let from_left = left.item(&[c, e + spec.block, e, e]).unwrap();
            assert_eq!(from_right, from_left);
        }
    }

    #[test]
    fn morton_keys_are_unique_per_cube() {
        let spec = PartitionSpec::new(32, 8, 2);
        let mut keys = std::collections::HashSet::new();
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    assert!(keys.insert(spec.cube_key([x, y, z])));
                }
            }
        }
        assert_eq!(keys.len(), 64);
    }
}
