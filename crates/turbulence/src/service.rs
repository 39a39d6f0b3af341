//! The particle-query service: the web service of §2.1 in library form.
//!
//! Users "submit a set of about 10,000 particle positions and times and
//! then can retrieve the interpolated values of the velocity field at
//! those positions [...] the equivalent of placing small sensors into the
//! simulation instead of downloading all the data."
//!
//! Each query locates the owning blob via the Morton-keyed clustered
//! index, then fetches **only the interpolation stencil** through the LOB
//! stream ([`FetchMode::PartialRead`]) or — for the ablation of §2.1's
//! "accessing the whole blob (6 MB) for an 8-point 3D interpolation is
//! obviously overkill" — the entire blob ([`FetchMode::FullBlob`]).

use crate::field::SyntheticField;
use crate::interp::{self, Scheme};
use crate::partition::{build_blob, PartitionSpec};
use sqlarray_core::stream::ArrayReader;
use sqlarray_core::{ArrayError, Result, SqlArray};
use sqlarray_storage::{BlobStream, ColType, PageStore, RowValue, Schema, Table};

/// How blob data is brought in for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchMode {
    /// Stream only the stencil's byte ranges out of the LOB.
    PartialRead,
    /// Fetch the entire blob, then subset in memory.
    FullBlob,
}

/// The partitioned turbulence database.
pub struct TurbulenceDb {
    table: Table,
    spec: PartitionSpec,
}

impl TurbulenceDb {
    /// Builds the database: one row per cube, clustered on the Morton key.
    /// Cubes are inserted in key order so the blob chain lies sequentially
    /// on disk.
    pub fn build(
        store: &mut PageStore,
        field: &SyntheticField,
        spec: PartitionSpec,
    ) -> Result<TurbulenceDb> {
        let schema = Schema::new(&[("zindex", ColType::I64), ("v", ColType::Blob)]);
        let mut table = Table::create(store, "Tturbulence", schema).map_err(ArrayError::from)?;
        let c = spec.cubes_per_axis();
        let mut keys: Vec<(i64, [usize; 3])> = Vec::with_capacity(c * c * c);
        for x in 0..c {
            for y in 0..c {
                for z in 0..c {
                    keys.push((spec.cube_key([x, y, z]), [x, y, z]));
                }
            }
        }
        keys.sort_unstable_by_key(|&(k, _)| k);
        for (key, cube) in keys {
            let blob = build_blob(field, &spec, cube);
            table
                .insert(
                    store,
                    key,
                    &[RowValue::I64(key), RowValue::Bytes(blob.into_blob())],
                )
                .map_err(ArrayError::from)?;
        }
        Ok(TurbulenceDb { table, spec })
    }

    /// The underlying table (for storage accounting).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Interpolated velocity at one position of the periodic unit box.
    pub(crate) fn velocity_at(
        &self,
        store: &mut PageStore,
        pos: [f64; 3],
        scheme: Scheme,
        mode: FetchMode,
    ) -> Result<[f64; 3]> {
        let spec = &self.spec;
        if spec.ghost < scheme.ghost_needed() {
            return Err(ArrayError::Io(format!(
                "{scheme:?} needs ghost >= {}, partition has {}",
                scheme.ghost_needed(),
                spec.ghost
            )));
        }
        let n = spec.grid_n as f64;
        // Grid coordinates, wrapped into [0, N).
        let g = [
            (pos[0].rem_euclid(1.0)) * n,
            (pos[1].rem_euclid(1.0)) * n,
            (pos[2].rem_euclid(1.0)) * n,
        ];
        let base = [
            g[0].floor() as isize,
            g[1].floor() as isize,
            g[2].floor() as isize,
        ];
        let frac = [
            g[0] - base[0] as f64,
            g[1] - base[1] as f64,
            g[2] - base[2] as f64,
        ];
        let cube = spec.cube_of_grid_point([
            base[0] as usize % spec.grid_n,
            base[1] as usize % spec.grid_n,
            base[2] as usize % spec.grid_n,
        ]);
        let key = spec.cube_key(cube);

        // Stencil origin, in blob-local coordinates.
        let w = scheme.width();
        let (off, local) = match scheme {
            Scheme::Nearest => {
                let nearest = [
                    g[0].round() as isize,
                    g[1].round() as isize,
                    g[2].round() as isize,
                ];
                let local = local_coords(spec, cube, nearest);
                (0isize, local)
            }
            _ => {
                let off = scheme.start_offset();
                let origin = [base[0] + off, base[1] + off, base[2] + off];
                (off, local_coords(spec, cube, origin))
            }
        };

        // Fetch the stencil (velocity components only: axis-0 size 3).
        let row = self
            .table
            .get_col(store, key, 1)
            .map_err(ArrayError::from)?
            .ok_or_else(|| ArrayError::Io(format!("missing cube blob {key}")))?;
        let stencil: SqlArray = match row {
            RowValue::LobRef(id, _) => {
                let stream = BlobStream::open(store, id).map_err(ArrayError::from)?;
                let mut reader = ArrayReader::open(stream)?;
                match mode {
                    FetchMode::PartialRead => {
                        reader.subarray(&[0, local[0], local[1], local[2]], &[3, w, w, w], false)?
                    }
                    FetchMode::FullBlob => {
                        let full = reader.read_full()?;
                        sqlarray_core::ops::subarray::subarray(
                            &full,
                            &[0, local[0], local[1], local[2]],
                            &[3, w, w, w],
                            false,
                        )?
                    }
                }
            }
            RowValue::Bytes(b) => {
                let full = SqlArray::from_blob(b)?;
                sqlarray_core::ops::subarray::subarray(
                    &full,
                    &[0, local[0], local[1], local[2]],
                    &[3, w, w, w],
                    false,
                )?
            }
            other => {
                return Err(ArrayError::Io(format!(
                    "unexpected blob column value {other:?}"
                )))
            }
        };

        // Interpolate each component.
        let vals = stencil.to_vec::<f32>()?;
        let comp = |c: usize| -> Vec<f64> {
            // Stencil dims [3, w, w, w], column-major: component fastest.
            (0..w * w * w).map(|lin| vals[c + 3 * lin] as f64).collect()
        };
        let mut out = [0.0f64; 3];
        match scheme {
            Scheme::Nearest => {
                for (c, o) in out.iter_mut().enumerate() {
                    *o = vals[c] as f64;
                }
            }
            Scheme::Pchip => {
                for (c, o) in out.iter_mut().enumerate() {
                    *o = interp::pchip_3d(&comp(c), frac);
                }
            }
            _ => {
                let mut wx = vec![0.0; w];
                let mut wy = vec![0.0; w];
                let mut wz = vec![0.0; w];
                interp::lagrange_weights(off as f64, w, frac[0], &mut wx);
                interp::lagrange_weights(off as f64, w, frac[1], &mut wy);
                interp::lagrange_weights(off as f64, w, frac[2], &mut wz);
                for (c, o) in out.iter_mut().enumerate() {
                    *o = interp::tensor_apply(&comp(c), w, &wx, &wy, &wz);
                }
            }
        }
        Ok(out)
    }

    /// Batched particle query — the service's 10,000-particle request
    /// shape.
    pub fn query_particles(
        &self,
        store: &mut PageStore,
        positions: &[[f64; 3]],
        scheme: Scheme,
        mode: FetchMode,
    ) -> Result<Vec<[f64; 3]>> {
        positions
            .iter()
            .map(|&p| self.velocity_at(store, p, scheme, mode))
            .collect()
    }
}

/// Converts absolute grid coordinates into blob-local array coordinates
/// (offset by the ghost zone).
fn local_coords(spec: &PartitionSpec, cube: [usize; 3], origin: [isize; 3]) -> [usize; 3] {
    let mut local = [0usize; 3];
    for axis in 0..3 {
        let cube_origin = (cube[axis] * spec.block) as isize - spec.ghost as isize;
        let l = origin[axis] - cube_origin;
        debug_assert!(
            l >= 0 && (l as usize) < spec.blob_edge(),
            "stencil escapes the blob on axis {axis}: {l}"
        );
        local[axis] = l as usize;
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db() -> (PageStore, TurbulenceDb, SyntheticField) {
        let mut store = PageStore::new();
        let field = SyntheticField::new(12, 12, 2);
        let spec = PartitionSpec::new(32, 8, 4);
        let db = TurbulenceDb::build(&mut store, &field, spec).unwrap();
        (store, db, field)
    }

    #[test]
    fn grid_point_queries_are_exact() {
        let (mut store, db, field) = small_db();
        // At exact grid points every scheme reproduces the stored value
        // (up to f32 storage rounding).
        for g in [[0usize, 0, 0], [5, 9, 17], [31, 31, 31], [8, 16, 24]] {
            let pos = [g[0] as f64 / 32.0, g[1] as f64 / 32.0, g[2] as f64 / 32.0];
            let truth = field.velocity(pos);
            for scheme in [
                Scheme::Nearest,
                Scheme::Lagrange4,
                Scheme::Lagrange6,
                Scheme::Lagrange8,
                Scheme::Pchip,
            ] {
                let v = db
                    .velocity_at(&mut store, pos, scheme, FetchMode::PartialRead)
                    .unwrap();
                for c in 0..3 {
                    assert!(
                        (v[c] - truth[c]).abs() < 1e-5,
                        "{scheme:?} at {g:?} component {c}: {} vs {}",
                        v[c],
                        truth[c]
                    );
                }
            }
        }
    }

    #[test]
    fn higher_order_is_more_accurate_off_grid() {
        let (mut store, db, field) = small_db();
        let positions: Vec<[f64; 3]> = (0..40)
            .map(|i| {
                let t = i as f64 * 0.023;
                [
                    (0.13 + 0.71 * t).rem_euclid(1.0),
                    (0.57 + 0.37 * t).rem_euclid(1.0),
                    (0.29 + 0.53 * t).rem_euclid(1.0),
                ]
            })
            .collect();
        let mut err = |scheme: Scheme| -> f64 {
            let mut total = 0.0;
            for &p in &positions {
                let v = db
                    .velocity_at(&mut store, p, scheme, FetchMode::PartialRead)
                    .unwrap();
                let t = field.velocity(p);
                total += (0..3).map(|c| (v[c] - t[c]).powi(2)).sum::<f64>();
            }
            (total / positions.len() as f64).sqrt()
        };
        let e_nearest = err(Scheme::Nearest);
        let e_l4 = err(Scheme::Lagrange4);
        let e_l8 = err(Scheme::Lagrange8);
        assert!(e_l4 < e_nearest, "L4 {e_l4} vs nearest {e_nearest}");
        assert!(e_l8 <= e_l4 * 1.05, "L8 {e_l8} vs L4 {e_l4}");
        assert!(e_l8 < 0.05, "absolute L8 error {e_l8}");
    }

    #[test]
    fn partial_and_full_fetch_agree() {
        let (mut store, db, _) = small_db();
        let pos = [0.333, 0.666, 0.111];
        let a = db
            .velocity_at(&mut store, pos, Scheme::Lagrange8, FetchMode::PartialRead)
            .unwrap();
        let b = db
            .velocity_at(&mut store, pos, Scheme::Lagrange8, FetchMode::FullBlob)
            .unwrap();
        for c in 0..3 {
            assert!((a[c] - b[c]).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_reads_move_far_fewer_bytes() {
        // Paper-scale blob: one (64+8)³ cube ≈ 6 MB. "Accessing the whole
        // blob (6 MB) for an 8-point 3D interpolation is obviously
        // overkill" (§2.1).
        let mut store = PageStore::new();
        let field = SyntheticField::new(3, 4, 2);
        let spec = PartitionSpec::new(64, 64, 4);
        let db = TurbulenceDb::build(&mut store, &field, spec).unwrap();

        let pos = [0.4, 0.15, 0.85];
        store.clear_cache();
        store.reset_stats();
        let _ = db
            .velocity_at(&mut store, pos, Scheme::Lagrange8, FetchMode::PartialRead)
            .unwrap();
        let partial = store.stats().bytes_read();
        store.clear_cache();
        store.reset_stats();
        let _ = db
            .velocity_at(&mut store, pos, Scheme::Lagrange8, FetchMode::FullBlob)
            .unwrap();
        let full = store.stats().bytes_read();
        assert!(partial * 10 < full, "partial {partial} B vs full {full} B");
    }

    #[test]
    fn queries_near_cube_edges_use_ghosts() {
        let (mut store, db, field) = small_db();
        // Just inside a cube boundary: the 8-point stencil spans the ghost
        // zone.
        let pos = [8.02 / 32.0, 7.98 / 32.0, 0.01 / 32.0];
        let v = db
            .velocity_at(&mut store, pos, Scheme::Lagrange8, FetchMode::PartialRead)
            .unwrap();
        let t = field.velocity(pos);
        for c in 0..3 {
            assert!((v[c] - t[c]).abs() < 0.05, "component {c}");
        }
    }

    #[test]
    fn ghost_requirement_enforced() {
        let mut store = PageStore::new();
        let field = SyntheticField::new(1, 6, 2);
        // ghost = 2 is too thin for Lagrange8.
        let spec = PartitionSpec::new(16, 8, 2);
        let db = TurbulenceDb::build(&mut store, &field, spec).unwrap();
        let err = db.velocity_at(
            &mut store,
            [0.5, 0.5, 0.5],
            Scheme::Lagrange8,
            FetchMode::PartialRead,
        );
        assert!(err.is_err());
        // But Lagrange4 works.
        assert!(db
            .velocity_at(
                &mut store,
                [0.5, 0.5, 0.5],
                Scheme::Lagrange4,
                FetchMode::PartialRead
            )
            .is_ok());
    }

    #[test]
    fn batch_query_matches_single_queries() {
        let (mut store, db, _) = small_db();
        let ps = [[0.1, 0.2, 0.3], [0.7, 0.8, 0.9]];
        let batch = db
            .query_particles(&mut store, &ps, Scheme::Pchip, FetchMode::PartialRead)
            .unwrap();
        for (i, &p) in ps.iter().enumerate() {
            let single = db
                .velocity_at(&mut store, p, Scheme::Pchip, FetchMode::PartialRead)
                .unwrap();
            assert_eq!(batch[i], single);
        }
    }
}
