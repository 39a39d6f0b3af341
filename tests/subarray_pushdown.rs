//! Subarray/Item pushdown over stored LOB arrays: correctness, page
//! bounds, and the bit-identity contract.
//!
//! A max array stored out-of-row reaches an expression as a lazy
//! `Value::Lob` reference. `Subarray(col, …)` / `Item_k(col, …)` over
//! such a column must (a) return exactly what materializing the full
//! blob and subsetting in memory would return, at every DOP, and (b)
//! touch only the LOB pages the requested region intersects — the
//! paper's §3.3 partial-read claim, measured on `IoStats.pages_read`.

use proptest::prelude::*;
use sqlarray_core::ops::subarray;
use sqlarray_core::rng::{RngCore, SeedableRng, StdRng};
use sqlarray_core::{SqlArray, StorageClass};
use sqlarray_engine::{Database, Engine, HostingModel, Session, Value};
use sqlarray_storage::{ColType, RowValue, Schema, PAGE_SIZE};

/// LOB chunk payload per page (mirrors `sqlarray_storage::blob`).
const CHUNK_DATA: usize = PAGE_SIZE - 16;

/// A session over one `Tcube(id, v)` table whose `v` column holds one
/// max-class f64 array per row, plus the source arrays for reference.
fn cube_session(dims: &[usize], rows: i64) -> (Session, Vec<SqlArray>) {
    let mut db = Database::new();
    db.create_table(
        "Tcube",
        Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
    )
    .unwrap();
    let mut arrays = Vec::new();
    for k in 0..rows {
        let a = SqlArray::from_fn(StorageClass::Max, dims, |idx| {
            let mut lin = 0.0;
            for (axis, &i) in idx.iter().enumerate() {
                lin = lin * 1000.0 + i as f64 + axis as f64 * 0.25;
            }
            lin + 1e6 * k as f64
        })
        .unwrap();
        db.insert(
            "Tcube",
            k,
            &[RowValue::I64(k), RowValue::Bytes(a.as_blob().to_vec())],
        )
        .unwrap();
        arrays.push(a);
    }
    (
        Engine::new(db).session_with_hosting(HostingModel::free()),
        arrays,
    )
}

fn vec3(v: &[usize]) -> String {
    format!("IntArray.Vector_3({}, {}, {})", v[0], v[1], v[2])
}

/// The pushdown form: `Subarray` applied directly to the base LOB column.
fn pushdown_sql(offset: &[usize], size: &[usize]) -> String {
    format!(
        "SELECT id, FloatArrayMax.Subarray(v, {}, {}, 0) FROM Tcube",
        vec3(offset),
        vec3(size)
    )
}

/// The full-materialize form: an identity `Reshape` resolves the whole
/// LOB first, so the inner call yields bytes and `Subarray` runs the
/// in-memory path.
fn full_sql(dims: &[usize], offset: &[usize], size: &[usize]) -> String {
    format!(
        "SELECT id, FloatArrayMax.Subarray(FloatArrayMax.Reshape(v, {}), {}, {}, 0) FROM Tcube",
        vec3(dims),
        vec3(offset),
        vec3(size)
    )
}

#[test]
fn pushdown_matches_in_memory_subarray_at_every_dop() {
    let dims = [24usize, 20, 18]; // 67.5 kB payload: out-of-row
    let (mut s, arrays) = cube_session(&dims, 3);
    let offset = [3usize, 5, 2];
    let size = [7usize, 4, 9];
    let expected: Vec<Vec<Value>> = arrays
        .iter()
        .enumerate()
        .map(|(k, a)| {
            let sub = subarray::subarray(a, &offset, &size, false).unwrap();
            vec![Value::I64(k as i64), Value::Bytes(sub.into_blob())]
        })
        .collect();
    for dop in [1usize, 2, 4, 8] {
        s.set_dop(dop);
        let r = s.query(&pushdown_sql(&offset, &size)).unwrap();
        assert_eq!(r.rows, expected, "pushdown rows diverged at dop {dop}");
        let f = s.query(&full_sql(&dims, &offset, &size)).unwrap();
        assert_eq!(
            f.rows, expected,
            "full-materialize rows diverged at dop {dop}"
        );
    }
}

#[test]
fn pushdown_accounting_is_dop_invariant() {
    let dims = [24usize, 24, 24];
    let offset = [2usize, 3, 4];
    let size = [5usize, 5, 5];
    let run = |dop: usize| {
        let (mut s, _) = cube_session(&dims, 4);
        s.set_dop(dop);
        s.db().store.clear_cache();
        let r = s.query(&pushdown_sql(&offset, &size)).unwrap();
        let db = s.db();
        let seek = db.store.seek_position();
        let mru = db.store.pool().keys_mru_order();
        drop(db);
        (
            r.rows,
            r.stats.io,
            r.stats.sim_io_seconds.to_bits(),
            seek,
            mru,
        )
    };
    let serial = run(1);
    for dop in [2usize, 4, 8] {
        assert_eq!(
            run(dop),
            serial,
            "pushdown accounting diverged at dop {dop}"
        );
    }
}

/// The vectorized executor takes the same pushdown, in the same page
/// order, as the row interpreter: for every LOB-reading statement shape —
/// `Subarray`, `Item_k`, a filtered `Item_k`, the full-read fallback
/// under a nested call, a LOB grouping key, a `TOP k` whose WHERE reads
/// the LOB, and the two-site statements the planner hands back to the
/// interpreter (call then blob, blob then call, blob key then call) —
/// results, `IoStats`, modelled I/O time, seek position, pool recency
/// order and the managed-call count all equal the row path's, at every
/// batch size and DOP.
#[test]
fn pushdown_accounting_is_identical_on_the_batch_and_row_paths() {
    // 64 rows of ~700 B in-row padding (≈ 11 rows per leaf, so DOP 8 has
    // leaves to split) each carrying one out-of-row 12×10×9 f64 array.
    let dims = [12usize, 10, 9];
    let fixture = || {
        let mut db = Database::new();
        db.create_table(
            "Tcube",
            Schema::new(&[
                ("id", ColType::I64),
                ("pad", ColType::Blob),
                ("v", ColType::Blob),
            ]),
        )
        .unwrap();
        for k in 0..64i64 {
            let a = SqlArray::from_fn(StorageClass::Max, &dims, |idx| {
                (idx[0] + 12 * idx[1] + 120 * idx[2]) as f64 + 1e4 * k as f64
            })
            .unwrap();
            assert!(a.as_blob().len() > 8000, "fixture array must be out-of-row");
            db.insert(
                "Tcube",
                k,
                &[
                    RowValue::I64(k),
                    RowValue::Bytes(vec![k as u8; 700]),
                    RowValue::Bytes(a.into_blob()),
                ],
            )
            .unwrap();
        }
        Engine::new(db).session_with_hosting(HostingModel::free())
    };
    let offset = [2usize, 3, 4];
    let size = [5usize, 5, 3];
    // (statement, one LOB site: the batch plan compiles)
    let queries = [
        (pushdown_sql(&offset, &size), true),
        (
            "SELECT id, FloatArrayMax.Item_3(v, 11, 7, 8) FROM Tcube".to_string(),
            true,
        ),
        (
            "SELECT SUM(FloatArrayMax.Item_3(v, 1, 2, 3)) FROM Tcube WHERE id % 3 = 1".to_string(),
            true,
        ),
        (full_sql(&dims, &offset, &size), true),
        (
            "SELECT COUNT(*), MIN(id) FROM Tcube WHERE id % 8 < 3 GROUP BY v".to_string(),
            true,
        ),
        // Item_3(v, 1, 2, 3) = 385 + 1e4 * id: rows 2..=13 are the twelve.
        (
            "SELECT TOP 12 id FROM Tcube WHERE FloatArrayMax.Item_3(v, 1, 2, 3) > 20000.0"
                .to_string(),
            true,
        ),
        (
            "SELECT FloatArrayMax.Item_3(v, 0, 0, 0), pad, FloatArrayMax.Sum(v) FROM Tcube \
             WHERE id % 4 = 0"
                .to_string(),
            false,
        ),
        (
            "SELECT v, FloatArrayMax.Item_3(v, 11, 7, 8) FROM Tcube WHERE id % 4 = 0".to_string(),
            false,
        ),
        (
            "SELECT COUNT(*), SUM(FloatArrayMax.Item_3(v, 1, 2, 3)) FROM Tcube \
             WHERE id % 8 < 3 GROUP BY v"
                .to_string(),
            false,
        ),
    ];
    for (sql, compiles) in &queries {
        let run = |batch_rows: usize, dop: usize| {
            let mut s = fixture();
            s.set_batch_rows(batch_rows);
            s.set_dop(dop);
            s.db().store.clear_cache();
            let r = s.query(sql).unwrap();
            assert_eq!(
                r.stats.batches > 0,
                *compiles && batch_rows > 0,
                "{sql}: wrong path"
            );
            let db = s.db();
            (
                r.rows,
                r.stats.io,
                r.stats.sim_io_seconds.to_bits(),
                r.stats.udf_calls,
                db.store.seek_position(),
                db.store.pool().keys_mru_order(),
            )
        };
        let serial = run(0, 1);
        assert!(serial.1.pages_read > 20, "{sql}: no LOB page was read");
        for dop in [1usize, 2, 4, 8] {
            let reference = run(0, dop);
            // Under TOP every worker stops at its own k-th match, so only
            // an unlimited scan is DOP-invariant.
            if !sql.contains("TOP") {
                assert_eq!(reference, serial, "row path diverged at dop {dop}: {sql}");
            }
            for batch_rows in [7usize, 1024] {
                assert_eq!(
                    run(batch_rows, dop),
                    reference,
                    "batch {batch_rows} dop {dop} diverged from the row path: {sql}"
                );
            }
        }
    }
}

#[test]
fn item_pushdown_matches_full_read() {
    let dims = [16usize, 16, 16]; // 32 kB payload: out-of-row
    let (mut s, arrays) = cube_session(&dims, 2);
    for dop in [1usize, 3] {
        s.set_dop(dop);
        let r = s
            .query("SELECT id, FloatArrayMax.Item_3(v, 11, 7, 13) FROM Tcube")
            .unwrap();
        for (k, row) in r.rows.iter().enumerate() {
            let expect = arrays[k].item(&[11, 7, 13]).unwrap();
            assert_eq!(row[1], Value::from(expect), "dop {dop}, row {k}");
        }
    }
}

#[test]
fn small_region_of_large_array_reads_bounded_pages() {
    // Contiguous slabs (full leading axes) of a 1 MiB and a 16 MiB array —
    // 64×64×32 f64 → 129 chunk pages, 128³ → 2 057 — covering 6 % and
    // 0.8 % of the payload.
    for (dims, offset, size) in [
        ([64usize, 64, 32], [0usize, 0, 17], [64usize, 64, 2]),
        ([128, 128, 128], [0, 0, 64], [128, 128, 1]),
    ] {
        let (mut s, _) = cube_session(&dims, 1);
        let blob_pages = (dims.iter().product::<usize>() * 8).div_ceil(CHUNK_DATA);
        assert!(blob_pages >= 100, "fixture too small: {blob_pages} pages");
        let region_bytes = size.iter().product::<usize>() * 8;
        let region_pages = region_bytes.div_ceil(PAGE_SIZE) as u64;

        s.set_dop(1);
        s.db().store.clear_cache();
        let r = s.query(&pushdown_sql(&offset, &size)).unwrap();
        // ⌈region bytes / page size⌉ (+1 for straddling a chunk boundary)
        // plus index/root overhead: B-tree internals + leaf + LOB root +
        // the header-prefix chunk.
        let overhead = 8;
        assert!(
            r.stats.io.pages_read <= region_pages + 1 + overhead,
            "pushdown read {} pages for a {}-page region",
            r.stats.io.pages_read,
            region_pages
        );

        // The full-materialize form must read the whole blob: an order of
        // magnitude more pages at either size.
        s.db().store.clear_cache();
        let f = s.query(&full_sql(&dims, &offset, &size)).unwrap();
        assert!(
            f.stats.io.pages_read >= blob_pages as u64,
            "full path read only {} of {blob_pages} blob pages",
            f.stats.io.pages_read
        );
        assert!(
            f.stats.io.pages_read >= 10 * r.stats.io.pages_read,
            "pushdown saved less than 10x: {} vs {}",
            f.stats.io.pages_read,
            r.stats.io.pages_read
        );
        // Same result either way.
        assert_eq!(r.rows, f.rows);
    }
}

#[test]
fn bare_lob_projection_returns_bytes_not_placeholder() {
    let dims = [16usize, 16, 16];
    let (mut s, arrays) = cube_session(&dims, 2);
    let r = s.query("SELECT v FROM Tcube").unwrap();
    assert_eq!(r.rows.len(), 2);
    for (k, row) in r.rows.iter().enumerate() {
        assert_eq!(
            row[0],
            Value::Bytes(arrays[k].as_blob().to_vec()),
            "row {k} did not materialize the LOB"
        );
    }
}

#[test]
fn lob_columns_behave_like_inline_blobs_not_placeholders() {
    let dims = [16usize, 16, 16];
    let (mut s, arrays) = cube_session(&dims, 2);
    // A LOB column in a numeric position errors exactly like an inline
    // blob would — a typed error, never a silently comparable
    // `<lob:…>` placeholder string (the old behavior produced a Str
    // that *compared* and *concatenated* without complaint).
    let err = s.query("SELECT v + 1 FROM Tcube").unwrap_err();
    assert!(
        matches!(err, sqlarray_engine::EngineError::Type(_)),
        "expected the inline-blob type error, got {err:?}"
    );
    // Comparisons materialize the LOB and compare bytewise, identically
    // on either side of the 8 kB in-row limit.
    let r = s.query("SELECT COUNT(*) FROM Tcube WHERE v = v").unwrap();
    assert_eq!(r.rows[0][0], Value::I64(2));
    // MIN/MAX over a LOB column order the blobs bytewise.
    let r = s.query("SELECT MIN(v), MAX(v) FROM Tcube").unwrap();
    let blobs: Vec<&[u8]> = arrays.iter().map(|a| a.as_blob()).collect();
    let min = blobs.iter().min().unwrap().to_vec();
    let max = blobs.iter().max().unwrap().to_vec();
    assert_eq!(r.rows[0][0], Value::Bytes(min));
    assert_eq!(r.rows[0][1], Value::Bytes(max));
}

#[test]
fn unresolved_lob_error_is_typed_when_no_reader_exists() {
    use sqlarray_engine::EngineError;
    // Outside any storage context a lazy reference cannot resolve: the
    // typed error (not a placeholder string) is the contract.
    let v = Value::Lob { id: 3, len: 9000 };
    assert!(matches!(
        v.as_f64(),
        Err(EngineError::UnresolvedLob { id: 3, len: 9000 })
    ));
}

proptest! {
    /// Pushdown `Subarray` equals full-read + in-memory `subarray`
    /// byte-for-byte at DOP 1/2/4/8, for arbitrary region shapes over
    /// arbitrary (out-of-row) cube dimensions.
    #[test]
    fn pushdown_equals_in_memory_for_arbitrary_regions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = |lo: usize, hi: usize| lo + (rng.next_u64() as usize) % (hi - lo + 1);
        // 11³ × 8 B = 10.6 kB minimum: always past the 8 kB in-row limit.
        let dims = [pick(11, 16), pick(11, 16), pick(11, 16)];
        let offset = [pick(0, dims[0] - 1), pick(0, dims[1] - 1), pick(0, dims[2] - 1)];
        let size = [
            pick(1, dims[0] - offset[0]),
            pick(1, dims[1] - offset[1]),
            pick(1, dims[2] - offset[2]),
        ];
        let (mut s, arrays) = cube_session(&dims, 2);
        let expected: Vec<Vec<Value>> = arrays
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let sub = subarray::subarray(a, &offset, &size, false).unwrap();
                vec![Value::I64(k as i64), Value::Bytes(sub.into_blob())]
            })
            .collect();
        for dop in [1usize, 2, 4, 8] {
            s.set_dop(dop);
            let r = s.query(&pushdown_sql(&offset, &size)).unwrap();
            prop_assert_eq!(&r.rows, &expected);
            let f = s.query(&full_sql(&dims, &offset, &size)).unwrap();
            prop_assert_eq!(&f.rows, &expected);
        }
    }

    /// Pages touched for a region are bounded by the chunk pages the
    /// region's byte runs intersect, plus constant index overhead.
    #[test]
    fn pushdown_page_touches_are_bounded_by_the_region(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = |lo: usize, hi: usize| lo + (rng.next_u64() as usize) % (hi - lo + 1);
        let dims = [pick(16, 24), pick(16, 24), pick(16, 24)];
        let offset = [pick(0, dims[0] - 1), pick(0, dims[1] - 1), pick(0, dims[2] - 1)];
        let size = [
            pick(1, dims[0] - offset[0]),
            pick(1, dims[1] - offset[1]),
            pick(1, dims[2] - offset[2]),
        ];
        let (mut s, arrays) = cube_session(&dims, 1);
        // The exact set of chunk pages the planned byte runs intersect.
        let header = sqlarray_core::Header::decode(arrays[0].as_blob()).unwrap();
        let runs = header.region_byte_runs(&offset, &size).unwrap();
        let mut chunks = std::collections::BTreeSet::new();
        for (off, len) in runs {
            for c in off / CHUNK_DATA..=(off + len - 1) / CHUNK_DATA {
                chunks.insert(c);
            }
        }
        s.set_dop(1);
        s.db().store.clear_cache();
        let r = s.query(&pushdown_sql(&offset, &size)).unwrap();
        // Chunk pages + B-tree internals/leaf + LOB root + header chunk.
        let overhead = 8u64;
        prop_assert!(
            r.stats.io.pages_read <= chunks.len() as u64 + overhead,
            "read {} pages for {} intersecting chunks", r.stats.io.pages_read, chunks.len()
        );
    }
}
