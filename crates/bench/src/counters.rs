//! The counter golden: what each class of work counts, at smoke scale.
//!
//! Every line of `BENCH_counters.json` is one `{class, counter, value}`:
//! the pages a class of statements read, hit in the pool and wrote, the
//! frames and bytes it logged, and — for SQL statements — the rows it
//! scanned and changed, the batches it filled and the managed calls it
//! made. Nothing here is timed, so the file is the same on every host and
//! at every DOP; a change that moves a line says so in its diff.
//!
//! The classes are the write path's (row-by-row ingest, by-key and range
//! UPDATEs over inline and out-of-row values, an `ArrayUpdate` patch, a
//! range DELETE, a range UPDATE refused mid-range, the records a recovery
//! replays, a checkpoint) and, as controls, Table 1's five queries, cold.

use crate::{build_table1_db, TABLE1_QUERIES};
use sqlarray_engine::{Database, Engine, QueryStats, Value};
use sqlarray_storage::{ColType, DiskImage, DiskProfile, IoStats, PageStore, RowValue, Schema};

/// One line of the golden.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// The class of work, `dml.<what>` or `table1.q<n>`.
    pub class: String,
    /// The counter's name: an `IoStats` or `QueryStats` field.
    pub counter: &'static str,
    /// Its value.
    pub value: u64,
}

/// Rows of `T(id BIGINT, tag INT, v VARBINARY)`, bulk-loaded on even keys:
/// ~90 inline 5-vectors a leaf, so a range of a few hundred keys spans
/// several leaves.
const T_ROWS: i64 = 2_000;
/// Rows of `L(id BIGINT, v VARBINARY(MAX))`, each an out-of-row array.
const L_ROWS: i64 = 16;
/// Elements of each `L` array: 20 000 bytes, five chunk pages.
const L_ELEMS: usize = 2_500;

/// Every counter line, in class order, with the statements run at `dop`.
/// The I/O and WAL counters are DOP-invariant by design, so every `dop`
/// gives the same lines.
pub fn counters(dop: usize) -> Vec<Counter> {
    let mut out = Vec::new();
    dml_classes(dop, &mut out);
    let mut session = build_table1_db(crate::experiments::Scale::smoke().rows);
    session.set_dop(dop);
    for (i, sql) in TABLE1_QUERIES.iter().enumerate() {
        session.db_mut().store.clear_cache();
        let stats = session.query(sql).expect("Table 1 query").stats;
        push_stmt(&mut out, &format!("table1.q{}", i + 1), &stats);
    }
    out
}

/// `BENCH_counters.json` as [`counters`] would write it.
pub fn counters_json(lines: &[Counter]) -> String {
    let rows: Vec<String> = lines
        .iter()
        .map(|c| {
            let Counter {
                class,
                counter,
                value,
            } = c;
            format!("{{\"class\": {class:?}, \"counter\": {counter:?}, \"value\": {value}}}")
        })
        .collect();
    crate::golden_text("counters", &rows)
}

fn t_row(k: i64, tag: i32) -> Vec<RowValue> {
    let comps: Vec<f64> = (0..5).map(|i| k as f64 + i as f64 * 0.25).collect();
    let arr = sqlarray_core::build::short_vector(&comps).expect("5-vector fits");
    vec![
        RowValue::I64(k),
        RowValue::I32(tag),
        RowValue::Bytes(arr.into_blob()),
    ]
}

fn l_array(seed: i64) -> Vec<u8> {
    let items: Vec<f64> = (0..L_ELEMS)
        .map(|i| (seed * 31 + i as i64) as f64)
        .collect();
    sqlarray_core::build::max_vector(&items)
        .expect("vector shape is valid")
        .into_blob()
}

/// The write path's log: the crash image the `dml.recovery` class boots,
/// holding every write since the bulk load's commit.
pub fn write_path_image() -> DiskImage {
    dml_classes(1, &mut Vec::new())
}

/// The write path's classes over one database, in order; every class but
/// the ingest and the recovery starts from a cold pool. Returns the crash
/// image the recovery boots.
fn dml_classes(dop: usize, out: &mut Vec<Counter>) -> DiskImage {
    let mut db = Database::with_store(PageStore::with_pool(256, DiskProfile::default()));
    let t_schema = Schema::new(&[
        ("id", ColType::I64),
        ("tag", ColType::I32),
        ("v", ColType::Blob),
    ]);
    db.create_table("T", t_schema).expect("fresh database");
    let l_schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
    db.create_table("L", l_schema).expect("fresh database");
    let rows: Vec<_> = (0..T_ROWS).map(|k| (2 * k, t_row(2 * k, 0))).collect();
    db.bulk_insert_with_dop("T", &rows, 1).expect("bulk load T");
    let rows: Vec<_> = (0..L_ROWS)
        .map(|k| (k, vec![RowValue::I64(k), RowValue::Bytes(l_array(k))]))
        .collect();
    db.bulk_insert_with_dop("L", &rows, 1).expect("bulk load L");
    db.commit();

    // Row-by-row ingest: fresh odd keys spread over the table, one commit.
    let before = db.store.stats();
    for k in (0..T_ROWS).step_by(40) {
        db.insert("T", 2 * k + 1, &t_row(2 * k + 1, 1))
            .expect("fresh key");
    }
    db.commit();
    push_io(out, "dml.ingest", &db.store.stats().since(&before));

    let mut s = Engine::new(db).session();
    s.set_dop(dop);
    s.set_var("v", Value::Bytes(l_array(-1)));
    let patch = sqlarray_core::build::max_vector(&[7.5f64; 40]).expect("patch shape is valid");
    s.set_var("patch", Value::Bytes(patch.into_blob()));
    for (class, sql) in [
        (
            "dml.update_by_key",
            "UPDATE T SET tag = tag + 7 WHERE id = 1000",
        ),
        (
            "dml.update_range_inline",
            "UPDATE T SET tag = tag + 1 WHERE id >= 400 AND id <= 1400",
        ),
        (
            "dml.update_range_lob",
            "UPDATE L SET v = @v WHERE id >= 2 AND id <= 9",
        ),
        (
            "dml.array_patch",
            "UPDATE L SET v = FloatArrayMax.ArrayUpdate(v, IntArray.Vector_1(100), @patch) \
             WHERE id = 12",
        ),
        (
            "dml.delete_range",
            "DELETE FROM T WHERE id >= 2000 AND id <= 3000",
        ),
    ] {
        s.db_mut().store.clear_cache();
        let r = s.execute(sql).expect("DML statement");
        push_stmt(out, class, &r[0].stats);
    }

    // A range UPDATE refused in the third leaf of its range: `tag`
    // overflows INT from id 3161 on. Its partial stats count the writes
    // the rollback to the last commit then undoes.
    s.db_mut().store.clear_cache();
    let refused = "UPDATE T SET tag = id + 2147480487 WHERE id >= 3000 AND id <= 3998";
    s.execute(refused).expect_err("tag overflows INT");
    let partial = s.partial_stats().expect("the match scan ran");
    push_stmt(out, "dml.update_refused", partial);

    // Everything since the load's commit is in the log: a recovery
    // replays it.
    let image = s.db().store.crash_image();
    let applied = PageStore::open(&image)
        .expect("image opens")
        .applied_records;
    push(out, "dml.recovery", "applied_records", applied as u64);

    let mut db = s.db_mut();
    db.store.clear_cache();
    let before = db.store.stats();
    db.store.checkpoint();
    push_io(out, "dml.checkpoint", &db.store.stats().since(&before));
    image
}

fn push(out: &mut Vec<Counter>, class: &str, counter: &'static str, value: u64) {
    out.push(Counter {
        class: class.to_string(),
        counter,
        value,
    });
}

fn push_io(out: &mut Vec<Counter>, class: &str, io: &IoStats) {
    for (counter, value) in [
        ("pages_read", io.pages_read),
        ("cache_hits", io.cache_hits),
        ("sequential_reads", io.sequential_reads),
        ("random_reads", io.random_reads),
        ("pages_written", io.pages_written),
        ("page_copies", io.page_copies),
        ("wal_records", io.wal_records),
        ("wal_bytes", io.wal_bytes),
    ] {
        push(out, class, counter, value);
    }
}

fn push_stmt(out: &mut Vec<Counter>, class: &str, stats: &QueryStats) {
    push_io(out, class, &stats.io);
    for (counter, value) in [
        ("rows_scanned", stats.rows_scanned),
        ("batches", stats.batches),
        ("udf_calls", stats.udf_calls),
        ("rows_affected", stats.rows_affected),
    ] {
        push(out, class, counter, value);
    }
}
