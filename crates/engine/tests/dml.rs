//! SQL-level DML: UPDATE/DELETE correctness, DOP-invariance of the WAL
//! byte stream, the `ArrayUpdate` bounded-write fast path, crash
//! recovery through the session's statement-level autocommit, a typed
//! error matrix, and a model-based differential property test.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use proptest::collection::vec;
use proptest::prelude::*;
use sqlarray_core::build;
use sqlarray_engine::{
    Access, Database, Engine, EngineError, Fallback, Fault, FaultPlan, HostingModel, Session, Value,
};
use sqlarray_storage::store::AUTO_CHECKPOINT_BYTES;
use sqlarray_storage::{ColType, RowValue, Schema, MAX_READ_RETRIES};
use std::collections::{BTreeMap, BTreeSet};

fn schema() -> Schema {
    Schema::new(&[
        ("id", ColType::I64),
        ("tag", ColType::I32),
        ("v", ColType::Blob),
    ])
}

/// A session over table `T(id BIGINT, tag INT, v VARBINARY(MAX))` with
/// `rows` rows; row `k` carries a 5-element float vector seeded by `k`.
fn session(rows: i64) -> Session {
    let mut db = Database::new();
    db.create_table("T", schema()).unwrap();
    for k in 0..rows {
        let comps: Vec<f64> = (0..5).map(|i| k as f64 * 10.0 + i as f64).collect();
        let arr = build::short_vector(&comps).unwrap();
        db.insert(
            "T",
            k,
            &[
                RowValue::I64(k),
                RowValue::I32(k as i32),
                RowValue::Bytes(arr.into_blob()),
            ],
        )
        .unwrap();
    }
    db.commit();
    Engine::new(db).session_with_hosting(HostingModel::free())
}

fn id_tag_rows(s: &mut Session) -> Vec<(i64, i32)> {
    let r = s.query("SELECT id, tag FROM T").unwrap();
    r.rows
        .iter()
        .map(|row| {
            let Value::I64(id) = row[0] else {
                panic!("id column must be BIGINT, got {:?}", row[0])
            };
            let Value::I32(tag) = row[1] else {
                panic!("tag column must be INT, got {:?}", row[1])
            };
            (id, tag)
        })
        .collect()
}

#[test]
fn update_and_delete_basic() {
    let mut s = session(10);
    let r = s
        .execute("UPDATE T SET tag = tag + 100 WHERE id < 4")
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].stats.rows_affected, 4);
    assert!(r[0].rows.is_empty());

    let r = s.execute("DELETE FROM T WHERE id >= 7").unwrap();
    assert_eq!(r[0].stats.rows_affected, 3);

    assert_eq!(
        id_tag_rows(&mut s),
        vec![
            (0, 100),
            (1, 101),
            (2, 102),
            (3, 103),
            (4, 4),
            (5, 5),
            (6, 6)
        ]
    );

    // A WHERE that matches nothing affects nothing.
    let r = s.execute("UPDATE T SET tag = 0 WHERE id > 999").unwrap();
    assert_eq!(r[0].stats.rows_affected, 0);
    let r = s.execute("DELETE FROM T WHERE id > 999").unwrap();
    assert_eq!(r[0].stats.rows_affected, 0);

    // No WHERE touches every row.
    let r = s.execute("DELETE FROM T").unwrap();
    assert_eq!(r[0].stats.rows_affected, 7);
    assert!(id_tag_rows(&mut s).is_empty());
}

/// A range DELETE writes each leaf once: over inline rows it adds exactly
/// one page write per leaf that held a matched row, its log and disk image
/// are the same at every DOP, and it logs no more than deleting the same
/// rows one `WHERE id = k` statement at a time.
#[test]
fn a_range_delete_writes_each_leaf_once() {
    let (lo, hi) = (100i64, 449i64);
    let range = format!("DELETE FROM T WHERE id >= {lo} AND id <= {hi}");
    let leaves = {
        let s = session(600);
        let db = s.db();
        let t = db.table("T").unwrap();
        let leaf_of = |k: i64| t.partition_keys(&db.store, 1, k..=k).unwrap()[0].leaves()[0];
        (lo..=hi).map(leaf_of).collect::<BTreeSet<_>>().len() as u64
    };
    assert!(leaves >= 3, "the range spans {leaves} leaves");
    let logged = |s: &mut Session, sql: &str| {
        let before = s.db().store.stats();
        let r = s.execute(sql).unwrap();
        (r[0].stats.clone(), s.db().store.stats().since(&before))
    };
    let mut first = None;
    for dop in [1usize, 2, 4] {
        let mut s = session(600);
        s.set_dop(dop);
        let (stats, io) = logged(&mut s, &range);
        assert_eq!(stats.rows_affected, (hi - lo + 1) as u64);
        assert_eq!(stats.io.pages_written, leaves, "dop {dop}");
        let got = (io.wal_bytes, s.db().store.crash_image());
        match &first {
            None => first = Some(got),
            Some(want) => assert!(got == *want, "log or disk image differs at dop {dop}"),
        }
    }
    let (ranged, image) = first.unwrap();
    let mut s = session(600);
    let mut one_by_one = 0;
    for k in lo..=hi {
        one_by_one += logged(&mut s, &format!("DELETE FROM T WHERE id = {k}"))
            .1
            .wal_bytes;
    }
    assert!(ranged <= one_by_one, "{ranged} > {one_by_one} WAL bytes");
    let mut ranged_session =
        Engine::new(Database::recover(&image).unwrap()).session_with_hosting(HostingModel::free());
    assert_eq!(id_tag_rows(&mut ranged_session), id_tag_rows(&mut s));
}

/// A range UPDATE writes each leaf once: over inline rows it adds exactly
/// one page write per leaf it changes, its log and disk image are the same
/// at every DOP, it logs no more than updating the same rows one
/// `WHERE id = k` statement at a time, and recovery gives the same rows.
#[test]
fn a_range_update_writes_each_leaf_once() {
    let (lo, hi) = (100i64, 449i64);
    let range = format!("UPDATE T SET tag = tag + 3 WHERE id >= {lo} AND id <= {hi}");
    let leaves = {
        let s = session(600);
        let db = s.db();
        let t = db.table("T").unwrap();
        let leaf_of = |k: i64| t.partition_keys(&db.store, 1, k..=k).unwrap()[0].leaves()[0];
        (lo..=hi).map(leaf_of).collect::<BTreeSet<_>>().len() as u64
    };
    assert!(leaves >= 3, "the range spans {leaves} leaves");
    let logged = |s: &mut Session, sql: &str| {
        let before = s.db().store.stats();
        let r = s.execute(sql).unwrap();
        (r[0].stats.clone(), s.db().store.stats().since(&before))
    };
    let mut first = None;
    for dop in [1usize, 2, 4] {
        let mut s = session(600);
        s.set_dop(dop);
        let (stats, io) = logged(&mut s, &range);
        assert_eq!(stats.rows_affected, (hi - lo + 1) as u64);
        assert_eq!(stats.io.pages_written, leaves, "dop {dop}");
        let got = (io.wal_bytes, s.db().store.crash_image());
        match &first {
            None => first = Some(got),
            Some(want) => assert!(got == *want, "log or disk image differs at dop {dop}"),
        }
    }
    let (ranged, image) = first.unwrap();
    let mut s = session(600);
    let mut one_by_one = 0;
    for k in lo..=hi {
        let sql = format!("UPDATE T SET tag = tag + 3 WHERE id = {k}");
        one_by_one += logged(&mut s, &sql).1.wal_bytes;
    }
    assert!(ranged <= one_by_one, "{ranged} > {one_by_one} WAL bytes");
    let mut ranged_session =
        Engine::new(Database::recover(&image).unwrap()).session_with_hosting(HostingModel::free());
    assert_eq!(id_tag_rows(&mut ranged_session), id_tag_rows(&mut s));
}

/// A row `Database::insert` refuses — a held key, a wrongly typed value
/// after a blob column, a record past the leaf limit once its blob is
/// spilled — spills no LOB chain: the page count, the free list and the
/// log are as they were.
#[test]
fn a_refused_insert_spills_no_lob_chain() {
    let mut db = Database::new();
    db.create_table(
        "R",
        Schema::new(&[
            ("id", ColType::I64),
            ("a", ColType::Blob),
            ("b", ColType::I32),
            ("c", ColType::Blob),
            ("d", ColType::Blob),
        ]),
    )
    .unwrap();
    // `a` lies out of row; `c` and `d` in row, 8 000 and 200 bytes long
    // for a record past the leaf limit.
    let row = |k: i64, b: RowValue, c: usize| {
        let big = RowValue::Bytes(vec![0xAB; 100_000]);
        let (c, d) = (vec![7; c], vec![8; 200]);
        vec![
            RowValue::I64(k),
            big,
            b,
            RowValue::Bytes(c),
            RowValue::Bytes(d),
        ]
    };
    db.insert("R", 1, &row(1, RowValue::I32(0), 10)).unwrap();
    db.commit();
    for (what, key, values) in [
        ("duplicate", 1, row(1, RowValue::I32(0), 10)),
        ("mistyped", 2, row(2, RowValue::F64(0.0), 10)),
        ("too long", 3, row(3, RowValue::I32(0), 8000)),
    ] {
        let before = (db.store.page_count(), db.store.free_pages().len());
        let wal = db.store.stats().wal_bytes;
        assert!(db.insert("R", key, &values).is_err(), "{what}");
        let after = (db.store.page_count(), db.store.free_pages().len());
        assert_eq!(after, before, "{what}");
        assert_eq!(db.store.stats().wal_bytes, wal, "{what}");
    }
}

#[test]
fn update_can_read_other_columns_and_blobs() {
    let mut s = session(6);
    // SET references the row's own columns, including an array item.
    s.execute("UPDATE T SET tag = id * 2 + FloatArray.Item_1(v, 1) WHERE id % 2 = 0")
        .unwrap();
    assert_eq!(
        id_tag_rows(&mut s),
        vec![(0, 1), (1, 1), (2, 25), (3, 3), (4, 49), (5, 5)]
    );
}

#[test]
fn dml_wal_stream_is_dop_invariant() {
    // The same batch at DOP 1, 2, 4 and 8 must leave byte-identical
    // durable state: pages, checksums, free list and the WAL itself.
    let batch = "UPDATE T SET tag = tag + 1 WHERE id % 3 = 0;\
                 DELETE FROM T WHERE id % 7 = 2;\
                 UPDATE T SET v = FloatArray.Vector_2(id, tag) WHERE id < 40";
    let mut base = session(120);
    base.set_dop(1);
    base.execute(batch).unwrap();
    let want_rows = id_tag_rows(&mut base);
    let want_image = base.db().store.crash_image();
    for dop in [2usize, 4, 8] {
        let mut s = session(120);
        s.set_dop(dop);
        s.execute(batch).unwrap();
        assert_eq!(id_tag_rows(&mut s), want_rows, "rows differ at dop {dop}");
        let img = s.db().store.crash_image();
        assert_eq!(img.wal, want_image.wal, "WAL bytes differ at dop {dop}");
        assert_eq!(img, want_image, "disk image differs at dop {dop}");
    }
}

#[test]
fn array_update_rewrites_only_touched_chunks() {
    // The paper's ArrayUpdate path: patching a 0.78% slice of a 16 MiB
    // stored array must rewrite only the intersecting LOB chunk pages,
    // not the 2000+ pages of the whole chain.
    const N: usize = 2 * 1024 * 1024; // 16 MiB of f64
    const REPL: usize = N / 128; // 16384 elements = 128 KiB
    const OFF: usize = 524_288;
    let data: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let mut db = Database::new();
    db.create_table("T", schema()).unwrap();
    let arr = build::max_vector(&data).unwrap();
    db.insert(
        "T",
        0,
        &[
            RowValue::I64(0),
            RowValue::I32(0),
            RowValue::Bytes(arr.into_blob()),
        ],
    )
    .unwrap();
    db.commit();
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());

    let stored_before = s.db().table("T").unwrap().clone();
    let before = stored_before
        .get(&mut s.db_mut().store, 0)
        .unwrap()
        .unwrap();
    let RowValue::LobRef(id_before, len_before) = before[2] else {
        panic!(
            "a 16 MiB array must spill to a LOB chain, got {:?}",
            before[2]
        )
    };

    let repl: Vec<f64> = (0..REPL).map(|i| -(i as f64)).collect();
    s.set_var(
        "r",
        Value::Bytes(build::max_vector(&repl).unwrap().into_blob()),
    );
    let r = s
        .execute(&format!(
            "UPDATE T SET v = FloatArrayMax.ArrayUpdate(v, IntArray.Vector_1({OFF}), @r) \
             WHERE id = 0"
        ))
        .unwrap();
    assert_eq!(r[0].stats.rows_affected, 1);

    // 128 KiB spans ceil(131072 / 8176) = 17 chunks, 18 when the slice
    // straddles a boundary. Allow a little headroom, but nothing close
    // to the ~2052 pages a full rewrite takes.
    let written = r[0].stats.io.pages_written;
    assert!(
        (1..=24).contains(&written),
        "expected a bounded chunk rewrite, wrote {written} pages"
    );

    // The chain was patched in place: same LOB reference, same length.
    // (Two statements: chaining `s.db()` into `s.db_mut()` would hold the
    // read guard while taking the write lock — self-deadlock.)
    let stored_after = s.db().table("T").unwrap().clone();
    let after = stored_after.get(&mut s.db_mut().store, 0).unwrap().unwrap();
    assert_eq!(after[2], RowValue::LobRef(id_before, len_before));

    // Spot-check contents through SQL on both sides of the patch.
    for (idx, want) in [
        (0usize, 0.0),
        (OFF - 1, (OFF - 1) as f64),
        (OFF, 0.0),
        (OFF + 5, -5.0),
        (OFF + REPL - 1, -((REPL - 1) as f64)),
        (OFF + REPL, (OFF + REPL) as f64),
        (N - 1, (N - 1) as f64),
    ] {
        let got = s
            .query_scalar(&format!("SELECT FloatArrayMax.Item_1(v, {idx}) FROM T"))
            .unwrap();
        assert_eq!(got, Value::F64(want), "element {idx}");
    }
}

#[test]
fn array_update_fallback_path_matches() {
    // Small arrays stay inline (no LOB chain), so the in-place patch
    // can't apply and the executor falls back to the registered UDF —
    // results must be identical in kind.
    let mut s = session(3);
    s.execute("UPDATE T SET v = FloatArray.ArrayUpdate(v, IntArray.Vector_1(2), FloatArray.Vector_2(77.0, 88.0)) WHERE id = 1")
        .unwrap();
    let r = s
        .query("SELECT FloatArray.Item_1(v, 1), FloatArray.Item_1(v, 2), FloatArray.Item_1(v, 3), FloatArray.Item_1(v, 4) FROM T WHERE id = 1")
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![
            Value::F64(11.0),
            Value::F64(77.0),
            Value::F64(88.0),
            Value::F64(14.0)
        ]
    );
    // Out-of-bounds patches surface the UDF's typed error.
    let err = s
        .execute("UPDATE T SET v = FloatArray.ArrayUpdate(v, IntArray.Vector_1(4), FloatArray.Vector_2(1.0, 2.0)) WHERE id = 1")
        .unwrap_err();
    assert!(matches!(err, EngineError::Array(_)), "got {err:?}");
}

#[test]
fn dml_crash_recovery_through_sql() {
    // Statement-level autocommit: a crash mid-UPDATE rolls back to the
    // state before the statement; a crash after it keeps it.
    let mut s = session(20);
    let pre = id_tag_rows(&mut s);
    let pre_image = s.db().store.crash_image();

    // Crash with only part of the UPDATE's log durable: its one leaf
    // frame reaches the log, its commit record does not.
    s.db_mut()
        .store
        .arm(Some(FaultPlan::new(Fault::PowerLoss { torn_bytes: 0 }, 2)));
    s.execute("UPDATE T SET tag = tag + 500 WHERE id < 10")
        .unwrap();
    let crashed = s.db().store.crash_image();
    let db = Database::recover(&crashed).unwrap();
    let mut rec = Engine::new(db).session_with_hosting(HostingModel::free());
    assert_eq!(
        id_tag_rows(&mut rec),
        pre,
        "partial statement must roll back"
    );

    // Replay the same statement without a crash: it persists.
    let db = Database::recover(&pre_image).unwrap();
    let mut s2 = Engine::new(db).session_with_hosting(HostingModel::free());
    s2.execute("UPDATE T SET tag = tag + 500 WHERE id < 10")
        .unwrap();
    let post = id_tag_rows(&mut s2);
    assert_ne!(post, pre);
    let db = Database::recover(&s2.db().store.crash_image()).unwrap();
    let mut rec = Engine::new(db).session_with_hosting(HostingModel::free());
    assert_eq!(
        id_tag_rows(&mut rec),
        post,
        "committed statement must survive"
    );
}

/// Every row of a `schema()` table (blobs resolved) plus a full-table
/// aggregate over it.
fn table_contents(s: &mut Session, table: &str) -> Vec<Vec<Value>> {
    let mut rows = s
        .query(&format!("SELECT id, tag, v FROM {table}"))
        .unwrap()
        .rows;
    rows.extend(
        s.query(&format!("SELECT COUNT(*), SUM(tag) FROM {table}"))
            .unwrap()
            .rows,
    );
    rows
}

fn blob_row(k: i64, blob: Vec<u8>) -> Vec<RowValue> {
    vec![
        RowValue::I64(k),
        RowValue::I32(k as i32),
        RowValue::Bytes(blob),
    ]
}

/// The catalog travels in commit records and a checkpoint truncates the
/// log: the checkpoint has to carry it, or a crash before the next commit
/// recovers a database without tables.
#[test]
fn crash_right_after_a_checkpoint_keeps_every_table() {
    let mut s = session(20);
    {
        let mut db = s.db_mut();
        db.create_table("U", schema()).unwrap();
        for k in 0..5i64 {
            db.insert("U", k, &blob_row(k, vec![k as u8; 20_000]))
                .unwrap();
        }
        db.commit();
        db.store.checkpoint();
        assert_eq!(db.store.wal_len(), 0);
    }
    let live = (table_contents(&mut s, "T"), table_contents(&mut s, "U"));
    // Crash once, and once more before the recovered database commits.
    let first = s.db().store.crash_image();
    let second = Database::recover(&first).unwrap().store.crash_image();
    for image in [first, second] {
        let db = Database::recover(&image).unwrap();
        let mut rec = Engine::new(db).session_with_hosting(HostingModel::free());
        let got = (table_contents(&mut rec, "T"), table_contents(&mut rec, "U"));
        assert_eq!(got, live);
    }
}

/// The same crash point reached the way set-ups reach it: an ingest whose
/// commit finds more than `AUTO_CHECKPOINT_BYTES` of log and checkpoints
/// on its own.
#[test]
fn crash_after_an_auto_checkpointing_ingest_keeps_every_row() {
    let mut s = session(3);
    {
        let mut db = s.db_mut();
        for k in 100..110i64 {
            db.insert("T", k, &blob_row(k, vec![k as u8; 1 << 20]))
                .unwrap();
        }
        assert!(db.store.wal_len() >= AUTO_CHECKPOINT_BYTES);
        db.commit();
        assert_eq!(db.store.wal_len(), 0, "the ingest's commit checkpointed");
    }
    let live = table_contents(&mut s, "T");
    let db = Database::recover(&s.db().store.crash_image()).unwrap();
    let mut rec = Engine::new(db).session_with_hosting(HostingModel::free());
    assert_eq!(table_contents(&mut rec, "T"), live);
}

#[test]
fn dml_error_matrix() {
    let mut s = session(5);
    // Unknown table.
    let err = s.execute("UPDATE nope SET tag = 1").unwrap_err();
    assert!(matches!(err, EngineError::Unknown(_)), "got {err:?}");
    let err = s.execute("DELETE FROM nope").unwrap_err();
    assert!(matches!(err, EngineError::Unknown(_)), "got {err:?}");
    // Unknown SET column.
    let err = s.execute("UPDATE T SET nocol = 1").unwrap_err();
    assert!(matches!(err, EngineError::Unknown(_)), "got {err:?}");
    // Non-boolean WHERE.
    let err = s.execute("DELETE FROM T WHERE tag").unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "got {err:?}");
    let err = s.execute("UPDATE T SET tag = 0 WHERE id + 1").unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "got {err:?}");
    // A column set twice.
    let err = s.execute("UPDATE T SET tag = 1, tag = 2").unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "got {err:?}");
    // INT overflow from a BIGINT expression.
    let err = s.execute("UPDATE T SET tag = 3000000000").unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "got {err:?}");
    // A float past the column's range is refused, not saturated.
    s.db_mut()
        .create_table(
            "N",
            Schema::new(&[
                ("id", ColType::I64),
                ("a", ColType::I64),
                ("r", ColType::F32),
            ]),
        )
        .unwrap();
    let zeros = [RowValue::I64(0), RowValue::I64(0), RowValue::F32(0.0)];
    s.db_mut().insert("N", 0, &zeros).unwrap();
    for sql in [
        "UPDATE N SET a = 1e19",
        "UPDATE N SET a = -1e19",
        "UPDATE N SET r = 1e300",
        "SELECT IntArray.Item_1(IntArray.Vector_1(5), 1e19) FROM N",
    ] {
        let err = s.execute(sql).unwrap_err();
        assert!(
            matches!(&err, EngineError::Type(m) if m.contains("out of range")),
            "{sql}: got {err:?}"
        );
    }
    // A failed statement must leave the table untouched.
    assert_eq!(
        id_tag_rows(&mut s),
        vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]
    );
    let stored = s.query("SELECT a, r FROM N").unwrap().rows;
    assert_eq!(stored, [[Value::I64(0), Value::F32(0.0)]]);
}

/// Every row's full content, blobs included.
fn all_rows(s: &mut Session, table: &str) -> Vec<Vec<Value>> {
    let columns: Vec<String> = {
        let db = s.db();
        let schema = db.table(table).unwrap().schema();
        schema.columns.iter().map(|c| c.name.clone()).collect()
    };
    let sql = format!("SELECT {} FROM {table}", columns.join(", "));
    s.query(&sql).unwrap().rows
}

/// Runs `failing` — an UPDATE whose *second or later* matched row is
/// rejected after earlier rows were applied — on fresh sessions from
/// `fixture`, at DOP 1 and 4 on both scan bodies, and asserts it changed
/// nothing: not the rows, not one WAL byte, not the page count or the
/// free list, not the crash image, and nothing a later statement's commit
/// could make durable.
fn assert_failed_update_leaves_no_trace(
    fixture: impl Fn() -> Session,
    failing: &str,
    want: fn(&EngineError) -> bool,
) {
    assert_failed_dml_leaves_no_trace(fixture, failing, |_| {}, want);
}

/// [`assert_failed_update_leaves_no_trace`] for an UPDATE or a DELETE,
/// with `inject` run on each session right before `failing` (after the
/// "before" snapshot).
fn assert_failed_dml_leaves_no_trace(
    fixture: impl Fn() -> Session,
    failing: &str,
    inject: impl Fn(&Session),
    want: fn(&EngineError) -> bool,
) {
    let verbs = ["UPDATE", "DELETE", "FROM"];
    let table = failing
        .split_whitespace()
        .find(|w| !verbs.contains(w))
        .expect("UPDATE <table> … or DELETE FROM <table> …");
    let all_rows = |s: &mut Session| all_rows(s, table);
    // The catalog entry: root, first leaf, row count, depth.
    let tree = |s: &Session| s.db().table(table).unwrap().tree_parts();
    let free = |s: &Session| s.db().store.free_pages().to_vec();
    for (dop, batch) in [1usize, 4].into_iter().flat_map(|d| [(d, 0), (d, 1024)]) {
        let at = format!("dop {dop}, batch rows {batch}");
        let mut s = fixture();
        s.set_dop(dop);
        s.set_batch_rows(batch);
        let before = all_rows(&mut s);
        let (tree_before, wal_before) = (tree(&s), s.db().store.wal_len());
        let (pages_before, free_before) = (s.db().store.page_count(), free(&s));
        let image_before = s.db().store.crash_image();

        inject(&s);
        let err = s.execute(failing).unwrap_err();
        assert!(want(&err), "{at}: got {err:?}");

        assert_eq!(all_rows(&mut s), before, "{at}: rows changed");
        assert_eq!(tree(&s), tree_before, "{at}: catalog entry changed");
        assert_eq!(s.db().store.wal_len(), wal_before, "{at}: WAL grew");
        assert_eq!(s.db().store.page_count(), pages_before, "{at}: pages");
        assert_eq!(free(&s), free_before, "{at}: free list changed");
        assert_eq!(
            s.db().store.crash_image(),
            image_before,
            "{at}: crash image changed"
        );

        // The next committed statement must not carry a half-applied
        // update into the durable state.
        s.execute(&format!("DELETE FROM {table} WHERE id < 0"))
            .unwrap();
        let db = Database::recover(&s.db().store.crash_image()).unwrap();
        let mut rec = Engine::new(db).session_with_hosting(HostingModel::free());
        assert_eq!(all_rows(&mut rec), before, "{at}: recovery differs");
    }
}

/// `G(id, tag INT, v BLOB, w BLOB)` with `rows` rows: `tag` equal to the
/// key, `v` a 20 000-byte out-of-row blob, `w` a 40-byte inline one;
/// `@big` is a fresh out-of-row value and `@wide` a 1 000-byte inline one.
fn growing_session(rows: i64) -> Session {
    let mut db = Database::new();
    db.create_table(
        "G",
        Schema::new(&[
            ("id", ColType::I64),
            ("tag", ColType::I32),
            ("v", ColType::Blob),
            ("w", ColType::Blob),
        ]),
    )
    .unwrap();
    for k in 0..rows {
        let values = [
            RowValue::I64(k),
            RowValue::I32(k as i32),
            RowValue::Bytes(big_v(k)),
            RowValue::Bytes(vec![1; 40]),
        ];
        db.insert("G", k, &values).unwrap();
    }
    db.commit();
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    s.set_var("big", Value::Bytes(big_v(-1)));
    s.set_var("wide", Value::Bytes(vec![9; 1000]));
    s
}

#[test]
fn failing_update_is_not_half_applied() {
    // Rows 0..=7 fit an INT; row 8 is the first to overflow. 400 rows
    // span several leaves, so DOP 4 genuinely splits the match scan.
    assert_failed_update_leaves_no_trace(
        || session(400),
        "UPDATE T SET tag = 2147483640 + id",
        |e| matches!(e, EngineError::Type(m) if m.contains("out of range for INT column")),
    );

    // Rows 0..10 grow `w` until their leaf splits and replace `v`, which
    // spills a chain and frees one per row; row 250, in a later leaf,
    // then overflows `tag`. Every write before it is undone.
    const SET: &str = "UPDATE G SET w = @wide, v = @big, tag = tag + 2147483400";
    let mut s = growing_session(300);
    let (leaves, pages) = {
        let mut db = s.db_mut();
        let t = db.table("G").unwrap().clone();
        (t.data_pages(&mut db.store).unwrap(), db.store.page_count())
    };
    s.execute(&format!("{SET} WHERE id < 10")).unwrap();
    let mut db = s.db_mut();
    let t = db.table("G").unwrap().clone();
    assert!(t.data_pages(&mut db.store).unwrap() > leaves, "no split");
    assert!(db.store.page_count() > pages, "no chain spilled");
    assert!(!db.store.free_pages().is_empty(), "no chain freed");
    let leaves_of = |keys| {
        t.partition_keys(&db.store, 1, keys).unwrap()[0]
            .leaves()
            .to_vec()
    };
    let (grown, refused) = (leaves_of(0..=9), leaves_of(250..=250));
    assert!(grown.len() > 1 && !grown.contains(&refused[0]));
    drop(db);
    assert_failed_update_leaves_no_trace(
        || growing_session(300),
        &format!("{SET} WHERE id < 10 OR id >= 250"),
        |e| matches!(e, EngineError::Type(m) if m.contains("out of range for INT column")),
    );
}

#[test]
fn failing_array_update_fallback_is_not_half_applied() {
    // Inline 5-element vectors take the UDF fallback. Row 0 patches
    // elements 0..2; row 1 asks for 4..6, which the UDF rejects.
    assert_failed_update_leaves_no_trace(
        || session(400),
        "UPDATE T SET v = FloatArray.ArrayUpdate(v, IntArray.Vector_1(id * 4), \
         FloatArray.Vector_2(1.0, 2.0)) WHERE id < 3",
        |e| matches!(e, EngineError::Array(_)),
    );
}

// --- Column 0 is the clustered key ----------------------------------------

#[test]
fn update_may_not_assign_the_clustered_key_column() {
    // Moving a row is what SQL Server would do; here `id = 103` would sit
    // at key position 3, out of key order, and a seek would never find it.
    // Refused before any scan — also over an empty table.
    for rows in [0, 400] {
        assert_failed_update_leaves_no_trace(
            move || session(rows),
            "UPDATE T SET tag = 1, ID = id + 100 WHERE id = 3",
            |e| matches!(e, EngineError::Unsupported(m) if m == "cannot update the clustered key column `id`"),
        );
    }
    let mut s = session(4);
    let err = s.execute("UPDATE T SET id = 9").unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
    assert!(s.partial_stats().is_none(), "refused before its scan began");
}

#[test]
fn inserts_must_carry_the_key_in_the_key_column() {
    let row = |id: RowValue| [id, RowValue::I32(0), RowValue::Bytes(Vec::new())];
    let refused =
        |e: EngineError| matches!(e, EngineError::Type(m) if m.contains("key column `id`"));
    for rows in [0, 6] {
        let mut s = session(rows);
        let before = (all_rows(&mut s, "T"), s.db().store.crash_image());
        let mut db = s.db_mut();
        let (pages, stats) = (db.store.page_count(), db.store.stats());
        assert!(refused(
            db.insert("T", 50, &row(RowValue::I64(7))).unwrap_err()
        ));
        assert!(refused(
            db.insert("T", 50, &row(RowValue::I32(50))).unwrap_err()
        ));
        let bulk: Vec<(i64, Vec<RowValue>)> = (100..110)
            .map(|k| (k, row(RowValue::I64(k + i64::from(k == 105))).to_vec()))
            .collect();
        assert!(refused(db.bulk_insert_with_dop("T", &bulk, 2).unwrap_err()));
        assert_eq!((db.store.page_count(), db.store.stats()), (pages, stats));
        drop(db);
        assert_eq!((all_rows(&mut s, "T"), s.db().store.crash_image()), before);
        // The well-formed row is still welcome.
        s.db_mut().insert("T", 50, &row(RowValue::I64(50))).unwrap();
        assert_eq!(all_rows(&mut s, "T").len() as i64, rows + 1);
    }
}

#[test]
fn a_table_without_a_bigint_first_column_has_no_key_column() {
    let mut db = Database::new();
    let schema = Schema::new(&[("x", ColType::F64), ("id", ColType::I64)]);
    db.create_table("F", schema).unwrap();
    for k in 0..4 {
        let values = [RowValue::F64(k as f64 / 2.0), RowValue::I64(10 - k)];
        db.insert("F", k, &values).unwrap();
    }
    db.commit();
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    // Column 0 is an ordinary column here: assignable, and `id` (column 1)
    // is no key, so nothing seeks.
    let r = s.execute("UPDATE F SET x = x + 1 WHERE id = 8").unwrap();
    assert_eq!(
        (r[0].stats.rows_affected, r[0].stats.access),
        (1, Access::Full)
    );
    let r = s.query("SELECT x FROM F WHERE id >= 8").unwrap();
    assert_eq!(
        r.rows,
        [[Value::F64(0.0)], [Value::F64(0.5)], [Value::F64(2.0)]]
    );
    assert_eq!(r.stats.access, Access::Full);
}

/// `W(id, a BLOB, b BLOB)` with `rows` rows of `a`/`b` payload lengths
/// `lens(k)`.
fn two_blob_session(rows: i64, lens: impl Fn(i64) -> (usize, usize)) -> Session {
    let mut db = Database::new();
    db.create_table(
        "W",
        Schema::new(&[
            ("id", ColType::I64),
            ("a", ColType::Blob),
            ("b", ColType::Blob),
        ]),
    )
    .unwrap();
    for k in 0..rows {
        let (a, b) = lens(k);
        db.insert(
            "W",
            k,
            &[
                RowValue::I64(k),
                RowValue::Bytes(vec![1u8; a]),
                RowValue::Bytes(vec![2u8; b]),
            ],
        )
        .unwrap();
    }
    db.commit();
    Engine::new(db).session_with_hosting(HostingModel::free())
}

#[test]
fn failing_oversized_record_is_not_half_applied() {
    // Rows 0..=4 copy a 100-byte `a` into `b` fine; from row 5 on the two
    // inline 5 000-byte blobs exceed one leaf record. The table refuses
    // row 5 after rows 0..=4 were rewritten; the rollback undoes them.
    assert_failed_update_leaves_no_trace(
        || two_blob_session(10, |k| (if k < 5 { 100 } else { 5000 }, 16)),
        "UPDATE W SET b = a",
        |e| matches!(e, EngineError::Storage(m) if m.contains("exceeds the page limit")),
    );
}

// --- Storage errors in the apply phase ------------------------------------

/// Elements of each stored `A.v` array: 24 000 bytes of `f64`, out of row
/// in three chunk pages, the array header in the first.
const ARRAY_LEN: usize = 3000;

/// `A(id, v)` with `rows` rows, `v` an out-of-row `FloatArrayMax` vector
/// of `ARRAY_LEN` elements seeded by the key; `@r` is a 4-element patch
/// and `@small` an inline blob.
fn array_session(rows: i64) -> Session {
    let mut db = Database::new();
    let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
    db.create_table("A", schema).unwrap();
    for k in 0..rows {
        let data: Vec<f64> = (0..ARRAY_LEN)
            .map(|i| (k * 10_000) as f64 + i as f64)
            .collect();
        let blob = build::max_vector(&data).unwrap().into_blob();
        db.insert("A", k, &[RowValue::I64(k), RowValue::Bytes(blob)])
            .unwrap();
    }
    db.commit();
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    let patch = build::max_vector(&[-1.0, -2.0, -3.0, -4.0]).unwrap();
    s.set_var("r", Value::Bytes(patch.into_blob()));
    s.set_var("small", Value::Bytes(vec![7u8; 40]));
    s
}

/// Patches elements 1500..1504 of rows 0..3 in place: each row's turn in
/// the apply phase reads its LOB root and header chunk, then writes the
/// second chunk page, which nothing before it reads.
const PATCH: &str = "UPDATE A SET v = FloatArrayMax.ArrayUpdate(v, IntArray.Vector_1(1500), @r) \
                     WHERE id < 3";

/// The chunk page of row `key`'s array that [`PATCH`] writes: the second
/// chunk id on the LOB's root page.
fn patched_chunk(s: &Session, key: i64) -> u64 {
    let table = s.db().table("A").unwrap().clone();
    let mut db = s.db_mut();
    let Some(RowValue::LobRef(root, _)) =
        table.get(&mut db.store, key).unwrap().map(|r| r[1].clone())
    else {
        panic!("row {key} holds no LOB");
    };
    let root = db.store.raw_page(root).unwrap();
    u64::from_le_bytes(root[24..32].try_into().unwrap())
}

/// A corrupt chunk page met in the apply phase, after the first row's
/// patch was written: the statement returns to the last commit, so the
/// next commit makes none of it durable.
#[test]
fn a_corrupt_page_in_the_apply_phase_returns_to_the_last_commit() {
    assert_failed_dml_leaves_no_trace(
        || array_session(4),
        PATCH,
        |s| {
            let page = patched_chunk(s, 1);
            let mut db = s.db_mut();
            db.store.corrupt_byte(page, 100);
            db.store.clear_cache();
        },
        |e| matches!(e, EngineError::Storage(m) if m.contains("corrupt")),
    );
}

/// A LOB root whose second chunk slot names its first chunk's page — a
/// logged, committed write made it so: deleting the row frees that page
/// once and is refused, typed, at the second free, and the statement
/// returns to the last commit instead of leaving a log its own replay
/// would refuse.
#[test]
fn a_delete_that_would_free_a_page_twice_returns_to_the_last_commit() {
    let fixture = || {
        let s = array_session(4);
        let table = s.db().table("A").unwrap().clone();
        let mut db = s.db_mut();
        let Some(RowValue::LobRef(root, _)) =
            table.get(&mut db.store, 1).unwrap().map(|r| r[1].clone())
        else {
            panic!("row 1 holds no LOB");
        };
        db.store.write(root, |b| b.copy_within(16..24, 24)).unwrap();
        db.commit();
        drop(db);
        s
    };
    assert_failed_dml_leaves_no_trace(
        fixture,
        "DELETE FROM A WHERE id = 1",
        |_| {},
        |e| matches!(e, EngineError::Storage(m) if m.contains("already free")),
    );
}

/// A read fault at any cold read after a statement's match scan — a
/// B-tree descent of its apply phase, a blob patch or a blob free — is
/// absorbed by the bounded retry, leaving rows, log and disk exactly as
/// the unfaulted statement leaves them; one failure more fails the
/// statement with a typed storage error and leaves no trace.
#[test]
fn a_read_fault_at_any_serial_read_of_a_dml_retries_or_leaves_no_trace() {
    let cold = |s: &Session, plan: Option<FaultPlan>| {
        let mut db = s.db_mut();
        db.store.clear_cache();
        db.store.arm(plan);
    };
    let fault_at = |times: u32, at: u64| Some(FaultPlan::new(Fault::ReadFault { times }, at));
    let statements = [
        PATCH,
        // A full-row rewrite: the old chain is freed.
        "UPDATE A SET v = @small WHERE id < 2",
        "DELETE FROM A WHERE id >= 2",
    ];
    for sql in statements {
        // Dry runs over a cold pool: the match scan alone, then the whole
        // statement.
        let cold_reads = |stmt: &str| {
            let mut s = array_session(4);
            cold(&s, Some(FaultPlan::count(Fault::ReadFault { times: 1 })));
            s.execute(stmt).unwrap();
            let seen = s.db().store.armed().unwrap().seen();
            seen
        };
        let matched = cold_reads(&format!(
            "SELECT id FROM A {}",
            &sql[sql.find("WHERE").unwrap()..]
        ));
        let total = cold_reads(sql);
        assert!(total > matched, "{sql}: no cold read after the match scan");
        let clean = {
            let mut s = array_session(4);
            cold(&s, None);
            s.execute(sql).unwrap();
            let image = s.db().store.crash_image();
            (all_rows(&mut s, "A"), image)
        };
        for at in matched + 1..=total {
            for dop in [1, 4] {
                let mut s = array_session(4);
                s.set_dop(dop);
                cold(&s, fault_at(MAX_READ_RETRIES, at));
                let r = s.execute(sql).unwrap();
                let what = format!("{sql}: read {at} of {total}, dop {dop}");
                let retries = r[0].stats.io.transient_retries;
                assert_eq!(retries, u64::from(MAX_READ_RETRIES), "{what}");
                let got = (all_rows(&mut s, "A"), s.db().store.crash_image());
                assert!(got == clean, "{what}: the retried statement differs");
            }
            assert_failed_dml_leaves_no_trace(
                || array_session(4),
                sql,
                |s| cold(s, fault_at(MAX_READ_RETRIES + 1, at)),
                |e| matches!(e, EngineError::Storage(m) if m.contains("transient read fault")),
            );
        }
    }
}

#[test]
fn apply_phase_error_still_reports_partial_stats() {
    // Two inline blobs of 5000 bytes each do not fit one leaf record. The
    // table refuses the row before any page changes — after the match scan
    // read its pages, so the failure still owes the session its partial
    // measurements.
    let mut s = two_blob_session(50, |_| (16, 5000));
    s.set_var("big", Value::Bytes(vec![3u8; 5000]));
    s.db().store.clear_cache();
    let err = s.execute("UPDATE W SET a = @big WHERE id = 7").unwrap_err();
    assert!(matches!(err, EngineError::Storage(_)), "got {err:?}");
    let partial = s
        .partial_stats()
        .expect("a failed apply phase reports the match scan's work");
    assert!(partial.io.pages_read > 0, "{partial:?}");
    assert_eq!((partial.access, partial.rows_scanned), (Access::Seek, 1));
    assert_eq!(partial.rows_affected, 0);
}

// --- LOB aliasing and limits ----------------------------------------------

/// `L(id, v, w)`: `v` a 20 000-byte out-of-row blob, `w` a 40-byte inline
/// one, both seeded by the key.
fn lob_session(rows: i64) -> Session {
    let mut db = Database::new();
    db.create_table(
        "L",
        Schema::new(&[
            ("id", ColType::I64),
            ("v", ColType::Blob),
            ("w", ColType::Blob),
        ]),
    )
    .unwrap();
    for k in 0..rows {
        db.insert(
            "L",
            k,
            &[
                RowValue::I64(k),
                RowValue::Bytes(big_v(k)),
                RowValue::Bytes(small_w(k)),
            ],
        )
        .unwrap();
    }
    db.commit();
    Engine::new(db).session_with_hosting(HostingModel::free())
}

fn big_v(k: i64) -> Vec<u8> {
    (0..20_000).map(|i| (i as i64 * 7 + k) as u8).collect()
}

fn small_w(k: i64) -> Vec<u8> {
    vec![k as u8 + 1; 40]
}

/// The stored (unresolved) row at `key`.
fn stored_row(s: &mut Session, key: i64) -> Vec<RowValue> {
    let table = s.db().table("L").unwrap().clone();
    let row = table.get(&mut s.db_mut().store, key).unwrap();
    row.expect("row exists")
}

fn pages_and_free(s: &Session) -> (u64, usize) {
    let db = s.db();
    (db.store.page_count(), db.store.free_pages().len())
}

/// A range UPDATE that replaces out-of-row blobs spills and frees their
/// chains at each row's turn, as one statement per key does: the page
/// count and the free list come out the same.
#[test]
fn a_range_update_of_lob_rows_frees_like_per_key_statements() {
    let fresh = |s: &mut Session| s.set_var("v", Value::Bytes(big_v(99)));
    let mut ranged = lob_session(12);
    fresh(&mut ranged);
    let r = ranged
        .execute("UPDATE L SET v = @v WHERE id >= 2 AND id <= 9")
        .unwrap();
    assert_eq!(r[0].stats.rows_affected, 8);
    let mut per_key = lob_session(12);
    fresh(&mut per_key);
    for k in 2..=9 {
        per_key
            .execute(&format!("UPDATE L SET v = @v WHERE id = {k}"))
            .unwrap();
    }
    assert_eq!(pages_and_free(&ranged), pages_and_free(&per_key));
    assert!(pages_and_free(&ranged).1 > 0, "the old chains are free");
    assert_eq!(
        ranged.db().store.free_pages(),
        per_key.db().store.free_pages()
    );
    assert_eq!(all_rows(&mut ranged, "L"), all_rows(&mut per_key, "L"));
}

#[test]
fn lob_columns_alias_copy_and_swap_correctly() {
    // On both executors: 0 is the interpreter, 1024 the batch plan (the
    // swap has two LOB sites and runs the interpreter on both).
    for batch in [0usize, 1024] {
        let mut s = lob_session(4);
        s.set_batch_rows(batch);

        // `SET v = v` keeps the stored reference: same chain, no page
        // allocated or freed.
        let before = (stored_row(&mut s, 1), pages_and_free(&s));
        assert!(matches!(before.0[1], RowValue::LobRef(_, 20_000)));
        let r = s.execute("UPDATE L SET v = v").unwrap();
        assert_eq!(r[0].stats.rows_affected, 4);
        assert_eq!(r[0].stats.batches > 0, batch > 0);
        assert_eq!((stored_row(&mut s, 1), pages_and_free(&s)), before);

        // `SET w = v` copies: equal contents in a chain of its own.
        let r = s.execute("UPDATE L SET w = v WHERE id = 1").unwrap();
        assert_eq!(r[0].stats.rows_affected, 1);
        assert_eq!(r[0].stats.batches > 0, batch > 0);
        let copied = stored_row(&mut s, 1);
        let (RowValue::LobRef(v_id, _), RowValue::LobRef(w_id, 20_000)) = (&copied[1], &copied[2])
        else {
            panic!("both columns must be out of row: {copied:?}");
        };
        assert_ne!(v_id, w_id, "two rows' columns must never share a chain");
        assert_eq!(copied[1], before.0[1], "the source keeps its chain");
        // 20 000 bytes: three chunk pages and the index page.
        let after_copy = pages_and_free(&s);
        assert_eq!(after_copy.0, before.1 .0 + 4, "a copy of four pages");
        let r = s.query("SELECT v, w FROM L WHERE id = 1").unwrap();
        assert_eq!(r.rows, [[Value::Bytes(big_v(1)), Value::Bytes(big_v(1))]]);

        // Deleting that row frees both chains.
        let r = s.execute("DELETE FROM L WHERE id = 1").unwrap();
        assert_eq!(r[0].stats.rows_affected, 1);
        let after_delete = pages_and_free(&s);
        assert_eq!(after_delete.0, after_copy.0);
        assert_eq!(after_delete.1, after_copy.1 + 8, "two chains of four pages");

        // `SET v = w, w = v` swaps: both sides read the stored row.
        let r = s.execute("UPDATE L SET v = w, w = v WHERE id = 2").unwrap();
        assert_eq!(r[0].stats.rows_affected, 1);
        assert_eq!(r[0].stats.batches, 0, "two LOB sites: the interpreter");
        let r = s.query("SELECT v, w FROM L WHERE id = 2").unwrap();
        assert_eq!(r.rows, [[Value::Bytes(small_w(2)), Value::Bytes(big_v(2))]]);
        let swapped = stored_row(&mut s, 2);
        assert!(matches!(swapped[1], RowValue::Bytes(_)), "{swapped:?}");
        assert!(matches!(swapped[2], RowValue::LobRef(_, 20_000)));
        // Untouched rows still read back whole.
        let r = s.query("SELECT v, w FROM L WHERE id = 3").unwrap();
        assert_eq!(r.rows, [[Value::Bytes(big_v(3)), Value::Bytes(small_w(3))]]);
    }
}

#[test]
fn row_limit_never_applies_to_dml() {
    for batch in [0usize, 1024] {
        let mut s = session(6);
        s.set_batch_rows(batch);
        s.row_limit = 2;
        assert_eq!(s.query("SELECT id FROM T").unwrap().rows.len(), 2);
        let r = s.execute("UPDATE T SET tag = tag + 10").unwrap();
        assert_eq!(r[0].stats.rows_affected, 6, "batch {batch}");
        assert_eq!(r[0].stats.batches > 0, batch > 0);
        s.row_limit = 100;
        let tags: Vec<i32> = id_tag_rows(&mut s).into_iter().map(|(_, t)| t).collect();
        assert_eq!(tags, [10, 11, 12, 13, 14, 15], "batch {batch}");
        s.row_limit = 2;
        let r = s.execute("DELETE FROM T").unwrap();
        assert_eq!(r[0].stats.rows_affected, 6, "batch {batch}");
        assert!(id_tag_rows(&mut s).is_empty());
    }
}

/// The plan-cache slot governs DML like SELECT: a var-free statement
/// compiles once and reuses its plan — or its typed refusal — a statement
/// naming a variable compiles per execution.
#[test]
fn var_free_dml_reuses_its_compiled_plan() {
    let mut s = session(6);
    let reuses = |s: &Session| s.engine().stats().plans.compiled_reuses;
    for (sql, reused) in [
        ("UPDATE T SET tag = tag + 1 WHERE id < 3", 1),
        ("DELETE FROM T WHERE id = 5", 1),
        ("UPDATE T SET tag = @t WHERE id = 0", 0),
    ] {
        s.set_var("t", Value::I64(9));
        let before = reuses(&s);
        for _ in 0..2 {
            let stats = &s.execute(sql).unwrap()[0].stats;
            // Vectorized: every visited row arrived in a batch (the second
            // `DELETE … WHERE id = 5` seeks a key that is gone and visits
            // none).
            assert!(stats.fallback.is_none());
            assert_eq!(stats.batches > 0, stats.rows_scanned > 0, "{sql}");
        }
        assert_eq!(reuses(&s) - before, reused, "{sql}");
    }
    assert_eq!(
        id_tag_rows(&mut s),
        [(0, 9), (1, 3), (2, 4), (3, 3), (4, 4)]
    );
    // Prepared, and refused: the cached reason answers the second time.
    let mut s = lob_session(2);
    let swap = s.prepare("UPDATE L SET v = w, w = v").unwrap();
    for _ in 0..2 {
        let r = s.execute_prepared(&swap).unwrap();
        assert_eq!(r[0].stats.fallback, Some(Fallback::MultipleLobSites));
        assert_eq!(r[0].stats.rows_affected, 2);
    }
}

// --- Model-based differential test ---------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// Insert key `k` (skipped when present).
    Insert(i64),
    /// `UPDATE T SET tag = <val> WHERE id = <k>`
    Point(i64, i32),
    /// `UPDATE T SET tag = tag + <val> WHERE id % 3 = <k % 3>`
    Sweep(i64, i32),
    /// `DELETE FROM T WHERE id = <k>`
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0i64..24, -1000i32..1000).prop_map(|(kind, k, val)| match kind {
        0 => Op::Insert(k),
        1 => Op::Point(k, val),
        2 => Op::Sweep(k, val),
        _ => Op::Delete(k),
    })
}

fn apply_sql(s: &mut Session, op: &Op) -> u64 {
    match op {
        Op::Insert(k) => {
            let mut db = s.db_mut();
            if let Some(t) = db.table("T") {
                let t = t.clone();
                if t.get(&mut db.store, *k).unwrap().is_some() {
                    return 0;
                }
            }
            let arr = build::short_vector(&[*k as f64]).unwrap();
            db.insert(
                "T",
                *k,
                &[
                    RowValue::I64(*k),
                    RowValue::I32(*k as i32),
                    RowValue::Bytes(arr.into_blob()),
                ],
            )
            .unwrap();
            db.commit();
            1
        }
        Op::Point(k, val) => {
            let r = s
                .execute(&format!("UPDATE T SET tag = {val} WHERE id = {k}"))
                .unwrap();
            r[0].stats.rows_affected
        }
        Op::Sweep(k, val) => {
            let r = s
                .execute(&format!(
                    "UPDATE T SET tag = tag + {val} WHERE id % 3 = {}",
                    k.rem_euclid(3)
                ))
                .unwrap();
            r[0].stats.rows_affected
        }
        Op::Delete(k) => {
            let r = s.execute(&format!("DELETE FROM T WHERE id = {k}")).unwrap();
            r[0].stats.rows_affected
        }
    }
}

fn apply_model(m: &mut BTreeMap<i64, i32>, op: &Op) -> u64 {
    match op {
        Op::Insert(k) => {
            if m.contains_key(k) {
                0
            } else {
                m.insert(*k, *k as i32);
                1
            }
        }
        Op::Point(k, val) => {
            if let Some(t) = m.get_mut(k) {
                *t = *val;
                1
            } else {
                0
            }
        }
        Op::Sweep(k, val) => {
            let mut n = 0;
            for (id, t) in m.iter_mut() {
                if id.rem_euclid(3) == k.rem_euclid(3) {
                    *t = t.wrapping_add(*val);
                    n += 1;
                }
            }
            n
        }
        Op::Delete(k) => u64::from(m.remove(k).is_some()),
    }
}

proptest! {
    #[test]
    fn dml_matches_in_memory_model(
        ops in vec(op_strategy(), 1..16),
        dop_pick in any::<u8>(),
    ) {
        let dop = [1usize, 2, 4, 8][(dop_pick % 4) as usize];
        let mut s = session(8);
        s.set_dop(dop);
        let mut model: BTreeMap<i64, i32> = (0..8).map(|k| (k, k as i32)).collect();
        for op in &ops {
            let got = apply_sql(&mut s, op);
            let want = apply_model(&mut model, op);
            prop_assert!(
                got == want,
                "rows_affected {} != model {} for {:?} at dop {}",
                got, want, op, dop
            );
            let rows = id_tag_rows(&mut s);
            let expect: Vec<(i64, i32)> = model.iter().map(|(&k, &t)| (k, t)).collect();
            prop_assert!(
                rows == expect,
                "table {:?} != model {:?} after {:?} at dop {}",
                rows, expect, op, dop
            );
        }
        // The final durable image round-trips through recovery.
        let db = Database::recover(&s.db().store.crash_image()).unwrap();
        let mut rec = Engine::new(db).session_with_hosting(HostingModel::free());
        let rows = id_tag_rows(&mut rec);
        let expect: Vec<(i64, i32)> = model.iter().map(|(&k, &t)| (k, t)).collect();
        prop_assert!(rows == expect, "recovered {rows:?} != model {expect:?}");
    }
}
