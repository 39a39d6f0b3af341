//! Many cheap sessions over one shared `Engine`: concurrency must be an
//! optimization, never a different answer. A phased differential
//! proptest runs N simultaneous reader sessions (at mixed DOPs and batch
//! sizes) against a single-writer DML stream and asserts every reader's
//! result is **bit-identical** to a serial single-session replay, that
//! the WAL byte stream and recovery image are unaffected by the
//! concurrent readers, and that the shared plan cache actually served
//! repeats. A separate stress test overlaps readers *with* the writer
//! and checks snapshot reads never observe a torn (uncommitted or
//! partially applied) statement.

use proptest::collection::vec;
use proptest::prelude::*;
use sqlarray_bench::rows_bit_identical;
use sqlarray_core::build;
use sqlarray_engine::{Access, Database, Engine, HostingModel, Session, Value};
use sqlarray_storage::{ColType, RowValue, Schema};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

const READERS: usize = 4;
const READER_DOPS: [usize; READERS] = [1, 2, 4, 8];

/// Read-only statements the reader sessions hammer. Together they cover
/// scalar aggregation, filtered projection, grouped aggregation and
/// expression projection, by full scan, seek and key range — every
/// executor and access path a reader can take.
const QUERIES: &[&str] = &[
    "SELECT COUNT(*), SUM(tag), MIN(tag), MAX(tag) FROM T",
    "SELECT id, tag, FloatArray.Item_1(v, 0) FROM T WHERE id = 7",
    "SELECT COUNT(*), SUM(tag) FROM T WHERE id >= 5 AND id < 17",
    "SELECT id, tag FROM T WHERE id % 2 = 0",
    "SELECT id % 3, COUNT(*), SUM(tag) FROM T GROUP BY id % 3",
    "SELECT id, tag + 1 FROM T WHERE tag >= 0",
];

fn schema() -> Schema {
    Schema::new(&[
        ("id", ColType::I64),
        ("tag", ColType::I32),
        ("v", ColType::Blob),
    ])
}

/// `T(id BIGINT, tag INT, v VARBINARY(MAX))` with `rows` committed rows;
/// row `k` has `tag = k` and a 5-element float vector seeded by `k`.
fn seeded_db(rows: i64) -> Database {
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
    db
}

fn serial_session(rows: i64) -> Session {
    let mut s = Engine::new(seeded_db(rows)).session_with_hosting(HostingModel::free());
    s.set_dop(1);
    s
}

// --- Single-writer DML stream ---------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// `UPDATE T SET tag = <val> WHERE id = <k>`
    Point(i64, i32),
    /// `UPDATE T SET tag = tag + <val> WHERE id % 3 = <k % 3>`
    Sweep(i64, i32),
    /// `DELETE FROM T WHERE id = <k>`
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 0i64..24, -1000i32..1000).prop_map(|(kind, k, val)| match kind {
        0 => Op::Point(k, val),
        1 => Op::Sweep(k, val),
        _ => Op::Delete(k),
    })
}

fn apply(s: &mut Session, op: &Op) {
    let sql = match op {
        Op::Point(k, val) => format!("UPDATE T SET tag = {val} WHERE id = {k}"),
        Op::Sweep(k, val) => {
            format!(
                "UPDATE T SET tag = tag + {val} WHERE id % 3 = {}",
                k.rem_euclid(3)
            )
        }
        Op::Delete(k) => format!("DELETE FROM T WHERE id = {k}"),
    };
    s.execute(&sql).unwrap();
}

/// Every query's rows, in `QUERIES` order.
fn run_queries(s: &mut Session) -> Vec<Vec<Vec<Value>>> {
    QUERIES.iter().map(|q| s.query(q).unwrap().rows).collect()
}

proptest! {
    /// Phased differential check: after every committed DML statement,
    /// N reader sessions at DOP {1,2,4,8} × batch sizes {row-at-a-time,
    /// vectorized} query the shared engine **concurrently** and must each
    /// return exactly what a serial single-session replay returns. The
    /// concurrent run's WAL bytes and recovery image must equal the
    /// serial run's — readers leave no trace in the log.
    #[test]
    fn concurrent_sessions_match_serial_replay(
        ops in vec(op_strategy(), 1..5),
        batch_pick in any::<u8>(),
    ) {
        const ROWS: i64 = 24;
        let engine = Engine::new(seeded_db(ROWS));
        let mut writer = engine.session_with_hosting(HostingModel::free());
        let mut serial = serial_session(ROWS);

        for (phase, op) in ops.iter().enumerate() {
            apply(&mut writer, op);
            apply(&mut serial, op);
            let want = run_queries(&mut serial);

            // Fresh reader sessions every phase: sessions are supposed to
            // be cheap, and churning them exercises the shared plan cache.
            let got: Vec<(usize, Vec<Vec<Vec<Value>>>)> = thread::scope(|sc| {
                let handles: Vec<_> = (0..READERS)
                    .map(|r| {
                        let mut s = engine.session_with_hosting(HostingModel::free());
                        s.set_dop(READER_DOPS[r]);
                        // Half the readers take the row-at-a-time path,
                        // half the vectorized path (swap per proptest case).
                        if (r + batch_pick as usize) % 2 == 0 {
                            s.set_batch_rows(0);
                        }
                        sc.spawn(move || (r, run_queries(&mut s)))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            for (r, rows_per_query) in &got {
                for (qi, rows) in rows_per_query.iter().enumerate() {
                    prop_assert!(
                        rows_bit_identical(rows, &want[qi]),
                        "phase {phase} reader {r} (dop {}) query `{}`:\n  \
                         concurrent: {rows:?}\n  serial:     {:?}",
                        READER_DOPS[*r], QUERIES[qi], want[qi],
                    );
                }
            }
        }

        // Concurrent readers must not perturb durability: same WAL bytes,
        // and the recovered database matches the serial replay's state.
        let img = writer.db().store.crash_image();
        let want_img = serial.db().store.crash_image();
        prop_assert!(img.wal == want_img.wal, "WAL bytes differ under concurrency");
        let mut recovered =
            Engine::new(Database::recover(&img).unwrap()).session_with_hosting(HostingModel::free());
        let mut reref = run_queries(&mut recovered);
        let want = run_queries(&mut serial);
        for (qi, rows) in reref.drain(..).enumerate() {
            prop_assert!(
                rows_bit_identical(&rows, &want[qi]),
                "recovered image diverges on `{}`", QUERIES[qi],
            );
        }

        // The readers re-ran the same four statements every phase: the
        // shared plan cache must have served repeats, and admission
        // control must have seen every reader.
        let stats = engine.stats();
        prop_assert!(stats.plans.hits > 0, "plan cache never hit: {:?}", stats.plans);
        prop_assert!(
            stats.sched.admitted as usize >= ops.len() * READERS,
            "scheduler admitted too few: {:?}", stats.sched,
        );
    }
}

/// Readers overlapping a live writer: every read must observe some
/// *committed* state, never a torn one. The writer flips every tag's
/// sign in one statement, so any committed snapshot satisfies
/// `SUM(tag) ∈ {S, -S}` and `COUNT(*) = ROWS`; a reader that caught the
/// update mid-flight would see anything else. The same holds row by row
/// and range by range, so every reader also seeks single keys and scans a
/// key range while the writer rewrites the leaves under them.
#[test]
fn snapshot_reads_never_observe_torn_writes() {
    const ROWS: i64 = 64;
    let sum = (0..ROWS).sum::<i64>() as f64; // 2016
    let engine = Engine::new(seeded_db(ROWS));
    let stop = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);

    thread::scope(|sc| {
        let (engine, stop, start) = (&engine, &stop, &start);
        let writer = sc.spawn(move || {
            let mut s = engine.session_with_hosting(HostingModel::free());
            start.wait();
            for _ in 0..60 {
                s.execute("UPDATE T SET tag = 0 - tag").unwrap();
            }
            stop.store(true, Ordering::Release);
        });

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                sc.spawn(move || {
                    let mut s = engine.session_with_hosting(HostingModel::free());
                    s.set_dop(READER_DOPS[r]);
                    start.wait();
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let rows = s.query("SELECT COUNT(*), SUM(tag) FROM T").unwrap().rows;
                        let (Value::I64(count), Value::F64(got)) = (&rows[0][0], &rows[0][1])
                        else {
                            panic!("unexpected shapes: {rows:?}");
                        };
                        assert_eq!(*count, ROWS, "snapshot lost rows");
                        assert!(
                            *got == sum || *got == -sum,
                            "torn read: SUM(tag) = {got}, expected ±{sum}",
                        );
                        let key = (reads as i64 * 7 + r as i64) % ROWS;
                        let by_key = format!("SELECT id, tag FROM T WHERE id = {key}");
                        let hit = s.query(&by_key).unwrap();
                        assert_eq!(hit.stats.access, Access::Seek);
                        let tag = |sign: i64| Value::I32((sign * key) as i32);
                        assert!(
                            hit.rows == [[Value::I64(key), tag(1)]]
                                || hit.rows == [[Value::I64(key), tag(-1)]],
                            "torn seek: {:?}",
                            hit.rows
                        );
                        let range = "SELECT COUNT(*), SUM(tag) FROM T WHERE id >= 16 AND id < 48";
                        let rows = s.query(range).unwrap().rows;
                        let half = (16..48).sum::<i64>() as f64;
                        assert!(
                            rows == [[Value::I64(32), Value::F64(half)]]
                                || rows == [[Value::I64(32), Value::F64(-half)]],
                            "torn range read: {rows:?}"
                        );
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();

        writer.join().unwrap();
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "readers never ran");
    });

    // 60 sign flips land back on the original tags, and the image still
    // recovers cleanly after the concurrent episode.
    let img = engine.db().store.crash_image();
    let mut recovered =
        Engine::new(Database::recover(&img).unwrap()).session_with_hosting(HostingModel::free());
    let flipped = recovered.query_scalar("SELECT SUM(tag) FROM T").unwrap();
    assert!(
        matches!(flipped, Value::F64(s) if s == sum),
        "recovered SUM(tag) = {flipped:?}, want {sum}"
    );
}

/// Prepared statements survive being executed from many sessions against
/// the same engine, and a statement prepared on one session is equally
/// valid on another (the plan is engine-owned, the session only holds an
/// `Arc`).
#[test]
fn prepared_statements_are_shareable_across_sessions() {
    let engine = Engine::new(seeded_db(16));
    let a = engine.session_with_hosting(HostingModel::free());
    let prepared = a
        .prepare("SELECT COUNT(*) FROM T WHERE id % 2 = 0")
        .unwrap();

    let counts: Vec<Vec<Vec<Value>>> = thread::scope(|sc| {
        let engine = &engine;
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                let p = &prepared;
                sc.spawn(move || {
                    let mut s = engine.session_with_hosting(HostingModel::free());
                    s.set_dop(READER_DOPS[r]);
                    s.execute_prepared(p).unwrap()[0].rows.clone()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for rows in &counts {
        assert_eq!(rows[0][0], Value::I64(8));
    }
    // One parse total: the first prepare missed, everything after hit.
    let stats = engine.stats();
    assert_eq!(stats.plans.misses, 1, "{:?}", stats.plans);
}
