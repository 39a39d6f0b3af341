//! Query-lifecycle robustness: the kill matrix.
//!
//! One shared engine must survive anything a statement does to it. These
//! tests abort queries at **every** lifecycle checkpoint (enumerated by a
//! dry run, then tripped one ordinal at a time) across DOP {1,2,4,8} and
//! both execution paths (row-at-a-time and vectorized), and assert the
//! engine stays fully usable afterwards: follow-up queries bit-identical
//! to an undisturbed replay, WAL bytes and recovery images untouched, no
//! scheduler-ticket or pool-accounting leaks. Around the matrix sit the
//! targeted aborts — asynchronous cancellation of a long scan, statement
//! timeouts, memory-budget rejections, contained worker panics, bounded
//! transient-read-fault retries, and typed admission-control refusals —
//! plus the exhaustive error-taxonomy pins the future serving layer
//! depends on.

use sqlarray_bench::rows_bit_identical;
use sqlarray_core::build;
use sqlarray_engine::faultfn::register_faults;
use sqlarray_engine::{
    Arg, Database, Engine, EngineError, Fault, FaultPlan, HostingModel, Session, Settings,
    UdaState, Value,
};
use sqlarray_storage::{ColType, RowValue, Schema, StorageError, MAX_READ_RETRIES};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const DOPS: [usize; 4] = [1, 2, 4, 8];

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

/// An engine serving the standard library plus the fault-injection
/// functions (`dbo.PanicIf`, `dbo.SpinUs`) this suite drives — a standard
/// engine does not resolve them. `tune` adjusts the construction-time
/// settings.
fn fault_engine_with(db: Database, tune: impl FnOnce(&mut Settings)) -> Arc<Engine> {
    let (mut udfs, udas) = Engine::standard_registries();
    register_faults(&mut udfs);
    let mut settings = Settings::from_env();
    tune(&mut settings);
    Engine::with_registries(db, settings, udfs, udas)
}

fn fault_engine(db: Database) -> Arc<Engine> {
    fault_engine_with(db, |_| {})
}

/// A free-hosting session over its own fault engine.
fn fault_session(db: Database) -> Session {
    fault_engine(db).session_with_hosting(HostingModel::free())
}

/// The undisturbed replay: a pristine serial session over identical data.
fn baseline_rows(rows: i64, queries: &[&str]) -> Vec<Vec<Vec<Value>>> {
    let mut s = fault_session(seeded_db(rows));
    s.set_dop(1);
    queries.iter().map(|q| s.query(q).unwrap().rows).collect()
}

// --- The kill matrix ------------------------------------------------------

/// Cancels each following statement of a session at its `at`-th lifecycle
/// poll.
fn cancel_at(at: u64) -> Option<FaultPlan> {
    Some(FaultPlan::new(Fault::Cancel, at))
}

/// Counts each following statement's lifecycle polls without tripping.
fn count_polls() -> Option<FaultPlan> {
    Some(FaultPlan::count(Fault::Cancel))
}

/// The lifecycle polls of the session's last statement, as its armed plan
/// counted them.
fn polls(s: &Session) -> u64 {
    let query = s.last_query_ctx().expect("statement ran");
    query.fault().expect("a fault plan is armed").seen()
}

/// Statements the matrix kills: grouped aggregation (per-group state,
/// merge phase), filtered expression projection (row emission), and the
/// two shapes whose batch evaluation polls *inside* a decoded batch — a
/// grouped aggregate over an array accessor and a per-row `dbo.SpinUs`
/// call lane — the executor shapes with distinct abort surfaces; and a
/// by-key statement, whose scan is one root-to-leaf path (a handful of
/// trip points where the others have hundreds).
const MATRIX_QUERIES: &[&str] = &[
    "SELECT id, tag, FloatArray.Item_1(v, 0) FROM T WHERE id = 137",
    "SELECT id % 3, COUNT(*), SUM(tag) FROM T GROUP BY id % 3",
    "SELECT id, tag + 1 FROM T WHERE id % 2 = 0",
    "SELECT id % 4, SUM(FloatArray.Item_1(v, 1)), MAX(tag) FROM T GROUP BY id % 4",
    "SELECT SUM(dbo.SpinUs(tag, 1)) FROM T WHERE id % 2 = 0",
];

/// For every matrix query × DOP: a `u64::MAX` dry run counts the
/// statement's lifecycle checks, then each ordinal `1..=N` is armed as a
/// trip point. Every kill must surface `EngineError::Cancelled`, leak no
/// scheduler tickets, and leave the engine answering the same statement
/// bit-identically to the undisturbed replay. The whole massacre must
/// leave the WAL byte-for-byte untouched.
fn kill_matrix(batch_rows: usize) {
    const ROWS: i64 = 300;
    let engine = fault_engine(seeded_db(ROWS));
    let wal_before = engine.db().store.crash_image().wal;
    let want = baseline_rows(ROWS, MATRIX_QUERIES);

    for (qi, q) in MATRIX_QUERIES.iter().enumerate() {
        for dop in DOPS {
            let mut s = engine.session_with_hosting(HostingModel::free());
            s.set_dop(dop);
            s.set_batch_rows(batch_rows);

            // Dry run: count this configuration's checkpoints without
            // tripping any (and prove counting doesn't perturb results).
            s.set_fault(count_polls());
            let dry = s.query(q).unwrap();
            assert!(
                rows_bit_identical(&dry.rows, &want[qi]),
                "dry run diverges at dop {dop}: `{q}`"
            );
            let points = polls(&s);
            assert!(points > 0, "no lifecycle checks at dop {dop}: `{q}`");

            for k in 1..=points {
                s.set_fault(cancel_at(k));
                let err = s.query(q).unwrap_err();
                assert_eq!(
                    err,
                    EngineError::Cancelled,
                    "trip {k}/{points} dop {dop} batch {batch_rows}: `{q}`"
                );
                // No ticket leak: the aborted statement fully released
                // its admission grant.
                assert_eq!(engine.sched().in_flight(), 0, "leaked workers");
                assert_eq!(engine.sched().active(), 0, "leaked active query");
                // Post-abort health: the same session, disarmed, answers
                // the same statement exactly like the undisturbed replay.
                s.set_fault(None);
                let again = s.query(q).unwrap();
                assert!(
                    rows_bit_identical(&again.rows, &want[qi]),
                    "post-abort divergence after trip {k}/{points} dop {dop}: `{q}`"
                );
            }
        }
    }

    // A read-only massacre leaves no durability trace, and the engine's
    // crash image still recovers to the right answers.
    let img = engine.db().store.crash_image();
    assert_eq!(img.wal, wal_before, "kills perturbed the WAL");
    let mut recovered = fault_session(Database::recover(&img).unwrap());
    for (qi, q) in MATRIX_QUERIES.iter().enumerate() {
        let rows = recovered.query(q).unwrap().rows;
        assert!(
            rows_bit_identical(&rows, &want[qi]),
            "recovery image diverges on `{q}`"
        );
    }
}

/// UPDATE/DELETE statements the matrix kills: their match phase is the
/// scan job the queries above run — a filtered projection led by the
/// clustered key, here also with a call lane in SET and in WHERE, and as
/// a seek.
const MATRIX_DML: &[&str] = &[
    "UPDATE T SET tag = tag + 1 WHERE id = 57",
    "UPDATE T SET tag = tag + 1 WHERE id % 2 = 0",
    "UPDATE T SET v = FloatArray.Vector_2(id, tag) WHERE FloatArray.Item_1(v, 1) > 100.0",
    "DELETE FROM T WHERE id % 3 = 0",
];

/// The DML half of the matrix. Every lifecycle check of an UPDATE/DELETE
/// belongs to its read-only match phase (the apply phase runs to the
/// commit), so every trip point must abort with `Cancelled`, zero rows
/// affected and not one WAL byte — and the statement, run undisturbed
/// afterwards, must leave the disk image of an engine that was never
/// disturbed at all.
fn kill_matrix_dml(batch_rows: usize) {
    const ROWS: i64 = 120;
    const CONTENTS: &str = "SELECT id, tag, v FROM T";
    for sql in MATRIX_DML {
        for dop in DOPS {
            let session = |engine: &Arc<Engine>| {
                let mut s = engine.session_with_hosting(HostingModel::free());
                s.set_dop(dop);
                s.set_batch_rows(batch_rows);
                s
            };
            // The undisturbed replay doubles as the dry run.
            let undisturbed = fault_engine(seeded_db(ROWS));
            let mut dry = session(&undisturbed);
            dry.set_fault(count_polls());
            let affected = dry.execute(sql).unwrap()[0].stats.rows_affected;
            assert!(affected > 0, "`{sql}` matched nothing");
            let points = polls(&dry);
            assert!(points > 0, "no lifecycle checks at dop {dop}: `{sql}`");

            let engine = fault_engine(seeded_db(ROWS));
            let image_before = engine.db().store.crash_image();
            let mut s = session(&engine);
            for k in 1..=points {
                s.set_fault(cancel_at(k));
                let err = s.execute(sql).unwrap_err();
                let at = format!("trip {k}/{points} dop {dop} batch {batch_rows}: `{sql}`");
                assert_eq!(err, EngineError::Cancelled, "{at}");
                assert_eq!(s.partial_stats().unwrap().rows_affected, 0, "{at}");
                assert_eq!(engine.sched().in_flight(), 0, "leaked workers, {at}");
                assert_eq!(engine.sched().active(), 0, "leaked active query, {at}");
                assert!(engine.db().store.crash_image() == image_before, "{at}");
            }
            s.set_fault(None);
            assert_eq!(s.execute(sql).unwrap()[0].stats.rows_affected, affected);
            assert!(
                engine.db().store.crash_image() == undisturbed.db().store.crash_image(),
                "post-massacre image diverges at dop {dop} batch {batch_rows}: `{sql}`"
            );
            let (got, want) = (s.query(CONTENTS).unwrap(), dry.query(CONTENTS).unwrap());
            assert!(rows_bit_identical(&got.rows, &want.rows), "`{sql}`");
        }
    }
}

#[test]
fn kill_matrix_row_path() {
    kill_matrix(0);
    kill_matrix_dml(0);
}

#[test]
fn kill_matrix_batch_path() {
    kill_matrix(64);
    kill_matrix_dml(64);
}

// --- Asynchronous cancellation -------------------------------------------

/// Cancelling a long scan from another thread stops it within one batch
/// worth of work — not at the end of the table. On the vectorized path a
/// worker's whole partition is *one* decoded batch here, so the bound
/// only holds because the call lane polls the lifecycle per row: the
/// ungrouped and the grouped statement both must stop mid-batch.
#[test]
fn cancelled_long_scan_stops_promptly() {
    const ROWS: i64 = 4000;
    let mut s = fault_session(seeded_db(ROWS));
    s.set_dop(4);
    // Count lifecycle polls without tripping on any.
    s.set_fault(count_polls());
    // 1 ms of spin per row = 1 s of mandatory wall clock per worker for
    // a full scan, all of it inside a single 1000-row batch on the
    // vectorized path — the cancel below must beat that by a wide margin.
    for shape in [
        "SELECT COUNT(*), SUM(dbo.SpinUs(tag, {us})) FROM T",
        "SELECT id % 5, COUNT(*), SUM(dbo.SpinUs(tag, {us})) FROM T GROUP BY id % 5",
    ] {
        let slow = &shape.replace("{us}", "1000");
        for batch_rows in [0usize, 1024] {
            s.set_batch_rows(batch_rows);
            // What the statement polls when nothing disturbs it: the same
            // shape without the spin.
            s.query(&shape.replace("{us}", "0")).unwrap();
            let full_polls = polls(&s);
            let handle = s.cancel_handle();
            let killer = thread::spawn(move || {
                thread::sleep(Duration::from_millis(40));
                handle.cancel();
            });
            let t0 = Instant::now();
            let err = s.query(slow).unwrap_err();
            let elapsed = t0.elapsed();
            killer.join().unwrap();

            assert_eq!(err, EngineError::Cancelled, "batch {batch_rows}: `{slow}`");
            assert!(
                elapsed < Duration::from_millis(600),
                "cancel took {elapsed:?} (batch {batch_rows}), the full scan needs ≥ 1 s of \
                 spin: `{slow}`"
            );
            // The abort reports the partial work it had done.
            let partial = s
                .partial_stats()
                .expect("aborted scan reports partial stats");
            assert_eq!(partial.batches > 0, batch_rows > 0, "wrong path: `{slow}`");
            // The batch path counts a batch's rows when it is decoded, so
            // only the interpreter's row count shows the early stop. The
            // poll count shows it on both: the call is polled around per
            // row, and (600 ms of 1 ms rows at most) at least 400 rows per
            // worker never ran.
            if batch_rows == 0 {
                assert!(
                    partial.rows_scanned < ROWS as u64,
                    "scan ran to completion ({} rows) despite the cancel",
                    partial.rows_scanned
                );
            }
            let polled = polls(&s);
            assert!(
                polled > 0 && polled + (ROWS as u64) / 4 < full_polls,
                "batch {batch_rows}: {polled} of {full_polls} polls, the scan did not stop \
                 inside its batch: `{slow}`"
            );
            // The session consumed the cancel: the next statement runs.
            assert_eq!(
                s.query_scalar("SELECT COUNT(*) FROM T").unwrap(),
                Value::I64(ROWS)
            );
        }
    }
}

// --- Statement timeout ----------------------------------------------------

#[test]
fn statement_timeout_aborts_with_typed_error_and_partial_stats() {
    const ROWS: i64 = 2000;
    let mut s = fault_session(seeded_db(ROWS));
    s.set_dop(2);
    s.set_statement_timeout_ms(Some(40));
    let err = s
        .query("SELECT SUM(dbo.SpinUs(tag, 200)) FROM T")
        .unwrap_err();
    assert_eq!(err, EngineError::Timeout { timeout_ms: 40 });
    let partial = s.partial_stats().expect("timeout reports partial stats");
    assert!(partial.rows_scanned < ROWS as u64);

    // Clearing the timeout restores normal service on the same session.
    s.set_statement_timeout_ms(None);
    assert_eq!(
        s.query_scalar("SELECT COUNT(*) FROM T").unwrap(),
        Value::I64(ROWS)
    );
    // 0 means "no timeout", matching the env-knob convention.
    s.set_statement_timeout_ms(Some(0));
    assert_eq!(s.statement_timeout_ms(), None);
}

// --- Memory budget --------------------------------------------------------

/// Large-blob table for the LOB-materialization charge: each `v` is a
/// ~16 KB float vector, past the in-row threshold, so scans yield lazy
/// LOB references that materialize through the charged path.
fn lob_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        "B",
        Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
    )
    .unwrap();
    for k in 0..rows {
        let comps: Vec<f64> = (0..2000).map(|i| (k * 2000 + i) as f64).collect();
        let arr = build::max_vector(&comps).unwrap();
        db.insert(
            "B",
            k,
            &[RowValue::I64(k), RowValue::Bytes(arr.into_blob())],
        )
        .unwrap();
    }
    db.commit();
    db
}

#[test]
fn memory_budget_rejects_each_charging_site_and_only_those() {
    const ROWS: i64 = 400;
    let mut s = fault_session(seeded_db(ROWS));
    let projection = "SELECT id, tag FROM T";
    let grouped = "SELECT id % 3, COUNT(*), SUM(tag) FROM T GROUP BY id % 3";
    let want = baseline_rows(ROWS, &[projection, grouped]);

    // A 1-byte budget trips on the first real allocation — but a
    // row-at-a-time projection allocates nothing the accountant tracks,
    // so it must still pass: the budget meters memory, not progress.
    s.set_query_mem_bytes(1);
    s.set_batch_rows(0);
    let r = s.query(projection).unwrap();
    assert!(rows_bit_identical(&r.rows, &want[0]));

    // Aggregation state charges per group.
    let err = s.query(grouped).unwrap_err();
    match err {
        EngineError::ResourceExhausted { used, limit } => {
            assert_eq!(limit, 1);
            assert!(used > limit);
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }

    // Batch lane growth charges on the vectorized path.
    s.set_batch_rows(64);
    let err = s.query(projection).unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "batch lanes went unmetered: {err:?}"
    );

    // Per-group state charges on the vectorized path too: a budget that
    // fits the 64-row batch lanes but not a few hundred groups' keys and
    // accumulator rows is rejected by the grouping loop — while the same
    // scan grouped three ways fits, so it is the groups that tripped.
    let many_groups = "SELECT id, COUNT(*), SUM(tag) FROM T GROUP BY id";
    s.set_query_mem_bytes(64 << 10);
    let r = s.query(grouped).unwrap();
    assert!(r.stats.batches > 0, "grouped plan did not vectorize");
    assert!(rows_bit_identical(&r.rows, &want[1]));
    let err = s.query(many_groups).unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { limit, .. } if limit == 64 << 10),
        "per-group state went unmetered on the batch path: {err:?}"
    );
    assert!(s.partial_stats().expect("the scan started").batches > 0);

    // A generous budget lets both through, bit-identically, and the
    // charges are observable after the fact.
    s.set_query_mem_bytes(64 << 20);
    let r = s.query(projection).unwrap();
    assert!(rows_bit_identical(&r.rows, &want[0]));
    assert!(r.stats.batches > 0, "vectorized path did not engage");
    assert!(s.last_query_ctx().unwrap().mem_used() > 0);
    let r = s.query(grouped).unwrap();
    assert!(rows_bit_identical(&r.rows, &want[1]));
}

#[test]
fn lob_materialization_is_charged_against_the_budget() {
    let mut s = fault_session(lob_db(16));
    s.set_batch_rows(0);
    let q = "SELECT SUM(dbo.EmptyFunction(v, 0)) FROM B";
    let want = s.query(q).unwrap().rows;

    // Materializing even one 8 KB blob blows a 1 KB budget.
    s.set_query_mem_bytes(1024);
    let err = s.query(q).unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "LOB materialization went unmetered: {err:?}"
    );

    // Unlimited again: same answer, and the accountant saw the blobs.
    s.set_query_mem_bytes(0);
    let r = s.query(q).unwrap();
    assert!(rows_bit_identical(&r.rows, &want));
    assert!(
        s.last_query_ctx().unwrap().mem_used() >= 16 * 16000,
        "charged only {} bytes for 16 × 16 KB blobs",
        s.last_query_ctx().unwrap().mem_used()
    );
}

// --- Panic containment ----------------------------------------------------

#[test]
fn worker_panics_are_contained_at_every_dop_and_path() {
    const ROWS: i64 = 600;
    let engine = fault_engine(seeded_db(ROWS));
    let wal_before = engine.db().store.crash_image().wal;

    for dop in DOPS {
        for batch_rows in [0usize, 64] {
            let mut s = engine.session_with_hosting(HostingModel::free());
            s.set_dop(dop);
            s.set_batch_rows(batch_rows);
            let err = s
                .query("SELECT SUM(dbo.PanicIf(id, 300)) FROM T")
                .unwrap_err();
            match err {
                EngineError::WorkerPanicked(msg) => {
                    assert!(msg.contains("injected panic"), "lost the payload: {msg}")
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
            // The panic folded its accounting back: no ticket leak, and
            // the shared lock is not poisoned — the same engine keeps
            // serving this session and fresh ones.
            assert_eq!(engine.sched().in_flight(), 0);
            assert_eq!(engine.sched().active(), 0);
            assert_eq!(
                s.query_scalar("SELECT COUNT(*) FROM T").unwrap(),
                Value::I64(ROWS),
                "engine unusable after a contained panic (dop {dop}, batch {batch_rows})"
            );
        }
    }
    assert_eq!(
        engine.db().store.crash_image().wal,
        wal_before,
        "a read-only panic perturbed the WAL"
    );
}

/// The fault functions are test instruments, not part of the library: on a
/// standard engine no SQL text can reach them — in a scan on either path,
/// without a FROM, or in an initializer.
#[test]
fn standard_engine_does_not_serve_the_fault_functions() {
    let mut s = Engine::new(seeded_db(50)).session_with_hosting(HostingModel::free());
    s.execute("DECLARE @x BIGINT").unwrap();
    for func in ["dbo.PanicIf", "dbo.SpinUs"] {
        for batch_rows in [0usize, 64] {
            s.set_batch_rows(batch_rows);
            let err = s
                .query(&format!("SELECT SUM({func}(id, 7)) FROM T"))
                .unwrap_err();
            assert!(
                matches!(&err, EngineError::Unknown(what) if what.contains(func)),
                "{func} in a scan (batch {batch_rows}): {err:?}"
            );
        }
        for sql in [
            format!("SELECT {func}(7, 7)"),
            format!("SET @x = {func}(7, 7)"),
        ] {
            let err = s.execute(&sql).unwrap_err();
            assert!(matches!(err, EngineError::Unknown(_)), "`{sql}`: {err:?}");
        }
    }
    // The one managed no-op the paper's Q5 needs is library, not fault.
    s.query("SELECT SUM(dbo.EmptyFunction(v, 0)) FROM T")
        .unwrap();
}

#[test]
fn aborted_dml_match_phase_leaves_no_durability_trace() {
    const ROWS: i64 = 200;
    // On both scan bodies: 0 is the interpreter, 64 the batch plan.
    for batch_rows in [0usize, 64] {
        let engine = fault_engine(seeded_db(ROWS));
        let mut s = engine.session_with_hosting(HostingModel::free());
        s.set_batch_rows(batch_rows);
        let wal_before = engine.db().store.crash_image().wal;

        // A cancelled match phase commits nothing: no page, no WAL byte.
        s.set_fault(cancel_at(5));
        let err = s
            .execute("UPDATE T SET tag = tag + 1 WHERE tag >= 0")
            .unwrap_err();
        assert_eq!(err, EngineError::Cancelled);
        s.set_fault(None);
        assert_eq!(engine.db().store.crash_image().wal, wal_before);
        let partial = s
            .partial_stats()
            .expect("aborted DML reports partial stats");
        assert_eq!(partial.rows_affected, 0);
        assert_eq!(partial.batches > 0, batch_rows > 0, "wrong scan body");

        // The engine still commits real DML afterwards, and the image
        // recovers to exactly that one statement's effect.
        s.execute("UPDATE T SET tag = 0 - tag WHERE id >= 0")
            .unwrap();
        let img = engine.db().store.crash_image();
        assert!(img.wal.len() > wal_before.len(), "commit left no WAL trace");
        let mut recovered = fault_session(Database::recover(&img).unwrap());
        let sum: f64 = (0..ROWS).map(|k| k as f64).sum();
        assert_eq!(
            recovered.query_scalar("SELECT SUM(tag) FROM T").unwrap(),
            Value::F64(-sum)
        );
    }
}

/// A keyed statement visits few rows, and those visits are as abortable
/// as a scan's (the kill matrix trips every checkpoint of a seek): the
/// timeout and the memory budget surface typed, with partial stats that
/// name the access path, and an aborted keyed UPDATE logs nothing.
#[test]
fn keyed_statements_time_out_and_run_out_of_budget_like_scans() {
    use sqlarray_engine::Access;
    for batch_rows in [0usize, 64] {
        let engine = fault_engine(seeded_db(200));
        let mut s = engine.session_with_hosting(HostingModel::free());
        s.set_batch_rows(batch_rows);
        let wal_before = engine.db().store.crash_image().wal;

        // Ten rows of 20 ms mandatory spin each against a 20 ms deadline
        // (the deadline is polled between rows, so it takes two).
        s.set_statement_timeout_ms(Some(20));
        for sql in [
            "SELECT dbo.SpinUs(tag, 20000) FROM T WHERE id >= 50 AND id < 60",
            "UPDATE T SET tag = dbo.SpinUs(tag, 20000) WHERE id >= 50 AND id < 60",
        ] {
            let err = s.execute(sql).unwrap_err();
            assert_eq!(err, EngineError::Timeout { timeout_ms: 20 }, "{sql}");
            let partial = s.partial_stats().expect("the range scan started");
            assert_eq!((partial.access, partial.rows_affected), (Access::Range, 0));
            assert!(partial.rows_scanned <= 10 && partial.io.cache_hits > 0);
        }
        s.set_statement_timeout_ms(None);
        assert_eq!(engine.db().store.crash_image().wal, wal_before);
        assert_eq!(engine.sched().in_flight(), 0, "leaked workers");

        // Materializing the one row's 16 KB array blows a 1 KB budget.
        let mut s = fault_session(lob_db(16));
        s.set_batch_rows(batch_rows);
        let by_key = "SELECT dbo.EmptyFunction(v, 0) FROM B WHERE id = 9";
        let want = s.query(by_key).unwrap().rows;
        s.set_query_mem_bytes(1024);
        let err = s.query(by_key).unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { .. }),
            "{err:?}"
        );
        assert_eq!(s.partial_stats().unwrap().access, Access::Seek);
        s.set_query_mem_bytes(0);
        assert!(rows_bit_identical(&s.query(by_key).unwrap().rows, &want));
    }
}

// --- DECLARE / SET initializers are statements too -------------------------

#[test]
fn set_initializers_honour_timeout_and_cancel() {
    let mut s = fault_session(seeded_db(10));
    s.execute("DECLARE @x BIGINT").unwrap();

    // 200 ms of mandatory spin against a 20 ms deadline.
    s.set_statement_timeout_ms(Some(20));
    let err = s.execute("SET @x = dbo.SpinUs(1, 200000)").unwrap_err();
    assert_eq!(err, EngineError::Timeout { timeout_ms: 20 });
    s.set_statement_timeout_ms(None);

    // A pre-cancelled handle stops the initializer itself — and is
    // consumed by it, so the next statement runs.
    s.cancel_handle().cancel();
    let err = s.execute("SET @x = dbo.SpinUs(2, 10)").unwrap_err();
    assert_eq!(err, EngineError::Cancelled);
    assert_eq!(
        s.query_scalar("SELECT COUNT(*) FROM T").unwrap(),
        Value::I64(10)
    );
    // Neither aborted SET assigned anything.
    assert_eq!(s.var("x"), Some(&Value::Null));
}

// --- Partial stats after a post-scan failure ---------------------------------

/// A UDA whose scan phase succeeds and whose `terminate()` fails.
struct FailsAtTerminate;

impl UdaState for FailsAtTerminate {
    fn accumulate(&mut self, _: &[Arg<'_>]) -> Result<(), EngineError> {
        Ok(())
    }
    fn serialize_state(&self) -> Vec<u8> {
        Vec::new()
    }
    fn load_state(&mut self, _: &[u8]) -> Result<(), EngineError> {
        Ok(())
    }
    fn merge_state(&mut self, _: &[u8]) -> Result<(), EngineError> {
        Ok(())
    }
    fn terminate(&mut self) -> Result<Value, EngineError> {
        Err(EngineError::Type("terminate refused".into()))
    }
}

/// The failing aggregate is registered on an engine of its own — user
/// functions go in at construction — and the statement runs through the
/// public path: `Session::query`, then `partial_stats()`.
#[test]
fn terminate_error_after_the_scan_reports_partial_stats() {
    const ROWS: i64 = 600;
    let (udfs, mut udas) = Engine::standard_registries();
    udas.register("dbo.FailsAtTerminate", || Box::new(FailsAtTerminate));
    let engine = Engine::with_registries(seeded_db(ROWS), Settings::from_env(), udfs, udas);
    engine.db().store.clear_cache();
    for dop in [1usize, 4] {
        let mut s = engine.session_with_hosting(HostingModel::free());
        s.set_dop(dop);
        s.set_batch_rows(64);
        let err = s
            .query("SELECT dbo.FailsAtTerminate(tag) FROM T")
            .unwrap_err();
        assert_eq!(err, EngineError::Type("terminate refused".into()));
        let partial = s
            .partial_stats()
            .expect("the scan ran: its measurements must survive the error");
        assert_eq!(partial.rows_scanned, ROWS as u64, "dop {dop}");
        assert!(partial.io.logical_reads() > 0, "dop {dop}: {partial:?}");
        if dop == 1 {
            assert!(
                partial.io.pages_read > 0,
                "cold scan read no pages: {partial:?}"
            );
        }
    }
}

// --- Transient read faults ------------------------------------------------

/// Arms a read fault on the session's store: the third snapshot-cold page
/// read of the next statement — on whichever scan worker meets it — fails
/// `times` times. The pool is cleared first, so the reads are cold.
fn fail_third_cold_read(s: &Session, times: u32) {
    let mut db = s.db_mut();
    db.store.clear_cache();
    db.store
        .arm(Some(FaultPlan::new(Fault::ReadFault { times }, 3)));
}

#[test]
fn transient_read_faults_retry_bounded_and_deterministically() {
    const ROWS: i64 = 600;
    let mut s = fault_session(seeded_db(ROWS));
    s.set_dop(4);
    let q = "SELECT COUNT(*), SUM(tag), MIN(tag), MAX(tag) FROM T";
    let want = s.query(q).unwrap().rows;

    // As many failures as the retry budget allows: absorbed by the bounded
    // retry path, each one counted, the answer unchanged — whichever
    // worker of a parallel scan meets the faulted read.
    for dop in [1, 4] {
        s.set_dop(dop);
        fail_third_cold_read(&s, MAX_READ_RETRIES);
        let r = s.query(q).unwrap();
        assert!(rows_bit_identical(&r.rows, &want), "dop {dop}");
        assert_eq!(
            r.stats.io.transient_retries,
            u64::from(MAX_READ_RETRIES),
            "dop {dop}: {:?}",
            r.stats.io
        );
    }

    // One failure past MAX_READ_RETRIES exhausts the read's budget and
    // surfaces the typed storage error through the engine.
    fail_third_cold_read(&s, MAX_READ_RETRIES + 1);
    let err = s.query(q).unwrap_err();
    match err {
        EngineError::Storage(msg) => {
            assert!(msg.contains("transient read fault"), "{msg}")
        }
        other => panic!("expected a storage error, got {other:?}"),
    }

    // Disarm; the same session recovers to the same answer.
    s.db_mut().store.arm(None);
    s.db().store.clear_cache();
    let r = s.query(q).unwrap();
    assert!(rows_bit_identical(&r.rows, &want));
    assert_eq!(r.stats.io.transient_retries, 0);
}

// --- Admission control under overload -------------------------------------

#[test]
fn overload_is_refused_and_timed_out_with_typed_errors() {
    const ROWS: i64 = 400;
    let engine = fault_engine_with(seeded_db(ROWS), |settings| {
        settings.engine.worker_budget = 1;
        settings.engine.admission_queue_cap = 1;
    });
    let agg = "SELECT COUNT(*), SUM(tag) FROM T";
    let want = baseline_rows(ROWS, &[agg]);

    thread::scope(|sc| {
        // The holder pins the lone budgeted worker with ~0.8 s of
        // mandatory spin; it is cancelled once the assertions are done.
        let mut hold_s = engine.session_with_hosting(HostingModel::free());
        hold_s.set_dop(1);
        let hold_cancel = hold_s.cancel_handle();
        let holder = sc.spawn(move || {
            let err = hold_s
                .query("SELECT SUM(dbo.SpinUs(tag, 2000)) FROM T")
                .unwrap_err();
            assert_eq!(err, EngineError::Cancelled);
        });
        while engine.sched().in_flight() == 0 {
            thread::yield_now();
        }

        // A queued statement's deadline expires before it ever runs:
        // AdmissionTimeout, not Timeout.
        let mut timed = engine.session_with_hosting(HostingModel::free());
        timed.set_dop(1);
        timed.set_statement_timeout_ms(Some(30));
        let err = timed.query(agg).unwrap_err();
        assert_eq!(err, EngineError::AdmissionTimeout { timeout_ms: 30 });

        // Fill the queue (depth cap 1) with a patient statement…
        let queued_before = engine.stats().sched.queued;
        let mut parked_s = engine.session_with_hosting(HostingModel::free());
        parked_s.set_dop(1);
        let parked = sc.spawn(move || parked_s.query(agg).map(|r| r.rows));
        while engine.stats().sched.queued == queued_before {
            thread::yield_now();
        }

        // …so the next arrival is refused immediately, with the typed
        // rejection a client can act on.
        let mut over = engine.session_with_hosting(HostingModel::free());
        over.set_dop(1);
        let err = over.query(agg).unwrap_err();
        assert_eq!(err, EngineError::Overloaded { waiting: 1, cap: 1 });
        assert!(err.is_retryable() && err.is_user_error());

        // Release the holder: the parked statement gets its grant and
        // completes bit-identically — overload shed load, it never
        // changed an answer.
        hold_cancel.cancel();
        let rows = parked.join().unwrap().unwrap();
        assert!(rows_bit_identical(&rows, &want[0]));
        holder.join().unwrap();
    });

    let st = engine.stats().sched;
    assert!(st.admission_timeouts >= 1, "{st:?}");
    assert!(st.rejected_overload >= 1, "{st:?}");
    assert!(st.queued >= 2, "{st:?}");
    assert!(st.wait_nanos > 0, "queued time is surfaced: {st:?}");
    assert_eq!(engine.sched().in_flight(), 0);
    assert_eq!(engine.sched().active(), 0);

    // The engine is healthy after the storm.
    let mut s = engine.session_with_hosting(HostingModel::free());
    let rows = s.query(agg).unwrap().rows;
    assert!(rows_bit_identical(&rows, &want[0]));
}

// --- Error taxonomy -------------------------------------------------------

/// The expected (`is_retryable`, `is_user_error`) classification of every
/// `EngineError` variant. The match is deliberately exhaustive: adding a
/// variant without classifying it breaks this test at compile time.
fn engine_expected(e: &EngineError) -> (bool, bool) {
    match e {
        EngineError::Parse { .. } => (false, true),
        EngineError::Unknown(_) => (false, true),
        EngineError::Type(_) => (false, true),
        EngineError::Arity { .. } => (false, true),
        EngineError::Array(_) => (false, true),
        EngineError::Storage(_) => (false, false),
        EngineError::Unsupported(_) => (false, true),
        EngineError::UnresolvedLob { .. } => (false, true),
        EngineError::Cancelled => (false, true),
        EngineError::Timeout { .. } => (true, true),
        EngineError::ResourceExhausted { .. } => (false, true),
        EngineError::WorkerPanicked(_) => (false, false),
        EngineError::AdmissionTimeout { .. } => (true, true),
        EngineError::Overloaded { .. } => (true, true),
    }
}

#[test]
fn engine_error_taxonomy_is_total_and_stable() {
    let cases = vec![
        EngineError::Parse {
            pos: 0,
            msg: "x".into(),
        },
        EngineError::Unknown("x".into()),
        EngineError::Type("x".into()),
        EngineError::Arity {
            func: "f".into(),
            got: 1,
            want: "2".into(),
        },
        EngineError::Array("x".into()),
        EngineError::Storage("x".into()),
        EngineError::Unsupported("x".into()),
        EngineError::UnresolvedLob { id: 1, len: 2 },
        EngineError::Cancelled,
        EngineError::Timeout { timeout_ms: 1 },
        EngineError::ResourceExhausted { used: 2, limit: 1 },
        EngineError::WorkerPanicked("x".into()),
        EngineError::AdmissionTimeout { timeout_ms: 1 },
        EngineError::Overloaded { waiting: 1, cap: 1 },
    ];
    for e in &cases {
        let (retryable, user) = engine_expected(e);
        assert_eq!(e.is_retryable(), retryable, "is_retryable({e})");
        assert_eq!(e.is_user_error(), user, "is_user_error({e})");
    }
}

/// Same contract for `StorageError` — the storage half of the taxonomy.
fn storage_expected(e: &StorageError) -> (bool, bool) {
    match e {
        StorageError::PageOutOfRange { .. } => (false, false),
        StorageError::RecordTooLarge { .. } => (false, false),
        StorageError::BadSlot { .. } => (false, false),
        StorageError::DuplicateKey { .. } => (false, true),
        StorageError::KeyNotFound { .. } => (false, true),
        StorageError::KeysNotAscending { .. } => (false, true),
        StorageError::PageTypeMismatch { .. } => (false, false),
        StorageError::BlobRangeOutOfBounds { .. } => (false, true),
        StorageError::RowCorrupt(_) => (false, false),
        StorageError::BulkLoad(_) => (false, true),
        StorageError::SchemaMismatch(_) => (false, true),
        StorageError::PageCorrupt { .. } => (false, false),
        StorageError::WalTorn { .. } => (false, false),
        StorageError::WalCorrupt { .. } => (false, false),
        StorageError::CatalogCorrupt(_) => (false, false),
        StorageError::Interrupted(_) => (true, true),
        StorageError::ReadFaulted { .. } => (true, false),
        StorageError::PageAlreadyFree { .. } => (false, false),
    }
}

#[test]
fn storage_error_taxonomy_is_total_and_stable() {
    let cases = vec![
        StorageError::PageOutOfRange { page: 1, max: 0 },
        StorageError::RecordTooLarge { bytes: 2, limit: 1 },
        StorageError::BadSlot { slot: 1, count: 0 },
        StorageError::DuplicateKey { key: 1 },
        StorageError::KeyNotFound { key: 1 },
        StorageError::KeysNotAscending { key: 1, after: 2 },
        StorageError::PageTypeMismatch {
            page: 1,
            expected: 1,
            got: 2,
        },
        StorageError::BlobRangeOutOfBounds {
            offset: 1,
            len: 1,
            total: 1,
        },
        StorageError::RowCorrupt("x".into()),
        StorageError::BulkLoad("x".into()),
        StorageError::SchemaMismatch("x".into()),
        StorageError::PageCorrupt {
            page: 1,
            stored: 1,
            computed: 2,
        },
        StorageError::WalTorn { offset: 1 },
        StorageError::WalCorrupt {
            offset: 1,
            msg: "x".into(),
        },
        StorageError::CatalogCorrupt("x".into()),
        StorageError::Interrupted(sqlarray_core::Interrupt::Cancelled),
        StorageError::ReadFaulted {
            page: 1,
            attempts: 4,
        },
        StorageError::PageAlreadyFree { page: 1 },
    ];
    for e in &cases {
        let (retryable, user) = storage_expected(e);
        assert_eq!(e.is_retryable(), retryable, "is_retryable({e})");
        assert_eq!(e.is_user_error(), user, "is_user_error({e})");
    }
    // Typed interrupts map back to the engine's own variants — never to a
    // stringly Storage error.
    assert_eq!(
        EngineError::from(StorageError::Interrupted(
            sqlarray_core::Interrupt::Cancelled
        )),
        EngineError::Cancelled
    );
    assert_eq!(
        EngineError::from(StorageError::Interrupted(
            sqlarray_core::Interrupt::Timeout { timeout_ms: 7 }
        )),
        EngineError::Timeout { timeout_ms: 7 }
    );
    assert_eq!(
        EngineError::from(StorageError::Interrupted(
            sqlarray_core::Interrupt::MemExceeded { used: 2, limit: 1 }
        )),
        EngineError::ResourceExhausted { used: 2, limit: 1 }
    );
}
