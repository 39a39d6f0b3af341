//! Differential suite: vectorized batch execution vs the row-at-a-time
//! interpreter.
//!
//! The standing invariant of the engine is that every query result is
//! bit-identical regardless of execution strategy.  This suite pins the
//! batch path against the row path across:
//!
//! * every construct the batch compiler handles (comparisons, wrapping
//!   integer arithmetic, float arithmetic, `AND`/`OR` short-circuit,
//!   `NOT`, unary minus, all five aggregates, `COUNT` over blob columns,
//!   blob projection through in-row and out-of-row storage, `TOP`,
//!   scalar UDF calls — plain, nested, in `WHERE`, under aggregates, over
//!   out-of-row arrays through the `Item`/`Subarray` pushdown — and
//!   `GROUP BY` over scalar, UDF-valued, blob and LOB keys);
//! * string, bytes and NULL constants (dynamic lanes: the interpreter's
//!   own operators per value) projected, compared, grouped on and summed;
//! * fallback constructs (UDAs, multi-LOB-site statements) that must route
//!   both configurations through the same row interpreter;
//! * edge-case table sizes: empty, one row, exactly one batch, one batch
//!   plus one row;
//! * batch sizes {7, 1024} × DOP {1, 2, 4, 8}, compared byte-for-byte
//!   (floats by `to_bits`) against the serial row-at-a-time baseline;
//! * `SUM`/`AVG` over ±1e300, ±1e-300, subnormals and ±0.0 at batch
//!   {1, 7, 1024} × DOP {1, 2, 4}: typed and dynamic lanes reach the exact
//!   register a block at a time, the row path one value at a time;
//! * UPDATE/DELETE, whose match phase is the same scan job: every
//!   statement of [`DML_STATEMENTS`] on fresh copies of the table at batch
//!   {0, 7, 1024} × DOP {1, 2, 4, 8} must leave identical rows, WAL bytes,
//!   disk image, I/O counters, simulated seconds, seek position and pool
//!   recency order, and report the executor that ran;
//! * keyed access paths: every statement of [`keyed_statements`] — a
//!   predicate on the clustered key under SELECT, UPDATE and DELETE —
//!   seeks or range-scans at batch {0, 1, 7, 1024} × DOP {1, 2, 4, 8} and
//!   must leave what the same predicate spelled unextractably
//!   (`id + 0 = k`, a full scan) leaves: rows, `rows_affected`, error
//!   text, `udf_calls`, table contents, WAL and disk image.
//!
//! Error parity is checked too: a query that fails on the row path must
//! fail on the batch path with the same error text. So must the edge
//! values of [`EDGE_QUERIES`] — ties under the `f64` comparison, NaN cells
//! and variables, constants on either side of a comparison — where a typed
//! fold or the fused column-vs-constant comparison could drift from the
//! interpreter.

use proptest::prelude::*;
use sqlarray::prelude::*;
use sqlarray_bench::rows_bit_identical;
use sqlarray_core::build::{max_vector, short_vector};
use sqlarray_core::exact::ExactSum;
use sqlarray_core::rng::{RngCore, SeedableRng, StdRng};
use sqlarray_engine::{Access, EngineError, Fallback, Settings};

/// Rows whose `id % 97 == 3` carry an out-of-row LOB payload (> 8000
/// bytes); everything else keeps a short in-row blob.
const LOB_STRIDE: i64 = 97;

fn build_session(rows: i64, seed: u64) -> Session {
    build_session_in(0..rows, seed)
}

/// The fixture over an explicit key list, inserted row by row in that
/// order (ascending keys append leaf after leaf; anything else splits
/// them).
fn build_session_in(keys: impl Iterator<Item = i64>, seed: u64) -> Session {
    let mut db = Database::new();
    db.create_table(
        "T",
        Schema::new(&[
            ("id", ColType::I64),
            ("a", ColType::I64),
            ("b", ColType::I32),
            ("c", ColType::F64),
            ("d", ColType::F32),
            ("v", ColType::Blob),
            ("w", ColType::Blob),
            ("m", ColType::Blob),
        ]),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for k in keys {
        let a = (rng.next_u64() % 2001) as i64 - 1000;
        let b = (rng.next_u64() % 2001) as i32 - 1000;
        let c = (rng.next_u64() % 10_000) as f64 / 64.0 - 70.0;
        let d = (rng.next_u64() % 10_000) as f32 / 128.0 - 30.0;
        let blob: Vec<u8> = if k % LOB_STRIDE == 3 {
            // Out-of-row payload: deterministic, > 8000 bytes.
            (0u64..9000)
                .map(|i| (i.wrapping_mul(31).wrapping_add(k as u64)) as u8)
                .collect()
        } else {
            (0..(rng.next_u64() % 24) as u8)
                .map(|i| i.wrapping_add(k as u8))
                .collect()
        };
        // `w`: a short four-element float vector, always in-row. `m`: a
        // max-class float vector — out-of-row (> 8000 bytes) on the LOB
        // rows, a small in-row one elsewhere — so one `FloatArrayMax`
        // call sees both the pushdown and the plain-call route.
        let w: Vec<f64> = (0..4)
            .map(|i| c + i as f64 * 0.25 + (k % 7) as f64)
            .collect();
        let m_len = if k % LOB_STRIDE == 3 {
            1100
        } else {
            4 + (k % 3) as usize
        };
        let m: Vec<f64> = (0..m_len).map(|i| d as f64 - i as f64 * 0.5).collect();
        db.insert(
            "T",
            k,
            &[
                RowValue::I64(k),
                RowValue::I64(a),
                RowValue::I32(b),
                RowValue::F64(c),
                RowValue::F32(d),
                RowValue::Bytes(blob),
                RowValue::Bytes(short_vector(&w).unwrap().into_blob()),
                RowValue::Bytes(max_vector(&m).unwrap().into_blob()),
            ],
        )
        .unwrap();
    }
    Engine::new(db).session_with_hosting(HostingModel::free())
}

/// `TOP n` over an aggregate query cuts the finished group rows (it used
/// to cut projections only): each statement with the rows it returns over
/// a table of at least ten rows. The statements ride in [`QUERIES`].
const TOP_AGGREGATES: [(&str, usize); 4] = [
    ("SELECT TOP 3 id % 10, SUM(c) FROM T GROUP BY id % 10", 3),
    ("SELECT TOP 0 COUNT(*) FROM T", 0),
    (
        "SELECT TOP 2 id % 4, SUM(FloatArray.Item_1(w, 1)) FROM T GROUP BY id % 4",
        2,
    ),
    ("SELECT TOP 50 id % 4, COUNT(*) FROM T GROUP BY id % 4", 4),
];

/// Queries that must succeed and agree bit-for-bit on every configuration.
const QUERIES: &[&str] = &[
    "SELECT COUNT(*) FROM T",
    "SELECT COUNT(*), COUNT(a), COUNT(v) FROM T",
    "SELECT SUM(c), AVG(d), MIN(a), MAX(b) FROM T",
    "SELECT SUM(a + b), MIN(c * d), MAX(a % 7) FROM T WHERE a > 0",
    "SELECT id, a + b, c * 2.0, -d FROM T WHERE (a > 0 AND b <= 100) OR NOT (c < 0.0)",
    "SELECT TOP 13 id, c FROM T WHERE id % 3 = 1",
    "SELECT id, v FROM T WHERE id % 97 = 3",
    "SELECT a FROM T WHERE a > 100000",
    "SELECT SUM(c), COUNT(*) FROM T WHERE a > 100000",
    "SELECT id % 4, COUNT(*), SUM(c) FROM T GROUP BY id % 4",
    "SELECT MIN(b), MAX(d) FROM T WHERE NOT a = 0",
    "SELECT 1 + a, b - 2, c / 2.0, d FROM T WHERE a % 2 = 0 AND c > -100.0",
    // The one quotient, remainder and negation that overflow `i64`: they
    // wrap like Add/Sub/Mul do, in a constant and over a column.
    "SELECT (0 - 9223372036854775807 - 1) / (0 - 1), (0 - 9223372036854775807 - 1) % (0 - 1), \
     -(0 - 9223372036854775807 - 1)",
    "SELECT (a - a - 9223372036854775807 - 1) / (id - id - 1), \
     (a - a - 9223372036854775807 - 1) % (id - id - 1), -(a - a - 9223372036854775807 - 1) \
     FROM T",
    "SELECT SUM((a - a - 9223372036854775807 - 1) / (id - id - 1)) FROM T WHERE id < 2",
    // Scalar UDF calls: Table 1's Q4 and Q5 shapes, a computed index.
    "SELECT SUM(FloatArray.Item_1(w, 0)) FROM T",
    "SELECT SUM(dbo.EmptyFunction(w, 0)), COUNT(*) FROM T",
    "SELECT id, FloatArray.Item_1(w, (b % 4 + 4) % 4), -FloatArray.Norm2(w) FROM T WHERE a > 0",
    "SELECT TOP 9 id, FloatArray.Sum(w) FROM T WHERE id % 2 = 1",
    "SELECT TOP 5 id, a FROM T WHERE FloatArray.Item_1(w, 1) > 10.0",
    // Nested calls, and arithmetic over their dynamic results.
    "SELECT SUM(FloatArray.Sum(FloatArray.Scale(w, 2.0))) FROM T",
    "SELECT FloatArray.Item_1(FloatArray.Add(w, w), 1) + 1, FloatArray.Count(w) * 2 \
     FROM T WHERE id % 5 = 0",
    "SELECT MIN(FloatArray.ToString(w)), MAX(FloatArray.Raw(w)) FROM T",
    // Calls in WHERE, on both sides of a short-circuit.
    "SELECT id FROM T WHERE FloatArray.Item_1(w, 0) > 0.5 AND a > 0",
    "SELECT COUNT(*) FROM T WHERE b < 0 OR FloatArrayMax.Item_1(m, 1) > 0.0",
    "SELECT SUM(c) FROM T WHERE NOT FloatArray.Max(w) < 10.0",
    // `NOT`/`OR` nesting whose zero divisors sit on arms the left operand
    // already decided; as a filter, and as boolean lanes (projected, and
    // compared with each other).
    "SELECT id FROM T WHERE NOT (a > -10000 OR 1 / (a - a) > 0)",
    "SELECT COUNT(*) FROM T WHERE id % 5 = 0 OR NOT (id % 5 = 4 OR 10 / (id % 5) > 2)",
    "SELECT id, NOT (id % 5 = 0 OR 10 / (id % 5) > 2) FROM T WHERE id % 3 = 0",
    "SELECT SUM(a) FROM T WHERE (id % 5 = 0 OR 10 / (id % 5) > 2) = (NOT a > 0 AND b < 0)",
    // Grouped aggregation: scalar keys, UDF arguments, UDF-valued keys,
    // non-aggregate items, blob and LOB keys.
    "SELECT id % 4, COUNT(*), MIN(id), MAX(id), AVG(c) FROM T GROUP BY id % 4",
    "SELECT id % 4, SUM(FloatArray.Item_1(w, 1)), MIN(FloatArray.Norm2(w)) \
     FROM T GROUP BY id % 4",
    "SELECT FloatArrayMax.Count(m), COUNT(*), SUM(a) FROM T GROUP BY FloatArrayMax.Count(m)",
    "SELECT a % 3, b % 2, id, COUNT(b) FROM T WHERE c > 0.0 GROUP BY a % 3, b % 2",
    "SELECT COUNT(*), SUM(a), MAX(id) FROM T GROUP BY v",
    "SELECT id % 2, COUNT(v), MIN(id) FROM T GROUP BY id % 2, m",
    // Out-of-row arrays: the Item/Subarray pushdown, the full-read
    // fallback, and statements with two LOB-reading sites (the
    // interpreter runs those on both arms).
    "SELECT id, FloatArrayMax.Item_1(m, 3) FROM T WHERE id % 97 = 3 OR id % 10 = 0",
    "SELECT FloatArrayMax.Subarray(m, IntArray.Vector_1(1), IntArray.Vector_1(3), 0) \
     FROM T WHERE id % 2 = 1",
    "SELECT SUM(FloatArrayMax.Sum(m)), MAX(FloatArrayMax.Item_1(m, 2)) FROM T",
    "SELECT FloatArrayMax.Item_1(m, 0), v FROM T WHERE id % 97 < 5",
    "SELECT m, FloatArrayMax.Item_1(m, 0) FROM T WHERE id % 97 < 5",
    "SELECT id, FloatArrayMax.Dot(m, m) FROM T WHERE id % 97 = 3 OR id % 50 = 0",
    "SELECT FloatArrayMax.Count(m), COUNT(*) FROM T WHERE id % 97 < 9 GROUP BY m",
    TOP_AGGREGATES[0].0,
    TOP_AGGREGATES[1].0,
    TOP_AGGREGATES[2].0,
    TOP_AGGREGATES[3].0,
    // String, bytes and NULL constants: projected, compared, grouped on,
    // aggregated.
    "SELECT COUNT(*) FROM T WHERE FloatArray.ToString(w) = 'x'",
    "SELECT id, 'tag', 0x0AFF, NULL FROM T WHERE id % 5 = 0",
    "SELECT id FROM T WHERE 'abc' < 'abd' AND id % 7 = 0",
    "SELECT COUNT(*) FROM T WHERE FloatArray.Raw(w) > 0x00 OR NOT 0x0102 = 0x0102",
    "SELECT COUNT(*), MIN(id), 'k' FROM T GROUP BY 'k', NULL, id % 3",
    "SELECT MAX('x'), MIN(0x01), COUNT(NULL), SUM(NULL), COUNT('y') FROM T",
    // Fallback: both configurations run the interpreter.
    "SELECT id % 2, FloatArray.VectorAvg(w) FROM T GROUP BY id % 2",
];

/// Queries that must fail identically on nonempty tables (both arms
/// reach a zero divisor on the first row).
const ERROR_QUERIES: &[&str] = &[
    "SELECT a / (a - a) FROM T",
    "SELECT SUM(a % (id - id)) FROM T",
    // The callee's own runtime checks: index out of bounds, storage
    // class and element type mismatches, a non-array argument.
    "SELECT FloatArray.Item_1(w, 9) FROM T",
    "SELECT SUM(FloatArray.Item_1(m, 0)) FROM T",
    "SELECT id % 2, SUM(IntArray.Item_1(w, 0)) FROM T GROUP BY id % 2",
    "SELECT COUNT(*) FROM T WHERE FloatArray.Sum(v) > 0.0",
    // Per-row binding errors stay per-row errors (the planner falls
    // back): unknown function, wrong argument count.
    "SELECT dbo.NoSuchFunction(a) FROM T",
    "SELECT FloatArray.Item_1(w) FROM T",
    "SELECT TOP 2 id FROM T WHERE FloatArray.Item_1(w, 9) > 0.0",
    // Operators over dynamic results raise the interpreter's errors.
    "SELECT -FloatArray.ToString(w) FROM T",
    "SELECT SUM(FloatArray.Raw(w)) FROM T",
    "SELECT 1 / (FloatArray.Count(w) - 4) FROM T GROUP BY id % 3",
    // Constants the typed kernels have no lane for meet the interpreter's
    // typed errors: a string summed, compared with a number, negated; NULL
    // as an operand.
    "SELECT SUM('x') FROM T",
    "SELECT id FROM T WHERE a = 'x'",
    "SELECT -'x' FROM T",
    "SELECT a + NULL FROM T",
    "SELECT COUNT(*) FROM T WHERE NULL < 1",
    // The undecided arm of an `OR` under `NOT` meets a zero divisor.
    "SELECT COUNT(*) FROM T WHERE NOT (a < -10000 OR 1 / (a - a) > 0)",
];

const BATCH_SIZES: [usize; 2] = [7, 1024];
const DOPS: [usize; 4] = [1, 2, 4, 8];

fn run(s: &mut Session, sql: &str) -> std::result::Result<Vec<Vec<Value>>, String> {
    s.query(sql).map(|r| r.rows).map_err(|e| e.to_string())
}

/// Runs `sql` once on the serial row path and once per (batch, dop)
/// configuration, asserting bit-identity (or the same error text). Returns
/// the row path's answer.
fn assert_differential(s: &mut Session, sql: &str) -> std::result::Result<Vec<Vec<Value>>, String> {
    s.set_batch_rows(0);
    s.set_dop(1);
    let base = run(s, sql);
    for &batch in &BATCH_SIZES {
        for &dop in &DOPS {
            s.set_batch_rows(batch);
            s.set_dop(dop);
            let got = run(s, sql);
            match (&base, &got) {
                (Ok(want), Ok(have)) => assert!(
                    rows_bit_identical(want, have),
                    "batch={batch} dop={dop} diverged for {sql:?}:\nrow:   {want:?}\nbatch: {have:?}"
                ),
                (Err(want), Err(have)) => assert_eq!(
                    want, have,
                    "batch={batch} dop={dop} failed differently for {sql:?}"
                ),
                (w, h) => panic!(
                    "batch={batch} dop={dop} Ok/Err mismatch for {sql:?}:\nrow:   {w:?}\nbatch: {h:?}"
                ),
            }
        }
    }
    // Leave the session back on defaults for the next query.
    s.set_batch_rows(sqlarray_core::batch::DEFAULT_BATCH_ROWS);
    s.set_dop(1);
    base
}

#[test]
fn batch_matches_row_on_edge_case_table_sizes() {
    // Empty table, single row, exactly one default batch, one batch + 1.
    for (i, &rows) in [0i64, 1, 1024, 1025].iter().enumerate() {
        let mut s = build_session(rows, 0xBA7C4 + i as u64);
        // The error queries too: on the empty table both arms succeed
        // (nothing is evaluated), everywhere else both fail.
        for sql in QUERIES.iter().chain(ERROR_QUERIES) {
            let _ = assert_differential(&mut s, sql);
        }
    }
}

// --- Edge values: ties, 2⁵³, NaN, constants on either side ----------------

/// A table `E (id BIGINT, a BIGINT, b INT, c FLOAT, d REAL)`, one row per
/// `(a, b, c, d)`, keyed `0..`.
fn edge_session(rows: &[(i64, i32, f64, f32)]) -> Session {
    let mut db = Database::new();
    db.create_table(
        "E",
        Schema::new(&[
            ("id", ColType::I64),
            ("a", ColType::I64),
            ("b", ColType::I32),
            ("c", ColType::F64),
            ("d", ColType::F32),
        ]),
    )
    .unwrap();
    for (k, &(a, b, c, d)) in rows.iter().enumerate() {
        let k = k as i64;
        let row = [
            RowValue::I64(k),
            RowValue::I64(a),
            RowValue::I32(b),
            RowValue::F64(c),
            RowValue::F32(d),
        ];
        db.insert("E", k, &row).unwrap();
    }
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    s.set_var("nan", Value::F64(f64::NAN));
    s
}

/// `n` rows cycling through values that tie under the `f64` comparison:
/// `a` through `2⁵³ + 1, 2⁵³` (equal as `f64`), `c` through `0.0, -0.0`
/// (the minima) and `d` through `-0.0, 0.0` (the maxima).
fn edge_rows(n: usize) -> Vec<(i64, i32, f64, f32)> {
    (0..n)
        .map(|k| {
            let a = [P53 + 1, P53, -5, 3][k % 4];
            let c = [0.0, -0.0, 1.0, 0.5][k % 4];
            let d = [-0.0, 0.0, -1.0, -0.5][k % 4];
            (a, (k % 7) as i32 - 3, c, d)
        })
        .collect()
}

/// Statements where a typed fold or the fused comparison could drift from
/// the interpreter unnoticed by the main fixture: the first of equal
/// extremes must win (bit for bit, sign of zero included, and `2⁵³ + 1`
/// before `2⁵³`, which `f64` cannot tell apart), constants stand on either
/// side of a comparison, integer constants meet float and `INT` columns, and
/// NaN cells and a NaN variable raise the interpreter's error exactly where
/// it does.
const EDGE_QUERIES: &[&str] = &[
    "SELECT MIN(c), MAX(c), MIN(d), MAX(d), MIN(a), MAX(a) FROM E",
    "SELECT MIN(c), MAX(d), MIN(a), MAX(a) FROM E WHERE id > 0",
    "SELECT MIN(c), MAX(d), MAX(a) FROM E WHERE id > 500",
    "SELECT MIN(a), MAX(a), COUNT(*) FROM E WHERE a > 100",
    "SELECT id % 3, MIN(c), MAX(d), MIN(a), MAX(a) FROM E GROUP BY id % 3",
    "SELECT id, a FROM E WHERE a = 9007199254740993",
    "SELECT COUNT(*) FROM E WHERE a = 9007199254740992 AND 9007199254740993 = a",
    "SELECT id FROM E WHERE 0.5 < c",
    "SELECT COUNT(*) FROM E WHERE 1 >= b AND 0 > d",
    "SELECT COUNT(*) FROM E WHERE c > 0 OR d = 0 OR b <> 0",
    "SELECT COUNT(*) FROM E WHERE c = 1 AND NOT 0 <= d",
    "SELECT SUM(c), AVG(d), SUM(b), COUNT(a) FROM E WHERE -3 = b",
    "SELECT MIN(c), MAX(d) FROM E WHERE id <> 5",
    "SELECT COUNT(*) FROM E WHERE c > @nan",
    "SELECT COUNT(*) FROM E WHERE a > 100000000000000000 AND @nan < c",
];

#[test]
fn edge_values_fold_and_compare_like_the_interpreter() {
    let clean = edge_rows(1100);
    let mut nan_at_5 = clean.clone();
    (nan_at_5[5].2, nan_at_5[5].3) = (f64::NAN, f32::NAN);
    let lone_nan = [(1, 1, f64::NAN, f32::NAN)];
    for rows in [&clean[..], &nan_at_5[..], &lone_nan[..], &[][..]] {
        let mut s = edge_session(rows);
        for sql in EDGE_QUERIES {
            let _ = assert_differential(&mut s, sql);
        }
    }

    // Not vacuous: the row path's answers are the ones described above —
    // the first tied extreme, over the whole table and from row 1 on.
    let bits = |row: &[Value]| -> Vec<u64> {
        row.iter()
            .map(|v| match v {
                Value::F64(x) => x.to_bits(),
                Value::F32(x) => u64::from(x.to_bits()),
                Value::I64(x) => *x as u64,
                other => panic!("{other:?}"),
            })
            .collect()
    };
    let mut s = edge_session(&clean);
    let whole = assert_differential(&mut s, EDGE_QUERIES[0]).unwrap();
    let want = [0.0, 1.0].map(Value::F64).into_iter();
    let want = want.chain([-1.0, -0.0].map(Value::F32));
    let want: Vec<Value> = want.chain([-5, P53 + 1].map(Value::I64)).collect();
    assert_eq!(bits(&whole[0]), bits(&want), "{whole:?}");
    let later = assert_differential(&mut s, EDGE_QUERIES[1]).unwrap();
    let want = [
        Value::F64(-0.0),
        Value::F32(0.0),
        Value::I64(-5),
        Value::I64(P53),
    ];
    assert_eq!(bits(&later[0]), bits(&want), "{later:?}");
    let count = assert_differential(&mut s, EDGE_QUERIES[6]).unwrap();
    assert_eq!(count, [[Value::I64(550)]]);
    let nan = EngineError::Type("NaN comparison".into()).to_string();
    assert_eq!(
        assert_differential(&mut s, EDGE_QUERIES[13]),
        Err(nan.clone())
    );
    assert_eq!(
        assert_differential(&mut s, EDGE_QUERIES[14]).unwrap(),
        [[Value::I64(0)]]
    );
    let mut s = edge_session(&nan_at_5);
    for sql in [EDGE_QUERIES[0], EDGE_QUERIES[7]] {
        assert_eq!(assert_differential(&mut s, sql), Err(nan.clone()), "{sql}");
    }
    assert!(assert_differential(&mut s, EDGE_QUERIES[12]).is_ok());
    let mut s = edge_session(&lone_nan);
    let lone = assert_differential(&mut s, EDGE_QUERIES[0]).unwrap();
    assert!(
        matches!(lone[0][0], Value::F64(x) if x.is_nan()),
        "{lone:?}"
    );
}

/// `c` and `d` in three stretches of about a thousand rows, so a lane or an
/// extraction block meets each shape whole and the borders between them:
/// only subnormals, `±1e-300` and `±0.0` (no block can be split), then
/// `±1e300` among those (the remainders span the whole range), then values
/// near 1 with the tiny ones sprinkled in (small remainders past the second
/// column).
fn extreme_rows() -> Vec<(i64, i32, f64, f32)> {
    let tiny = [
        f64::from_bits(1),
        -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        1e-300,
        -1e-300,
        0.0,
        -0.0,
        f64::from_bits(0x8000_0000_0123_4567),
    ];
    let tiny_f32 = [
        f32::from_bits(1),
        -f32::from_bits(0x7F_FFFF),
        -0.0,
        0.0,
        1e-38,
    ];
    (0..3100)
        .map(|k| {
            let t = tiny[k % tiny.len()];
            let tf = tiny_f32[k % tiny_f32.len()];
            let (c, d) = match k / 1040 {
                0 => (t, tf),
                1 if k % 3 == 0 => ([1e300, -1e300][k % 2], [3e38, -3e38][k % 2]),
                1 => (t, tf),
                _ if k % 4 == 0 => (t, tf),
                _ => (
                    1.0 + k as f64 * 2f64.powi(-40),
                    1.0 - k as f32 * 2f32.powi(-20),
                ),
            };
            (k as i64, (k % 7) as i32 - 3, c, d)
        })
        .collect()
}

#[test]
fn sums_of_extreme_magnitudes_match_the_row_path_at_every_batch_and_dop() {
    const SUMS: &[&str] = &[
        "SELECT SUM(c), AVG(c), SUM(d), AVG(d) FROM E",
        "SELECT SUM(c), AVG(d), COUNT(*) FROM E WHERE id > 1000",
        "SELECT SUM(c), AVG(d) FROM E WHERE b <> 0",
        // Dynamic lanes: a scalar UDF hands back `Value`s.
        "SELECT SUM(FloatArray.Item_1(FloatArray.Vector(c), 0)), \
         AVG(FloatArray.Item_1(FloatArray.Vector(d), 0)) FROM E",
        "SELECT id % 3, SUM(c), AVG(d) FROM E GROUP BY id % 3",
    ];
    let rows = extreme_rows();
    let mut s = edge_session(&rows);
    for sql in SUMS {
        s.set_batch_rows(0);
        s.set_dop(1);
        let want = run(&mut s, sql).unwrap();
        for batch in [1, 7, 1024] {
            for dop in [1, 2, 4] {
                s.set_batch_rows(batch);
                s.set_dop(dop);
                let r = s.query(sql).unwrap();
                assert!(r.stats.batches > 0, "{sql:?} fell back to rows");
                assert!(
                    rows_bit_identical(&want, &r.rows),
                    "batch={batch} dop={dop} diverged for {sql:?}:\nrow:   {want:?}\nbatch: {:?}",
                    r.rows
                );
            }
        }
    }
    // Not vacuous: the row path's SUM(c) is the exact sum of the column.
    let mut exact = ExactSum::new();
    rows.iter().for_each(|r| exact.add(r.2));
    s.set_batch_rows(0);
    let whole = run(&mut s, SUMS[0]).unwrap();
    assert_eq!(whole[0][0], Value::F64(exact.value()));
    assert!(exact.value().is_finite() && exact.value() != 0.0);
}

// --- Typed group ids and typed call lanes ---------------------------------

/// A table `G (id BIGINT, k BIGINT, n INT, x FLOAT, r REAL)` of `rows` rows
/// whose keys a typed group index must tell apart exactly as the byte key
/// does: `k` cycles through the `i64` extremes, `n` through the `i32` ones,
/// `x` through `0.0`, `-0.0`, three NaNs of different bits and a value
/// that grows with `id`, `r` through `0.0` and `-0.0`. A key of each
/// column first appears late in the table (`id / 250`), so at DOP > 1 a
/// group opens in a later partition than its neighbours. Its engine
/// serves three more functions: `dbo.Half(a)` (`FLOAT`), `dbo.Whole(a)`
/// (`BIGINT`) and `dbo.Mixed(a)`, which answers `NULL`, a `BIGINT` or a
/// `FLOAT` by `a % 5`, so one batch of its results mixes all three.
fn typed_session(rows: i64) -> Session {
    let mut db = Database::new();
    db.create_table(
        "G",
        Schema::new(&[
            ("id", ColType::I64),
            ("k", ColType::I64),
            ("n", ColType::I32),
            ("x", ColType::F64),
            ("r", ColType::F32),
        ]),
    )
    .unwrap();
    let late = |id: i64| id / 250;
    for id in 0..rows {
        let k = [i64::MIN, i64::MAX, -1, 0, late(id), i64::MIN + 1][(id % 6) as usize];
        let n = [i32::MIN, i32::MAX, late(id) as i32, -7][(id % 4) as usize];
        let x = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            1.5,
            late(id) as f64 + 0.25,
        ][(id % 7) as usize];
        let r = [0.0, -0.0, 2.5, -2.5, late(id) as f32][(id % 5) as usize];
        let row = [
            RowValue::I64(id),
            RowValue::I64(k),
            RowValue::I32(n),
            RowValue::F64(x),
            RowValue::F32(r),
        ];
        db.insert("G", id, &row).unwrap();
    }
    let (mut udfs, udas) = Engine::standard_registries();
    udfs.register("dbo.Half", Some(1..=1), |a| {
        Ok(Value::F64(a[0].as_f64()? / 2.0))
    });
    udfs.register("dbo.Whole", Some(1..=1), |a| Ok(Value::I64(a[0].as_i64()?)));
    udfs.register("dbo.Mixed", Some(1..=1), |a| {
        let v = a[0].as_i64()?;
        Ok(match v.rem_euclid(5) {
            0 => Value::Null,
            1 | 3 => Value::I64(v),
            _ => Value::F64(v as f64 / 4.0),
        })
    });
    let engine = Engine::with_registries(db, Settings::from_env(), udfs, udas);
    engine.session_with_hosting(HostingModel::free())
}

/// Statements over [`typed_session`]'s `G`: each GROUP BY key type through
/// the typed index (`FLOAT` with its zeros and NaNs, `REAL`, the `BIGINT`
/// and `INT` extremes, an `INT` column widened to `BIGINT`, a `BIT`
/// comparison, call results), the byte key beside them, MIN/MAX ties and
/// NaN errors inside a group, and call lanes that stay typed (`dbo.Half`,
/// `dbo.Whole`) or demote to dynamic values (`dbo.Mixed`).
const TYPED_QUERIES: &[&str] = &[
    "SELECT x, COUNT(*), SUM(k % 1000), MIN(r), MAX(r), MIN(n), MAX(n) FROM G GROUP BY x",
    "SELECT r, COUNT(*), MIN(k), MAX(k), AVG(n) FROM G GROUP BY r",
    "SELECT k, COUNT(*), MIN(r), MAX(r), SUM(n) FROM G GROUP BY k",
    "SELECT n, COUNT(*), MIN(k), MAX(id) FROM G GROUP BY n",
    "SELECT n + 0, COUNT(*), MIN(k) FROM G GROUP BY n + 0",
    "SELECT id % 3 = 0, COUNT(*), MAX(r), MIN(x * 0.0) FROM G WHERE id % 7 < 2 GROUP BY id % 3 = 0",
    "SELECT k, x, COUNT(*) FROM G GROUP BY k, x",
    "SELECT id % 3, MIN(r), MAX(r), MIN(x), MAX(x) FROM G WHERE id % 7 < 2 GROUP BY id % 3",
    "SELECT n, MAX(x) FROM G GROUP BY n",
    "SELECT id % 2, MIN(x) FROM G WHERE id % 7 = 2 OR id % 7 = 4 GROUP BY id % 2",
    "SELECT id % 4, COUNT(*) FROM G WHERE x = 0.0 GROUP BY id % 4",
    "SELECT SUM(dbo.Mixed(id)), COUNT(dbo.Mixed(id)), MIN(dbo.Mixed(id)), MAX(dbo.Mixed(id)) FROM G",
    "SELECT id % 4, SUM(dbo.Mixed(id)), MIN(dbo.Half(id)), MAX(dbo.Whole(id)), COUNT(*) \
     FROM G GROUP BY id % 4",
    "SELECT dbo.Mixed(id % 10), COUNT(*), SUM(k % 7) FROM G GROUP BY dbo.Mixed(id % 10)",
    "SELECT dbo.Half(id % 6), dbo.Whole(n % 3), COUNT(*) FROM G \
     GROUP BY dbo.Half(id % 6), dbo.Whole(n % 3)",
    "SELECT SUM(FloatArray.Item_1(FloatArray.Vector(dbo.Half(id)), 0)), MAX(dbo.Whole(id)) FROM G",
    "SELECT id, -dbo.Mixed(id), dbo.Half(id) + 1 FROM G WHERE id % 5 <> 0 AND id % 13 = 1",
    "SELECT -dbo.Mixed(id) FROM G WHERE id % 13 = 0",
    "SELECT COUNT(*) FROM G WHERE dbo.Half(id) > 100.0 AND dbo.Whole(n) < 0",
];

/// Statements over the main fixture's `m`, a max-class array held in row
/// on most rows and out of row on every 97th: the same call over an
/// inline cell and over a LOB, folded by group and grouped on.
const LOB_CALL_QUERIES: &[&str] = &[
    "SELECT id % 3, SUM(FloatArrayMax.Sum(m)), MIN(FloatArrayMax.Item_1(m, 1)), \
     COUNT(FloatArrayMax.Count(m)) FROM T GROUP BY id % 3",
    "SELECT FloatArrayMax.Count(m), SUM(FloatArrayMax.Norm2(m)), COUNT(*) FROM T \
     GROUP BY FloatArrayMax.Count(m)",
    "SELECT SUM(FloatArrayMax.Item_1(m, 0)), MAX(FloatArrayMax.Item_1(m, 3)) FROM T",
];

/// What [`cold_outcome`] reports.
type ColdOutcome = (
    std::result::Result<Vec<Vec<Value>>, String>,
    Option<(u64, sqlarray::storage::IoStats)>,
);

/// One statement from a cold pool: its rows or error text, and, when it
/// succeeded, its managed calls and I/O counters (a failed statement
/// stops where its path met the error, which a batch meets a batch late).
fn cold_outcome(s: &mut Session, sql: &str, batch: usize, dop: usize) -> ColdOutcome {
    s.set_batch_rows(batch);
    s.set_dop(dop);
    s.db().store.clear_cache();
    match s.query(sql) {
        Ok(r) => (Ok(r.rows), Some((r.stats.udf_calls, r.stats.io))),
        Err(e) => (Err(e.to_string()), None),
    }
}

/// [`assert_differential`] from a cold pool at batch {1, 7, 1024} × DOP
/// {1, 2, 4, 8}: rows bit for bit and error text as the serial row path
/// left them, `udf_calls` and `IoStats` as the row path at the same DOP
/// did (each partition evaluates a grouped statement's non-aggregate items
/// that are not `GROUP BY` keys once per group it opens, so their calls
/// count per partition). Returns the serial row path's answer.
fn assert_cold_differential(
    s: &mut Session,
    sql: &str,
) -> std::result::Result<Vec<Vec<Value>>, String> {
    let (want, _) = cold_outcome(s, sql, 0, 1);
    for dop in DOPS {
        let (_, counters) = cold_outcome(s, sql, 0, dop);
        for batch in [1, 7, 1024] {
            let (got, got_counters) = cold_outcome(s, sql, batch, dop);
            match (&want, &got) {
                (Ok(w), Ok(h)) => assert!(
                    rows_bit_identical(w, h),
                    "batch={batch} dop={dop} diverged for {sql:?}:\nrow:   {w:?}\nbatch: {h:?}"
                ),
                _ => assert_eq!(want, got, "batch={batch} dop={dop}: {sql:?}"),
            }
            assert_eq!(
                counters, got_counters,
                "batch={batch} dop={dop}: udf_calls and I/O for {sql:?}"
            );
        }
    }
    s.set_batch_rows(sqlarray_core::batch::DEFAULT_BATCH_ROWS);
    s.set_dop(1);
    want
}

/// A select item that repeats a `GROUP BY` key takes the key's value and
/// is never evaluated: the key's call runs once per row — 1 500 calls —
/// at every DOP, on both paths, with the same rows.
#[test]
fn a_select_item_that_is_a_group_key_costs_no_call() {
    let mut s = typed_session(1500);
    let sql = "SELECT dbo.Mixed(id % 10), COUNT(*) FROM G GROUP BY dbo.Mixed(id % 10)";
    let (want, _) = cold_outcome(&mut s, sql, 0, 1);
    assert_eq!(want.as_ref().map(Vec::len), Ok(9), "{want:?}");
    for dop in DOPS {
        for batch in [0, 1024] {
            let (got, counters) = cold_outcome(&mut s, sql, batch, dop);
            let (w, g) = (want.as_ref().unwrap(), got.unwrap());
            assert!(rows_bit_identical(w, &g), "batch={batch} dop={dop}: {g:?}");
            let calls = counters.map(|(calls, _)| calls);
            assert_eq!(calls, Some(1500), "batch={batch} dop={dop}");
        }
    }
}

#[test]
fn typed_group_ids_and_call_lanes_match_the_row_path() {
    let mut s = typed_session(1500);
    let answers: Vec<_> = TYPED_QUERIES
        .iter()
        .map(|sql| assert_cold_differential(&mut s, sql))
        .collect();
    // Not vacuous: the float keys split as their bits do — `0.0` and
    // `-0.0` apart, each NaN pattern its own group (`-NaN` and the payload
    // NaN apart from `NaN`) — every extreme of `k` is a group, and the
    // groups come out in first-appearance order.
    let by_x = answers[0].as_ref().unwrap();
    let x_bits: Vec<u64> = by_x
        .iter()
        .map(|r| match r[0] {
            Value::F64(x) => x.to_bits(),
            ref other => panic!("{other:?}"),
        })
        .collect();
    let want = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001),
        1.5,
        0.25,
    ];
    assert_eq!(x_bits[..7], want.map(f64::to_bits), "{by_x:?}");
    let by_k = answers[2].as_ref().unwrap();
    for extreme in [i64::MIN, i64::MAX, i64::MIN + 1] {
        assert!(by_k.iter().any(|r| r[0] == Value::I64(extreme)), "{by_k:?}");
    }
    // `n` groups keep the `INT` lane's type; `n + 0` is `BIGINT`.
    assert_eq!(answers[3].as_ref().unwrap()[0][0], Value::I32(i32::MIN));
    assert_eq!(
        answers[4].as_ref().unwrap()[0][0],
        Value::I64(i32::MIN as i64)
    );
    // Ties: the first of `0.0`/`-0.0` wins, in scan order, per group.
    let ties = answers[7].as_ref().unwrap();
    assert!(
        matches!(ties[0][3], Value::F64(z) if z.to_bits() == 0),
        "{ties:?}"
    );
    // A NaN meets another value inside a group: the interpreter's error.
    let nan = EngineError::Type("NaN comparison".into()).to_string();
    assert_eq!(answers[8], Err(nan.clone()));
    assert_eq!(answers[9], Err(nan));
    // `dbo.Mixed` answers NULL, BIGINT and FLOAT in one batch: the NULLs
    // are skipped and the rest summed exactly.
    let mixed = answers[11].as_ref().unwrap();
    assert_eq!(mixed[0][1], Value::I64(1500 - 300));
    // Negating NULL is the interpreter's error, raised by both paths.
    assert!(
        answers[17].as_ref().unwrap_err().contains("negate"),
        "{:?}",
        answers[17]
    );

    let mut s = build_session(400, 0x10B5);
    for sql in LOB_CALL_QUERIES {
        let rows = assert_cold_differential(&mut s, sql).unwrap();
        assert!(!rows.is_empty(), "{sql}");
    }
}

#[test]
fn error_queries_fail_on_both_paths() {
    let mut s = build_session(100, 0xE44);
    for sql in ERROR_QUERIES {
        s.set_batch_rows(0);
        s.set_dop(1);
        assert!(run(&mut s, sql).is_err(), "row path accepted {sql:?}");
        for &batch in &BATCH_SIZES {
            for &dop in &DOPS {
                s.set_batch_rows(batch);
                s.set_dop(dop);
                assert!(
                    run(&mut s, sql).is_err(),
                    "batch={batch} dop={dop} accepted {sql:?}"
                );
            }
        }
    }
}

#[test]
fn batch_stats_reflect_the_active_path() {
    let mut s = build_session(1025, 0x57A75);

    // Default configuration: the batch path is on and reports fills.
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert!(r.stats.batches > 0, "batch path did not engage");
    assert!(
        r.stats.batch_fill > 0.0 && r.stats.batch_fill <= 1024.0,
        "implausible batch_fill {}",
        r.stats.batch_fill
    );

    // Disabled: everything runs row-at-a-time.
    s.set_batch_rows(0);
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.stats.batches, 0);
    assert_eq!(r.stats.batch_fill, 0.0);
    s.set_batch_rows(1024);

    // GROUP BY and UDF calls compile: batches flow, nothing falls back.
    for sql in [
        "SELECT id % 4, COUNT(*) FROM T GROUP BY id % 4",
        "SELECT SUM(FloatArray.Item_1(w, 0)) FROM T",
        "SELECT id % 4, SUM(FloatArray.Item_1(w, 1)) FROM T WHERE a > 0 GROUP BY id % 4",
        "SELECT id % 4, SUM(c) FROM T WHERE FloatArray.Max(w) > 0.0 GROUP BY id % 4",
        "SELECT COUNT(*) FROM T GROUP BY v",
        // A string constant is a dynamic lane, not a fallback (the sweep
        // over `QUERIES` holds it bit-identical to the interpreter).
        "SELECT COUNT(*) FROM T WHERE FloatArray.ToString(w) = 'x'",
    ] {
        let r = s.query(sql).unwrap();
        assert!(r.stats.batches > 0, "{sql:?} fell back to rows");
        assert_eq!(r.stats.fallback, None, "{sql:?}");
    }

    // What does fall back says why, typed.
    let fallbacks = [
        (
            "SELECT id % 2, FloatArray.VectorAvg(w) FROM T GROUP BY id % 2",
            Fallback::Uda("FloatArray.VectorAvg".into()),
        ),
        (
            "SELECT id FROM T WHERE a > @gone",
            Fallback::MissingVar("gone".into()),
        ),
        (
            "SELECT COUNT(*) FROM T WHERE v = v",
            Fallback::BlobInScalarExpr,
        ),
        ("SELECT -(a > 0) FROM T WHERE id < 0", Fallback::NegBool),
        (
            "SELECT FloatArrayMax.Item_1(m, 0), v FROM T WHERE id % 97 < 5",
            Fallback::MultipleLobSites,
        ),
    ];
    for (sql, why) in fallbacks {
        // A missing variable fails the scan; its reason rides on the
        // partial stats instead.
        let stats = match s.query(sql) {
            Ok(r) => r.stats,
            Err(_) => s.partial_stats().expect("the scan started").clone(),
        };
        assert_eq!(stats.batches, 0, "{sql:?} must fall back to rows");
        assert_eq!(stats.fallback, Some(why), "{sql:?}");
    }
    s.set_batch_rows(0);
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.stats.fallback, Some(Fallback::BatchDisabled));
}

/// `i64::MIN / -1`, `i64::MIN % -1` and `-i64::MIN` are the three integer
/// operations whose true result does not fit: both expression
/// evaluators wrap them (the rule Add/Sub/Mul follow), so every route to
/// the operator — a FROM-less SELECT, the row scan, the batch scan, an
/// `UPDATE … SET` expression — returns the same value at every DOP, and
/// none of them panics or reports `WorkerPanicked`.
#[test]
fn integer_overflow_wraps_identically_on_every_path() {
    const MIN: &str = "(0 - 9223372036854775807 - 1)";
    let shapes = [
        ("{min} / ({zero} - 1)", i64::MIN),
        ("{min} % ({zero} - 1)", 0),
        ("-{min}", i64::MIN),
    ];
    let mut s = build_session(300, 0x0F10);
    for (shape, want) in shapes {
        let want = Value::I64(want);
        // No scan at all: nothing would catch a panic here.
        let constant = shape.replace("{min}", MIN).replace("{zero}", "0");
        assert_eq!(
            s.query_scalar(&format!("SELECT {constant}")).unwrap(),
            want,
            "FROM-less {constant}"
        );
        s.execute("DECLARE @x BIGINT").unwrap();
        s.execute(&format!("SET @x = {constant}")).unwrap();
        assert_eq!(s.var("x"), Some(&want), "SET @x = {constant}");

        // Over columns, so neither planner can fold it away.
        let per_row = shape
            .replace("{min}", &format!("(a - a + {MIN})"))
            .replace("{zero}", "(id - id)");
        for dop in [1usize, 4] {
            s.set_dop(dop);
            for batch in [0usize, 1024] {
                s.set_batch_rows(batch);
                let r = s
                    .query(&format!("SELECT {per_row} FROM T WHERE id < 200"))
                    .unwrap_or_else(|e| panic!("{per_row} dop {dop} batch {batch}: {e}"));
                assert_eq!(r.stats.batches > 0, batch > 0, "wrong path: {per_row}");
                assert_eq!(r.rows.len(), 200);
                assert!(
                    r.rows.iter().all(|row| row == std::slice::from_ref(&want)),
                    "{per_row} dop {dop} batch {batch}: {:?}",
                    r.rows[0]
                );
            }
            // The DML match phase evaluates SET expressions through the
            // same scan job, under the same panic boundary.
            s.execute(&format!("UPDATE T SET a = {per_row} WHERE id >= 100"))
                .unwrap_or_else(|e| panic!("UPDATE SET a = {per_row} dop {dop}: {e}"));
            let changed = s
                .query("SELECT MIN(a), MAX(a), COUNT(*) FROM T WHERE id >= 100")
                .unwrap();
            assert_eq!(
                changed.rows,
                [[want.clone(), want.clone(), Value::I64(200)]],
                "UPDATE SET a = {per_row} dop {dop}"
            );
        }
    }
    // The 32-bit negation: only a bare INT column is an `I32` operand
    // (arithmetic widens), so store the one value that overflows it.
    s.execute("UPDATE T SET b = 0 - 2147483647 - 1 WHERE id < 3")
        .unwrap();
    for batch in [0usize, 1024] {
        s.set_batch_rows(batch);
        let r = s.query("SELECT -b FROM T WHERE id < 3").unwrap();
        assert_eq!(r.rows, vec![vec![Value::I32(i32::MIN)]; 3], "batch {batch}");
    }
}

/// The statements the retired `batch_pipeline` and `udf_overhead` benches
/// checked before timing, over the same Table 1 fixture: the two
/// vectorization showcase queries, Q4, Q5 and the grouped `Item_1`
/// statement agree bit for bit between the row interpreter and 1 K / 4 K
/// batches at every DOP, the batch plan engages with no typed fallback,
/// and both paths make the same number of managed calls.
#[test]
fn table1_and_showcase_statements_match_on_both_paths() {
    use sqlarray_bench::{build_table1_db_with, BATCH_QUERIES, TABLE1_QUERIES};
    let grouped_item =
        "SELECT id % 4, SUM(floatarray.Item_1(v, 1)) FROM Tvector WITH (NOLOCK) GROUP BY id % 4";
    let statements = BATCH_QUERIES.iter().map(|(_, sql)| *sql).chain([
        TABLE1_QUERIES[3],
        TABLE1_QUERIES[4],
        grouped_item,
    ]);
    // 5 000 rows: one full 4 096-row batch and a partial one.
    let mut s = build_table1_db_with(5_000, HostingModel::free());
    for sql in statements {
        s.set_batch_rows(0);
        s.set_dop(1);
        let row = s.query(sql).unwrap();
        assert_eq!(row.stats.fallback, Some(Fallback::BatchDisabled), "{sql}");
        assert_eq!(row.stats.batches, 0, "{sql}");
        for batch in [1024usize, 4096] {
            s.set_batch_rows(batch);
            for &dop in &DOPS {
                s.set_dop(dop);
                let got = s.query(sql).unwrap();
                assert_eq!(got.stats.fallback, None, "{sql} fell back to rows");
                assert!(
                    rows_bit_identical(&row.rows, &got.rows),
                    "batch={batch} dop={dop} diverged from the row path: {sql}"
                );
                assert_eq!(
                    got.stats.udf_calls, row.stats.udf_calls,
                    "batch={batch} dop={dop}: {sql}"
                );
            }
        }
    }
}

/// A `TOP k` projection stops evaluating WHERE at the k-th match, like
/// the interpreter: no call, hosting charge or error happens on a later
/// row.
#[test]
fn top_k_with_a_udf_filter_never_calls_past_the_kth_match() {
    let mut s = build_session(1025, 0x70B);
    // `w` has four elements, so `Item_1(w, id)` is out of bounds from
    // row 4 on; the third match is row 2.
    let oob_after_limit = "SELECT TOP 3 id FROM T WHERE FloatArray.Item_1(w, id) > -1000.0";
    for batch in [0usize, 1, 7, 1024] {
        s.set_batch_rows(batch);
        s.set_dop(1);
        let r = s.query(oob_after_limit).unwrap();
        assert_eq!(r.stats.batches > 0, batch > 0);
        let ids: Vec<Value> = r.rows.into_iter().flatten().collect();
        assert_eq!(ids, [Value::I64(0), Value::I64(1), Value::I64(2)]);
        assert_eq!(r.stats.udf_calls, 3, "batch {batch}");
        // A call-free filter too: rows 0, 1 and 3 are the three, row 5
        // would divide by zero.
        let r = s
            .query("SELECT TOP 3 id FROM T WHERE NOT id = 2 AND 10 / (id - 5) < 0")
            .unwrap();
        let ids: Vec<Value> = r.rows.into_iter().flatten().collect();
        assert_eq!(ids, [Value::I64(0), Value::I64(1), Value::I64(3)]);
    }
    // A selective filter: the managed-call count equals the row path's
    // at every DOP (each worker stops at its own k-th match on both).
    let selective = "SELECT TOP 5 id FROM T WHERE FloatArray.Item_1(w, 1) > 80.0 AND a > 0";
    for &dop in &DOPS {
        s.set_dop(dop);
        s.set_batch_rows(0);
        let want = s.query(selective).unwrap();
        assert!(want.stats.udf_calls > 5, "filter is not selective");
        for batch in [1usize, 7, 1024] {
            s.set_batch_rows(batch);
            let got = s.query(selective).unwrap();
            assert!(got.stats.batches > 0);
            assert_eq!(got.rows, want.rows, "batch {batch} dop {dop}");
            assert_eq!(
                got.stats.udf_calls, want.stats.udf_calls,
                "batch {batch} dop {dop}"
            );
        }
    }
}

#[test]
fn top_cuts_finished_group_rows() {
    let mut s = build_session(100, 0x70B);
    for (sql, want) in TOP_AGGREGATES {
        assert_eq!(s.query(sql).unwrap().rows.len(), want, "{sql}");
    }
}

// --- UPDATE / DELETE: the match phase is the same scan job ----------------

/// A session over the fixture with the variables the DML lists name.
fn dml_session(rows: i64, seed: u64) -> Session {
    with_dml_vars(build_session(rows, seed))
}

fn with_dml_vars(mut s: Session) -> Session {
    let patch = short_vector(&[1.0, 2.0, 3.0, 4.0]).unwrap().into_blob();
    s.set_var("bytes_var", Value::Bytes(patch));
    s
}

/// Statements the sweep runs on fresh copies of the 300-row fixture, each
/// with the reason its match phase runs the interpreter at a non-zero
/// batch size (`None`: it compiles). LOB rows are `id % 97 = 3`.
const DML_STATEMENTS: &[(&str, Option<Fallback>)] = &[
    // Typed conversion errors of the apply phase
    // ([`DML_CONVERSION_ERRORS`]): nothing may change.
    (DML_CONVERSION_ERRORS[0], None),
    (DML_CONVERSION_ERRORS[1], None),
    // A scalar by key and by range.
    ("UPDATE T SET a = a + 1 WHERE id = 5", None),
    (
        "UPDATE T SET c = c * 2.0, b = b - 1 WHERE id >= 10 AND id < 140",
        None,
    ),
    // The paper's write statement: a bare bytes variable.
    ("UPDATE T SET w = @bytes_var WHERE id % 9 = 0", None),
    // UDF-valued SET; UDFs in WHERE on either side of AND / OR.
    (
        "UPDATE T SET c = FloatArray.Item_1(w, 1) WHERE id % 4 = 1",
        None,
    ),
    (
        "UPDATE T SET a = 0 WHERE FloatArray.Item_1(w, 0) > 0.5 AND b > 0",
        None,
    ),
    (
        "DELETE FROM T WHERE b < -900 OR FloatArrayMax.Item_1(m, 1) > 25.0",
        None,
    ),
    // The row's own chain, another column's chain (one LOB site), and two
    // LOB sites (the interpreter, on every arm).
    ("UPDATE T SET m = m WHERE id % 97 = 3 OR id % 10 = 0", None),
    ("UPDATE T SET w = m WHERE id % 97 < 5", None),
    (
        "UPDATE T SET v = m, w = v WHERE id % 97 < 5",
        Some(Fallback::MultipleLobSites),
    ),
    // `ArrayUpdate`: patched in place on the out-of-row arrays, through
    // the UDF fallback on the in-row ones.
    (
        "UPDATE T SET m = FloatArrayMax.ArrayUpdate(m, IntArray.Vector_1(2), \
         FloatArrayMax.Vector_2(7.0, 8.0)) WHERE id % 97 = 3",
        None,
    ),
    (
        "UPDATE T SET m = FloatArrayMax.ArrayUpdate(m, IntArray.Vector_1(a - a + 1), \
         FloatArrayMax.Vector_2(7.0, 8.0)), a = 1 WHERE id % 97 < 6",
        None,
    ),
    // Strict predicates through the fused comparisons: an `AND` of two,
    // and a constant on the left under `OR`/`NOT`.
    ("DELETE FROM T WHERE c > 0 AND a < 0", None),
    ("UPDATE T SET b = b + 1 WHERE 0.5 < c OR NOT -100 < a", None),
    // A range DELETE, and one matching nothing.
    ("DELETE FROM T WHERE id >= 20 AND id < 160", None),
    ("DELETE FROM T WHERE a > 100000", None),
    ("DELETE FROM T", None),
];

/// The members of [`DML_STATEMENTS`] that must fail: every row matches
/// and evaluates, the conversion to the column type rejects the value.
const DML_CONVERSION_ERRORS: [&str; 2] = [
    "UPDATE T SET b = NULL WHERE id < 3",
    "UPDATE T SET w = 'text' WHERE id >= 100",
];
const DML_BATCH_SIZES: [usize; 3] = [0, 7, 1024];
const ALL_COLUMNS: &str = "SELECT id, a, b, c, d, v, w, m FROM T";

/// Everything one statement leaves behind.
struct DmlTrace {
    /// `rows_affected`, or the error text.
    outcome: std::result::Result<u64, String>,
    /// The rows a SELECT returned.
    rows: Vec<Vec<Value>>,
    access: Access,
    rows_scanned: u64,
    udf_calls: u64,
    io: sqlarray::storage::IoStats,
    sim_io_bits: u64,
    seek: Option<sqlarray::storage::PageId>,
    pool_mru: Vec<sqlarray::storage::PageId>,
    image: sqlarray::storage::DiskImage,
    table: Vec<Vec<Value>>,
}

/// Runs `sql` on a fresh copy of the 300-row fixture from a cold pool and
/// checks that the executor `fallback` predicts ran its match phase.
fn dml_trace(sql: &str, fallback: &Option<Fallback>, batch: usize, dop: usize) -> DmlTrace {
    trace_on(dml_session(300, 0xD31), sql, fallback, batch, dop)
}

/// [`dml_trace`] on a session the caller built (`s`, fresh): any one
/// statement, SELECT included.
fn trace_on(
    mut s: Session,
    sql: &str,
    fallback: &Option<Fallback>,
    batch: usize,
    dop: usize,
) -> DmlTrace {
    s.set_batch_rows(batch);
    s.set_dop(dop);
    s.db().store.clear_cache();
    let outcome = s.execute(sql).map(|mut r| r.remove(0));
    let stats = match &outcome {
        Ok(r) => r.stats.clone(),
        Err(_) => s.partial_stats().expect("the scan started").clone(),
    };
    let want = match batch {
        0 => Some(Fallback::BatchDisabled),
        _ => fallback.clone(),
    };
    assert_eq!(stats.fallback, want, "batch {batch} dop {dop}: {sql}");
    // Vectorized: whatever rows the scan visited arrived in batches.
    let batched = want.is_none() && stats.rows_scanned > 0;
    assert_eq!(stats.batches > 0, batched, "batch {batch}: {sql}");
    let (seek, pool_mru, image) = {
        let db = s.db();
        let store = &db.store;
        (
            store.seek_position(),
            store.pool().keys_mru_order(),
            store.crash_image(),
        )
    };
    DmlTrace {
        rows: outcome.as_ref().map_or(Vec::new(), |r| r.rows.clone()),
        outcome: outcome
            .map(|r| r.stats.rows_affected)
            .map_err(|e| e.to_string()),
        access: stats.access,
        rows_scanned: stats.rows_scanned,
        udf_calls: stats.udf_calls,
        io: stats.io,
        sim_io_bits: stats.sim_io_seconds.to_bits(),
        seek,
        pool_mru,
        image,
        table: s.query(ALL_COLUMNS).unwrap().rows,
    }
}

#[test]
fn dml_is_bit_identical_on_the_batch_and_row_paths() {
    for (sql, fallback) in DML_STATEMENTS {
        let serial = dml_trace(sql, fallback, 0, 1);
        // Not a vacuous sweep: the listed errors fail, the rest change rows.
        let fails = DML_CONVERSION_ERRORS.contains(sql);
        assert_eq!(
            serial.outcome.is_err(),
            fails,
            "{sql}: {:?}",
            serial.outcome
        );
        assert!(
            fails || serial.outcome != Ok(0) || sql.contains("100000"),
            "{sql} matched nothing"
        );
        assert!(serial.io.pages_read > 0, "{sql}: the pool was not cold");
        for dop in DOPS {
            for batch in DML_BATCH_SIZES {
                let got = dml_trace(sql, fallback, batch, dop);
                // Field by field, by name: a disk image makes a poor panic
                // message.
                macro_rules! same {
                    ($($field:ident),*) => {$(assert!(
                        got.$field == serial.$field,
                        "{} differs at batch {batch} dop {dop}: {sql}",
                        stringify!($field)
                    );)*};
                }
                same!(outcome, udf_calls, io, sim_io_bits, seek, pool_mru, image);
                assert!(
                    rows_bit_identical(&got.table, &serial.table),
                    "table contents differ at batch {batch} dop {dop}: {sql}"
                );
            }
        }
    }
}

// --- Keyed access paths: a seek is the full scan minus what it skips -------

/// 2⁵³: from here on `f64` — which every comparison goes through — no
/// longer tells neighbouring keys apart.
const P53: i64 = 1 << 53;

/// The 300-row fixture with its even keys inserted before its odd ones,
/// so every leaf was split by row-by-row inserts.
fn keyed_session() -> Session {
    let keys = (0..300).step_by(2).chain((1..300).step_by(2));
    let mut s = with_dml_vars(build_session_in(keys, 0x5EE4));
    s.set_var("v", Value::I64(141));
    s
}

/// The first key of every leaf of `T`, in chain order.
fn leaf_first_keys(s: &Session) -> Vec<i64> {
    let db = s.db();
    let table = db.table("T").unwrap();
    let every_key = i64::MIN..=i64::MAX;
    let leaves = table.partition_keys(&db.store, usize::MAX, every_key);
    let scan = db.store.begin_scan();
    let mut firsts = Vec::new();
    for (i, leaf) in leaves.unwrap().iter().enumerate() {
        let mut reader = db.store.reader(&scan, i as u32);
        table
            .scan_partition(&mut reader, leaf, |_, key, _| {
                firsts.push(key);
                Ok(false)
            })
            .unwrap();
    }
    firsts
}

/// The same statement with its WHERE spelled so that no key interval can
/// be extracted: every `id` becomes `(id + 0)`. Wrapping `+ 0` is the
/// identity, so it selects the same rows — by a full scan. This is the
/// differential oracle; there is no switch that turns seeks off.
fn unextractable(sql: &str) -> String {
    let (head, predicate) = sql.split_once(" WHERE ").expect("a WHERE clause");
    let words: Vec<&str> = predicate.split(' ').collect();
    let spelled: Vec<String> = words
        .iter()
        .map(|w| match w.trim_start_matches('(') {
            "id" => w.replace("id", "(id + 0)"),
            _ => w.to_string(),
        })
        .collect();
    format!("{head} WHERE {}", spelled.join(" "))
}

/// Statements over [`keyed_session`] with the access path each must
/// report: predicates on the clustered key under SELECT, UPDATE and DELETE,
/// then the shapes only a SELECT has and the cases that pin each rule of
/// `KeyRange::of` (a case whose expectation is `Full` *is* its own oracle;
/// it still runs against its `(id + 0)` spelling).
fn keyed_statements(boundary: i64) -> Vec<(String, Access)> {
    use Access::{Full, Range, Seek};
    let below = boundary - 1;
    let predicates = [
        ("id = 5".to_string(), Seek),
        ("141 = id".to_string(), Seek),
        ("id = @v".to_string(), Seek),
        // First and last key of the table, a key past either end, a LOB row.
        ("id = 0".to_string(), Seek),
        ("id = 299".to_string(), Seek),
        ("id = 1000".to_string(), Seek),
        ("id = -4".to_string(), Seek),
        ("id = 100".to_string(), Seek),
        // Either side of a leaf boundary, and a range across it.
        (format!("id = {below}"), Seek),
        (format!("id = {boundary}"), Seek),
        (format!("id >= {below} AND {boundary} >= id"), Range),
        ("id >= 40 AND id < 180".to_string(), Range),
        // The `dml_mix` DELETE, open-ended and empty intervals.
        ("id % 2 = 1 AND id >= 40 AND id < 180".to_string(), Range),
        ("id <= 20".to_string(), Range),
        ("id > -@v AND id > 280".to_string(), Range),
        ("id > 180 AND id < 40".to_string(), Range),
        // Calls right of the key conjuncts run on the rows they admit.
        (
            "id >= 90 AND id < 110 AND FloatArray.Item_1(w, 0) > 0.5".to_string(),
            Range,
        ),
    ];
    let mut statements = Vec::new();
    for (p, access) in predicates {
        statements.push((format!("SELECT id, a, c FROM T WHERE {p}"), access));
        let set = "a = a + 1, w = @bytes_var";
        statements.push((format!("UPDATE T SET {set} WHERE {p}"), access));
        statements.push((format!("DELETE FROM T WHERE {p}"), access));
    }
    for (sql, access) in [
        (
            "SELECT TOP 7 id, c FROM T WHERE id >= 40 AND id < 180",
            Range,
        ),
        (
            "SELECT id % 4, COUNT(*), SUM(c) FROM T WHERE id >= 40 AND id < 180 GROUP BY id % 4",
            Range,
        ),
        // A global aggregate still returns its one row over no rows.
        (
            "SELECT COUNT(*), SUM(c), MIN(id) FROM T WHERE id > 180 AND id < 40",
            Range,
        ),
        ("SELECT COUNT(*), MAX(a) FROM T WHERE id = 5", Seek),
        // In-row and out-of-row blobs (row 100 is a LOB row), whole and
        // through the pushdown.
        ("SELECT id, v FROM T WHERE id >= 95 AND id <= 105", Range),
        (
            "SELECT FloatArrayMax.Item_1(m, 3) FROM T WHERE id = 100",
            Seek,
        ),
        // Error visibility: row 7 divides by zero. Left of the key
        // conjunct it must still raise, so nothing may be skipped; right
        // of it, row 7 was never a candidate.
        ("SELECT id FROM T WHERE id = 1 AND 10 / (id - 7) < 0", Seek),
        ("SELECT id FROM T WHERE 10 / (id - 7) < 0 AND id = 1", Full),
        ("DELETE FROM T WHERE id = 1 AND 10 / (id - 7) < 0", Seek),
        ("DELETE FROM T WHERE 10 / (id - 7) < 0 AND id = 1", Full),
        // A call or a float column left of the key conjunct: its calls,
        // charges and possible errors on other rows are observable.
        (
            "SELECT id FROM T WHERE FloatArray.Item_1(w, 0) > -1000.0 AND id = 5",
            Full,
        ),
        (
            "UPDATE T SET a = 0 WHERE FloatArray.Item_1(w, 0) > -1000.0 AND id = 5",
            Full,
        ),
        ("SELECT id FROM T WHERE c > -1000.0 AND id = 5", Full),
        // Constants the `f64` comparison does not resolve to one key.
        ("SELECT id FROM T WHERE id = 1.5", Full),
        ("SELECT id FROM T WHERE id = '1'", Full),
        ("DELETE FROM T WHERE id = '1'", Full),
    ] {
        statements.push((sql.to_string(), access));
    }
    statements
}

#[test]
fn keyed_access_is_the_full_scan_minus_what_it_skips() {
    let firsts = leaf_first_keys(&keyed_session());
    assert!(
        firsts.len() >= 8,
        "the fixture spans {} leaves",
        firsts.len()
    );
    let boundary = firsts[firsts.len() / 2];
    for (sql, access) in keyed_statements(boundary) {
        // The oracle: the unextractable spelling, on the serial interpreter.
        let oracle = trace_on(keyed_session(), &unextractable(&sql), &None, 0, 1);
        assert_eq!(oracle.access, Access::Full, "{sql}");
        let serial = trace_on(keyed_session(), &sql, &None, 0, 1);
        for dop in DOPS {
            for batch in [0usize, 1, 7, 1024] {
                let got = trace_on(keyed_session(), &sql, &None, batch, dop);
                let at = format!("at batch {batch} dop {dop}: {sql}");
                assert_eq!(got.access, access, "{at}");
                assert!(access != Access::Seek || got.rows_scanned <= 1, "{at}");
                let keyed = access != Access::Full;
                assert!(!keyed || got.rows_scanned <= oracle.rows_scanned, "{at}");
                macro_rules! same {
                    ($other:ident: $($field:ident),*) => {$(assert!(
                        got.$field == $other.$field,
                        "{} differs from the {} {at}", stringify!($field), stringify!($other)
                    );)*};
                }
                same!(oracle: outcome, udf_calls, image);
                assert!(
                    rows_bit_identical(&got.rows, &oracle.rows),
                    "rows differ {at}"
                );
                assert!(
                    rows_bit_identical(&got.table, &oracle.table),
                    "table differs {at}"
                );
                // Each worker stops at its own `TOP`-th match, and a batch
                // is decoded before the row that fails it is evaluated: how
                // far such a scan read depends on the configuration.
                if !sql.contains(" TOP ") && got.outcome.is_ok() {
                    same!(serial: io, sim_io_bits, seek, pool_mru);
                }
            }
        }
    }
}

/// A prepared `WHERE id = @v` seeks wherever `@v` points at each execution:
/// the interval is recomputed per run, the plan slot holds none of it.
#[test]
fn a_prepared_seek_follows_its_variable() {
    let mut s = keyed_session();
    let by_key = s.prepare("SELECT id, a, v FROM T WHERE id = @v").unwrap();
    let bump = s.prepare("UPDATE T SET a = a + 1 WHERE id = @v").unwrap();
    for batch in [0usize, 1024] {
        s.set_batch_rows(batch);
        for key in [141i64, 3, 299, 1000, 0] {
            s.set_var("v", Value::I64(key));
            let adhoc = s
                .query(&format!("SELECT id, a, v FROM T WHERE id = {key}"))
                .unwrap();
            let got = s.execute_prepared(&by_key).unwrap().remove(0);
            assert!(rows_bit_identical(&got.rows, &adhoc.rows), "key {key}");
            assert_eq!(got.rows.len(), usize::from(key < 300), "key {key}");
            assert_eq!(
                (got.stats.access, got.stats.rows_scanned),
                (Access::Seek, got.rows.len() as u64)
            );
            let changed = s.execute_prepared(&bump).unwrap().remove(0).stats;
            assert_eq!(
                (changed.access, changed.rows_affected),
                (Access::Seek, got.rows.len() as u64)
            );
        }
        // Re-bound to a float, the same statement scans: `3.0` is no key
        // bound, though it equals key 3.
        s.set_var("v", Value::F64(3.0));
        let got = s.execute_prepared(&by_key).unwrap().remove(0);
        assert_eq!((got.rows.len(), got.stats.access), (1, Access::Full));
    }
}

/// Both sides of every comparison pass through `f64`, so around 2⁵³ one
/// constant equals two keys. Such a constant is no key bound and the
/// answer stays what the full scan always gave; one below, `f64` is still
/// exact and the statement seeks.
#[test]
fn constants_f64_cannot_tell_apart_are_not_key_bounds() {
    let key_rows =
        |keys: &[i64]| -> Vec<Vec<Value>> { keys.iter().map(|&k| vec![Value::I64(k)]).collect() };
    for batch in [0usize, 1024] {
        let mut s = build_session_in(P53 - 1..=P53 + 2, 0x2F53);
        s.set_batch_rows(batch);
        for (constant, keys, access) in [
            (P53 - 1, vec![P53 - 1], Access::Seek),
            (P53, vec![P53, P53 + 1], Access::Full),
            (P53 + 1, vec![P53, P53 + 1], Access::Full),
        ] {
            let r = s
                .query(&format!("SELECT id FROM T WHERE id = {constant}"))
                .unwrap();
            assert_eq!(
                (r.rows, r.stats.access),
                (key_rows(&keys), access),
                "id = {constant}"
            );
        }
        let r = s
            .query(&format!("SELECT id FROM T WHERE id < {}", P53 + 1))
            .unwrap();
        assert_eq!(
            (r.rows, r.stats.access),
            (key_rows(&[P53 - 1]), Access::Full)
        );
        let r = s
            .execute(&format!("DELETE FROM T WHERE id = {}", P53 + 1))
            .unwrap();
        assert_eq!(
            (r[0].stats.rows_affected, r[0].stats.access),
            (2, Access::Full)
        );
    }
}

/// Statements that fail on their first row — so on every non-empty table,
/// on both paths, with the same text — and affect zero rows of an empty
/// one: a WHERE that is not boolean (a typed lane, a dynamic lane, NULL),
/// an unbound variable and an INT overflow in SET.
const DML_ERROR_STATEMENTS: &[&str] = &[
    "DELETE FROM T WHERE b",
    "UPDATE T SET a = 0 WHERE id + 1",
    "DELETE FROM T WHERE FloatArray.Item_1(w, 1)",
    "DELETE FROM T WHERE NULL",
    "UPDATE T SET a = @gone WHERE id = 0",
    "UPDATE T SET b = 3000000000 WHERE id % 2 = 0",
];

#[test]
fn dml_errors_agree_on_both_paths_and_edge_case_table_sizes() {
    for (i, &rows) in [0i64, 1, 1024, 1025].iter().enumerate() {
        let mut s = dml_session(rows, 0xD3E + i as u64);
        // A statement that fails logs nothing (one that affects no row
        // still commits).
        let run = |s: &mut Session, sql: &str| {
            let wal_before = s.db().store.wal_len();
            let got = s.execute(sql).map(|r| r[0].stats.rows_affected);
            assert!(
                got.is_ok() || s.db().store.wal_len() == wal_before,
                "{sql} logged"
            );
            got.map_err(|e| e.to_string())
        };
        for dop in DOPS {
            s.set_dop(dop);
            // An unbound variable nothing evaluates is no error.
            for batch in DML_BATCH_SIZES {
                s.set_batch_rows(batch);
                let r = s.execute("UPDATE T SET a = @gone WHERE id < 0").unwrap();
                assert_eq!(r[0].stats.rows_affected, 0);
            }
            for sql in DML_ERROR_STATEMENTS {
                s.set_batch_rows(0);
                let want = run(&mut s, sql);
                match rows {
                    0 => assert_eq!(want, Ok(0), "{sql} over the empty table"),
                    _ => assert!(want.is_err(), "{rows} rows, row path accepted {sql}"),
                }
                for batch in [7usize, 1024] {
                    s.set_batch_rows(batch);
                    let got = run(&mut s, sql);
                    assert_eq!(got, want, "{rows} rows, batch {batch} dop {dop}: {sql}");
                }
            }
        }
        assert_eq!(s.query(ALL_COLUMNS).unwrap().rows.len() as i64, rows);
    }
    // The strict-WHERE text names the statement and the type it got.
    let mut s = dml_session(10, 0xD3E);
    for (sql, text) in [
        (
            DML_ERROR_STATEMENTS[0],
            "DELETE WHERE clause must evaluate to a boolean, got INT",
        ),
        (
            DML_ERROR_STATEMENTS[1],
            "UPDATE WHERE clause must evaluate to a boolean, got BIGINT",
        ),
        (
            DML_ERROR_STATEMENTS[2],
            "DELETE WHERE clause must evaluate to a boolean, got FLOAT",
        ),
        (
            DML_ERROR_STATEMENTS[3],
            "DELETE WHERE clause must evaluate to a boolean, got NULL",
        ),
    ] {
        let err = s.execute(sql).unwrap_err();
        assert_eq!(err, EngineError::Type(text.into()), "{sql}");
        assert_eq!(s.partial_stats().unwrap().fallback, None, "{sql} compiles");
    }
    // An unbound variable a row does evaluate is the interpreter's typed
    // error, on the interpreter.
    let err = s.execute(DML_ERROR_STATEMENTS[4]).unwrap_err();
    assert!(
        matches!(&err, EngineError::Unknown(what) if what.contains("@gone")),
        "{err:?}"
    );
    let why = s.partial_stats().unwrap().fallback.clone();
    assert_eq!(why, Some(Fallback::MissingVar("gone".into())));
}

proptest! {
    /// Randomized differential check: arbitrary seed drives both the table
    /// contents and the row count; every pool query must agree across all
    /// configurations.
    #[test]
    fn batch_matches_row_for_arbitrary_tables(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (rng.next_u64() % 300) as i64;
        let mut s = build_session(rows, rng.next_u64());
        // A couple of random batch sizes beyond the fixed sweep, including
        // pathological size 1.
        let batch = 1 + (rng.next_u64() % 129) as usize;
        let dop = DOPS[(rng.next_u64() % DOPS.len() as u64) as usize];
        for sql in QUERIES {
            s.set_batch_rows(0);
            s.set_dop(1);
            let base = run(&mut s, sql);
            s.set_batch_rows(batch);
            s.set_dop(dop);
            let got = run(&mut s, sql);
            match (&base, &got) {
                (Ok(want), Ok(have)) => prop_assert!(
                    rows_bit_identical(want, have),
                    "rows={} batch={} dop={} diverged for {:?}",
                    rows, batch, dop, sql
                ),
                (Err(want), Err(have)) => prop_assert!(
                    want == have,
                    "rows={} batch={} dop={} failed differently for {:?}: {:?} vs {:?}",
                    rows, batch, dop, sql, want, have
                ),
                (w, h) => prop_assert!(
                    false,
                    "rows={} batch={} dop={} Ok/Err mismatch for {:?}: {:?} vs {:?}",
                    rows, batch, dop, sql, w, h
                ),
            }
        }
    }
}
