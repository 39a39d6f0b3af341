//! Quickstart: every T-SQL example from the paper (§5.1–§5.3), executed
//! against the reproduced engine, plus the equivalent direct Rust API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sqlarray::engine::{Database, Value};
use sqlarray::prelude::*;

fn main() {
    let mut session = Engine::new(Database::new()).session();

    // --- §5.1: create a vector, read an item --------------------------
    let item = session
        .query_scalar(
            "DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0);
             SELECT FloatArray.Item_1(@a, 3)",
        )
        .unwrap();
    println!("FloatArray.Item_1(Vector_5(1..5), 3)      = {item}");

    // --- §5.1: matrices are listed row-major, stored column-major ------
    let m_item = session
        .query_scalar(
            "DECLARE @m VARBINARY(100) = FloatArray.Matrix_2(0.1, 0.2, 0.3, 0.4);
             SELECT FloatArray.Item_2(@m, 1, 0)",
        )
        .unwrap();
    println!("FloatArray.Item_2(Matrix_2(...), 1, 0)    = {m_item}");

    // --- §5.1: subarray with offset/size vectors ------------------------
    let batch = session
        .execute(
            "DECLARE @a VARBINARY(MAX) = FloatArray.ToMax(FloatArray.Vector_8(
                 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0));
             DECLARE @m VARBINARY(MAX) = FloatArrayMax.Reshape(@a, IntArray.Vector_2(2, 4));
             DECLARE @b VARBINARY(MAX) = FloatArrayMax.Subarray(@m,
                 IntArray.Vector_2(0, 1), IntArray.Vector_2(2, 2), 0);
             SELECT FloatArrayMax.ToString(@b)",
        )
        .unwrap();
    println!(
        "Subarray of a reshaped 2x4:               = {}",
        batch[0].rows[0][0]
    );

    // --- §5.1: update an item -------------------------------------------
    let updated = session
        .query_scalar(
            "DECLARE @a VARBINARY(100) = FloatArray.Vector_3(1.0, 2.0, 3.0);
             SET @a = FloatArray.UpdateItem_1(@a, 1, 4.5);
             SELECT FloatArray.ToString(@a)",
        )
        .unwrap();
    println!("After UpdateItem_1(@a, 1, 4.5)            = {updated}");

    // --- §5.3: in-server FFT ---------------------------------------------
    let results = session
        .execute(
            "DECLARE @a VARBINARY(MAX) = FloatArray.ToMax(FloatArray.Vector_8(
                 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0));
             DECLARE @ft VARBINARY(MAX) = ComplexArrayMax.FFTForward(@a);
             SELECT ComplexArrayMax.Item_1(@ft, 0), ComplexArrayMax.Count(@ft)",
        )
        .unwrap();
    println!(
        "FFTForward(ones[8]): bin0 = {}, bins = {}",
        results[0].rows[0][0], results[0].rows[0][1]
    );

    // --- §5.3: in-server SVD ----------------------------------------------
    let s = session
        .query_scalar(
            "DECLARE @m VARBINARY(100) = FloatArray.Matrix_2(3.0, 0.0, 0.0, 2.0);
             SELECT FloatArray.ToString(FloatArray.GesvdS(@m))",
        )
        .unwrap();
    println!("GesvdS(diag(3,2))                         = {s}");

    // --- §5.2: the .NET-style client conversion, in Rust -------------------
    // double[] v = dr.SqlFloatArray(dr.GetSqlBinary(1));
    let arr = build::short_vector(&[1.0f64, 2.0, 3.0]).unwrap();
    let blob = arr.as_blob().to_vec(); // what the VARBINARY column holds
    let back = SqlArray::from_blob(blob).unwrap();
    let v: Vec<f64> = back.to_vec().unwrap();
    println!("client round-trip through the blob        = {v:?}");

    // --- Aggregates over arrays and type conversions ------------------------
    let stats = session
        .execute(
            "DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0);
             SELECT FloatArray.Sum(@a), FloatArray.Mean(@a), FloatArray.Std(@a),
                    IntArray.ToString(FloatArray.ConvertTo(@a, 'int32'))",
        )
        .unwrap();
    let row = &stats[0].rows[0];
    println!(
        "Sum / Mean / Std / as int32               = {} / {} / {:.4} / {}",
        row[0],
        row[1],
        row[2].as_f64().unwrap(),
        row[3]
    );

    // --- Runtime type checks (the §3.5 flag bytes at work) ------------------
    let err = session.query_scalar(
        "DECLARE @i VARBINARY(100) = IntArray.Vector_2(1, 2);
         SELECT FloatArray.Item_1(@i, 0)",
    );
    println!(
        "int blob into FloatArray schema           = {:?}",
        err.unwrap_err()
    );

    // --- Table-backed query with the Concat aggregate (§5.1) ----------------
    let mut db = Database::new();
    db.create_table(
        "samples",
        Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]),
    )
    .unwrap();
    for k in 0..6 {
        db.insert(
            "samples",
            k,
            &[RowValue::I64(k), RowValue::F64((k * k) as f64)],
        )
        .unwrap();
    }
    let mut session = Engine::new(db).session();
    session
        .execute(
            "DECLARE @l VARBINARY(100) = IntArray.Vector_1(6);
             DECLARE @a VARBINARY(MAX);
             SELECT @a = FloatArrayMax.Concat(@l, x) FROM samples",
        )
        .unwrap();
    let assembled = session.var("a").unwrap().as_array().unwrap();
    println!(
        "Concat over table rows                    = {}",
        sqlarray::array::fmt::to_string(&assembled)
    );
    assert_eq!(
        assembled.to_vec::<f64>().unwrap(),
        vec![0.0, 1.0, 4.0, 9.0, 16.0, 25.0]
    );

    // --- §8 wishlist: array-notation sugar -----------------------------
    let types = sqlarray::engine::SugarTypes::new();
    session
        .execute("DECLARE @s VARBINARY(100) = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)")
        .unwrap();
    let sugared = session
        .query_sugar("SELECT @s[3], FloatArray.Sum(@s[1:4])", &types)
        .unwrap();
    println!(
        "sugar: @s[3] = {}, Sum(@s[1:4]) = {}",
        sugared.rows[0][0], sugared.rows[0][1]
    );
    session.execute_sugar("SET @s[0] = 10.0", &types).unwrap();
    let updated0 = session.query_sugar("SELECT @s[0]", &types).unwrap();
    assert_eq!(updated0.rows[0][0], Value::F64(10.0));

    // --- parallel scans: DOP > 1 is an optimization, not a different
    // query ---------------------------------------------------------------
    let mut db = Database::new();
    db.create_table(
        "big",
        Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]),
    )
    .unwrap();
    for k in 0..20_000i64 {
        db.insert(
            "big",
            k,
            &[RowValue::I64(k), RowValue::F64((k as f64).sin())],
        )
        .unwrap();
    }
    let mut session = Engine::new(db).session();
    session.set_dop(1);
    let serial = session.query("SELECT SUM(x), COUNT(*) FROM big").unwrap();
    session.set_dop(4);
    let parallel = session.query("SELECT SUM(x), COUNT(*) FROM big").unwrap();
    assert_eq!(serial.rows, parallel.rows, "bit-identical at any DOP");
    println!(
        "parallel scan: SUM over 20k rows at DOP {} = {} (identical to serial; \
         {} workers, {:.2}x CPU/wall)",
        session.dop(),
        parallel.rows[0][0],
        parallel.stats.dop,
        parallel.stats.measured_speedup()
    );

    // --- keyed access: a WHERE on the clustered key seeks the B-tree ------
    let by_key = session.query("SELECT x FROM big WHERE id = 12345").unwrap();
    assert_eq!(by_key.rows, [[Value::F64(12345f64.sin())]]);
    println!(
        "by-key read: access = {:?}, fallback = {:?}, {} of 20k rows examined, {} page reads",
        by_key.stats.access,
        by_key.stats.fallback,
        by_key.stats.rows_scanned,
        by_key.stats.io.cache_hits + by_key.stats.io.pages_read
    );

    // Bonus: Value interop sanity.
    assert_eq!(item, Value::F64(4.0));
    println!("\nquickstart: all checks passed");
}
