//! Every registered function, over its array argument wherever it lies.
//!
//! A call takes its arguments borrowed (`Arg`): the batch path hands an
//! inline blob cell over as the batch's own bytes, the row path a stored
//! inline column as the row image's bytes, a variable as the `Value` it
//! holds, and an out-of-row column as a LOB reference that the pushdown
//! serves or one full read resolves. None of that may show in an answer.
//! For every function of the standard registries, over a small array (in
//! row) and a large one (out of row, max schemas only), each way of
//! passing the same bytes must return the same value, bit for bit, or
//! fail with the same error text:
//!
//! * a batch cell (`SELECT f(v, …) FROM t`, vectorized);
//! * the row image (the same statement on the row interpreter);
//! * an owned value (`SELECT f(@v, …)`, no table).
//!
//! Run it under `--release` too: borrowed-slice lifetimes and the typed
//! result lane's demotion are what the optimizer compiles.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use sqlarray_core::{ElementType, Scalar, SqlArray, StorageClass};
use sqlarray_engine::{Database, Engine, HostingModel, Session, Value};
use sqlarray_storage::{ColType, RowValue, Schema, INLINE_BLOB_LIMIT};

/// An array of `class`/`elem` with `n` elements `1, 2, …` (cast to the
/// element type): a vector, or a 2 × n/2 matrix when `matrix`.
fn array(class: StorageClass, elem: ElementType, n: usize, matrix: bool) -> Vec<u8> {
    let dims = if matrix { vec![2, n / 2] } else { vec![n] };
    let mut a = SqlArray::zeros(class, elem, &dims).unwrap();
    for i in 0..n {
        let idx = if matrix { vec![i % 2, i / 2] } else { vec![i] };
        let x = Scalar::F64((i % 97) as f64 + 1.0).cast_to(elem).unwrap();
        a.update_item(&idx, x).unwrap();
    }
    a.into_blob()
}

/// A session over `t(id, v)`, one row holding `blob`, whose variables
/// `@v`, `@w` and `@x` hold `blob`, a two-element and a same-shape array of
/// the schema under test.
fn session(blob: &[u8], w: &[u8], x: &[u8]) -> Session {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
    )
    .unwrap();
    db.insert("t", 0, &[RowValue::I64(0), RowValue::Bytes(blob.to_vec())])
        .unwrap();
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    s.set_var("v", Value::Bytes(blob.to_vec()));
    s.set_var("w", Value::Bytes(w.to_vec()));
    s.set_var("x", Value::Bytes(x.to_vec()));
    s
}

/// The arguments after the array, by function: enough to make the usual
/// call succeed on a small array of its own schema (a call that fails
/// must fail alike every way).
fn rest(func: &str) -> &'static str {
    match func {
        "item" => ", 1",
        "updateitem" => ", 1, 2",
        "arrayupdate" => ", IntArray.Vector_1(1), @w",
        "subarray" => ", IntArray.Vector_1(1), IntArray.Vector_1(2), 0",
        "reshape" => ", IntArray.Vector_2(2, 2)",
        "size" | "sumaxis" => ", 0",
        "convertto" => ", 'float32'",
        "scale" => ", 2",
        "add" | "subtract" | "multiply" | "divide" | "dot" => ", @x",
        "emptyfunction" => ", 0",
        _ => "",
    }
}

/// Floats compare by bits, so a NaN or a zero's sign must match too.
fn same(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let cell = |x: &Value, y: &Value| match (x, y) {
        (Value::F64(p), Value::F64(q)) => p.to_bits() == q.to_bits(),
        (Value::F32(p), Value::F32(q)) => p.to_bits() == q.to_bits(),
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(r, q)| r.len() == q.len() && r.iter().zip(q).all(|(x, y)| cell(x, y)))
}

type Outcome = std::result::Result<Vec<Vec<Value>>, String>;

fn agree(sql: &str, how: &str, want: &Outcome, got: &Outcome) {
    let ok = match (want, got) {
        (Ok(a), Ok(b)) => same(a, b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    assert!(ok, "{sql} ({how}):\nowned: {want:?}\ngot:   {got:?}");
}

/// Calls every function of schema `schema` over `blob` the three ways.
/// Returns how many calls succeeded, so a sweep that only compares
/// errors shows.
fn sweep(names: &[String], schema: &str, blob: &[u8], w: &[u8], x: &[u8], lob: bool) -> usize {
    let mut s = session(blob, w, x);
    let mut succeeded = 0;
    for name in names {
        let Some(func) = name.strip_prefix(&format!("{schema}.")) else {
            continue;
        };
        let args = rest(func);
        let owned_sql = format!("SELECT {name}(@v{args})");
        let table_sql = format!("SELECT {name}(v{args}) FROM t");
        s.set_batch_rows(0);
        let owned: Outcome = s
            .query(&owned_sql)
            .map(|r| r.rows)
            .map_err(|e| e.to_string());
        succeeded += usize::from(owned.is_ok());
        for batch in [0, 1024] {
            s.set_batch_rows(batch);
            let r = s.query(&table_sql);
            if let Ok(r) = &r {
                assert_eq!(
                    r.stats.batches > 0,
                    batch > 0,
                    "{table_sql} at batch {batch}"
                );
            }
            let how = match (batch, lob) {
                (0, false) => "row image",
                (0, true) => "LOB, row path",
                (_, false) => "batch cell",
                (_, true) => "LOB, batch path",
            };
            agree(
                &table_sql,
                how,
                &owned,
                &r.map(|r| r.rows).map_err(|e| e.to_string()),
            );
        }
    }
    succeeded
}

#[test]
fn every_function_answers_alike_however_its_array_is_passed() {
    let (udfs, _) = Engine::standard_registries();
    let names = udfs.names();
    let mut schemas = 0;
    for elem in ElementType::ALL {
        for class in [StorageClass::Short, StorageClass::Max] {
            let schema = sqlarray_engine::arraybind::schema_name(elem, class).to_ascii_lowercase();
            let (w, x) = (array(class, elem, 2, false), array(class, elem, 4, false));
            for matrix in [false, true] {
                let small = array(class, elem, 4, matrix);
                assert!(
                    sweep(&names, &schema, &small, &w, &x, false) > 10,
                    "{schema}"
                );
            }
            if class == StorageClass::Max {
                // Past the in-row limit: the column holds a LOB reference.
                let n = INLINE_BLOB_LIMIT / elem.size() + 2;
                let large = array(class, elem, n, false);
                assert!(large.len() > INLINE_BLOB_LIMIT);
                assert!(
                    sweep(&names, &schema, &large, &w, &x, true) > 5,
                    "{schema} LOB"
                );
            }
            schemas += 1;
        }
    }
    assert_eq!(schemas, 16);
    // The `dbo` utility takes any argument.
    let blob = array(StorageClass::Short, ElementType::Float64, 4, false);
    assert!(sweep(&names, "dbo", &blob, &blob, &blob, false) > 0);
}
