//! Executor and session edge cases across the public API.

use sqlarray::prelude::*;

fn tiny_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]),
    )
    .unwrap();
    for k in 0..rows {
        db.insert("t", k, &[RowValue::I64(k), RowValue::F64(k as f64)])
            .unwrap();
    }
    db
}

#[test]
fn top_caps_rows_and_stops_the_scan_early() {
    let mut s = Engine::new(tiny_db(1000)).session_with_hosting(HostingModel::free());
    let r = s.query("SELECT TOP 7 id FROM t").unwrap();
    assert_eq!(r.rows.len(), 7);
    // The scan must not have visited all 1000 rows.
    assert!(
        r.stats.rows_scanned < 1000,
        "scanned {} rows for TOP 7",
        r.stats.rows_scanned
    );
}

#[test]
fn row_limit_guards_unbounded_projections() {
    let mut s = Engine::new(tiny_db(500)).session_with_hosting(HostingModel::free());
    s.row_limit = 100;
    let r = s.query("SELECT id FROM t").unwrap();
    assert_eq!(r.rows.len(), 100);
}

#[test]
fn where_errors_inside_the_scan_surface_cleanly() {
    let mut s = Engine::new(tiny_db(10)).session_with_hosting(HostingModel::free());
    // Division by zero mid-scan must abort with an error, not panic.
    let err = s.query("SELECT id FROM t WHERE 1 / (id - 5) > 0");
    assert!(err.is_err());
}

#[test]
fn scalar_accessor_rejects_multi_row_results() {
    let mut s = Engine::new(tiny_db(3)).session_with_hosting(HostingModel::free());
    assert!(s.query_scalar("SELECT id FROM t").is_err());
    assert_eq!(
        s.query_scalar("SELECT COUNT(*) FROM t").unwrap(),
        Value::I64(3)
    );
}

#[test]
fn stats_expose_measured_and_modelled_columns() {
    let mut s = Engine::new(tiny_db(2000)).session_with_hosting(HostingModel::free());
    s.db().store.clear_cache();
    let r = s.query("SELECT SUM(x) FROM t").unwrap();
    let st = &r.stats;
    // Measured: a serial scan's CPU is its wall clock (up to rounding).
    assert!(st.wall_seconds > 0.0);
    assert!(st.cpu_seconds >= st.wall_seconds * (1.0 - 1e-9));
    // Modelled: the cold scan's pages priced by the disk profile; no
    // managed call, so no CLR charge.
    assert!(st.io.pages_read > 0);
    assert_eq!(st.sim_io_seconds, s.db().store.profile().io_seconds(&st.io));
    assert_eq!((st.udf_calls, st.udf_overhead_ns), (0, 0));
    assert_eq!(st.rows_scanned, 2000);
}

#[test]
fn group_by_with_uda_and_builtin_mix() {
    let mut db = Database::new();
    db.create_table(
        "v",
        Schema::new(&[
            ("id", ColType::I64),
            ("g", ColType::I64),
            ("a", ColType::Blob),
        ]),
    )
    .unwrap();
    for k in 0..12 {
        let arr = build::short_vector(&[k as f64, -(k as f64)]).unwrap();
        db.insert(
            "v",
            k,
            &[
                RowValue::I64(k),
                RowValue::I64(k % 3),
                RowValue::Bytes(arr.into_blob()),
            ],
        )
        .unwrap();
    }
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    let r = s
        .query("SELECT g, COUNT(*), FloatArrayMax.VectorAvg(a) FROM v GROUP BY g")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    for row in &r.rows {
        assert_eq!(row[1], Value::I64(4));
        let avg = row[2].as_array().unwrap();
        let vals = avg.to_vec::<f64>().unwrap();
        assert!((vals[0] + vals[1]).abs() < 1e-12, "components mirror");
    }
}

#[test]
fn variables_persist_across_execute_calls() {
    let mut s = Engine::new(Database::new()).session_with_hosting(HostingModel::free());
    s.execute("DECLARE @x FLOAT = 2.5").unwrap();
    s.execute("SET @x = @x * 2").unwrap();
    assert_eq!(s.query_scalar("SELECT @x").unwrap(), Value::F64(5.0));
    // set_var/var round trip for host-injected values.
    s.set_var("blob", Value::Bytes(vec![1, 2, 3]));
    assert_eq!(s.var("BLOB"), Some(&Value::Bytes(vec![1, 2, 3])));
}

#[test]
fn empty_table_aggregates() {
    let mut s = Engine::new(tiny_db(0)).session_with_hosting(HostingModel::free());
    let r = s
        .query("SELECT COUNT(*), SUM(x), MIN(x), AVG(x) FROM t")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::I64(0));
    assert_eq!(r.rows[0][1], Value::Null);
    assert_eq!(r.rows[0][2], Value::Null);
    assert_eq!(r.rows[0][3], Value::Null);
}

#[test]
fn hosting_counters_reset_per_query() {
    let mut s = Engine::new(tiny_db(50)).session();
    s.execute("DECLARE @a VARBINARY(100) = FloatArray.Vector_2(1.0, 2.0)")
        .unwrap();
    let r1 = s
        .query("SELECT SUM(dbo.EmptyFunction(x, 0)) FROM t")
        .unwrap();
    assert_eq!(r1.stats.udf_calls, 50);
    let r2 = s.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r2.stats.udf_calls, 0, "counter must reset between queries");
}

#[test]
fn sugar_composes_with_group_by() {
    let mut db = Database::new();
    db.create_table(
        "m",
        Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
    )
    .unwrap();
    for k in 0..8 {
        let arr = build::short_vector(&[k as f64, (k * k) as f64]).unwrap();
        db.insert(
            "m",
            k,
            &[RowValue::I64(k), RowValue::Bytes(arr.into_blob())],
        )
        .unwrap();
    }
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    let types = sqlarray::engine::SugarTypes::new();
    let r = s
        .query_sugar("SELECT id % 2, SUM(v[1]) FROM m GROUP BY id % 2", &types)
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let even: f64 = [0.0f64, 4.0, 16.0, 36.0].iter().sum();
    let odd: f64 = [1.0f64, 9.0, 25.0, 49.0].iter().sum();
    assert_eq!(r.rows[0][1], Value::F64(even));
    assert_eq!(r.rows[1][1], Value::F64(odd));
}

#[test]
fn configuration_is_read_once_per_engine_and_never_per_session() {
    use sqlarray::engine::Settings;
    use std::cell::RefCell;

    // A lookup that answers like an environment and logs every question.
    let asked = RefCell::new(Vec::<String>::new());
    let lookup = |name: &str| {
        asked.borrow_mut().push(name.to_string());
        match name {
            "SQLARRAY_DOP" => Some("3"),
            "SQLARRAY_BATCH_ROWS" => Some("77"),
            "SQLARRAY_STATEMENT_TIMEOUT_MS" => Some("4321"),
            "SQLARRAY_QUERY_MEM_BYTES" => Some("65536"),
            "SQLARRAY_WORKER_BUDGET" => Some("5"),
            "SQLARRAY_ADMISSION_QUEUE" => Some("9"),
            _ => None,
        }
        .map(String::from)
    };
    let (udfs, udas) = Engine::standard_registries();
    let engine = Engine::with_registries(tiny_db(4), Settings::from_lookup(lookup), udfs, udas);

    // Construction asked for each variable the engine honours, once.
    let mut construction = asked.borrow().clone();
    construction.sort();
    assert_eq!(
        construction,
        [
            "SQLARRAY_ADMISSION_QUEUE",
            "SQLARRAY_BATCH_ROWS",
            "SQLARRAY_DOP",
            "SQLARRAY_QUERY_MEM_BYTES",
            "SQLARRAY_STATEMENT_TIMEOUT_MS",
            "SQLARRAY_WORKER_BUDGET",
        ]
    );
    assert_eq!(engine.sched().budget(), 5);
    assert_eq!(engine.sched().queue_cap(), 9);

    // Minting and using sessions asks nothing more, and every session
    // starts from what the lookup said.
    for _ in 0..64 {
        let mut s = engine.session_with_hosting(HostingModel::free());
        assert_eq!(s.dop(), 3);
        assert_eq!(s.batch_rows(), 77);
        assert_eq!(s.statement_timeout_ms(), Some(4321));
        assert_eq!(s.query_mem_bytes(), 65536);
        assert_eq!(
            s.query_scalar("SELECT COUNT(*) FROM t").unwrap(),
            Value::I64(4)
        );
    }
    assert_eq!(asked.borrow().len(), construction.len());
}

/// What the retired `stmt_fixed_cost` bench checked before timing: a
/// prepared statement over a one-row table answers the same whether the
/// default pool is empty or has every slot taken by other pages.
#[test]
fn prepared_statement_answers_the_same_over_an_empty_and_a_full_pool() {
    use sqlarray::storage::store::DEFAULT_POOL_PAGES;

    let mut db = tiny_db(1);
    while (db.store.page_count() as usize) < DEFAULT_POOL_PAGES + 64 {
        db.store.allocate();
    }
    db.commit();
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    let prepared = s.prepare("SELECT COUNT(*) FROM t").unwrap();
    for full in [false, true] {
        {
            let mut db = s.db_mut();
            db.store.clear_cache();
            if full {
                for page in 0..db.store.page_count() {
                    db.store.read(page).unwrap();
                }
                assert_eq!(db.store.pool().len(), DEFAULT_POOL_PAGES);
            }
        }
        let rows = s.execute_prepared(&prepared).unwrap().pop().unwrap().rows;
        assert_eq!(rows, vec![vec![Value::I64(1)]], "pool full: {full}");
    }
}

/// Texts that differ only in where a `--` comment ends, or in a string
/// literal after a comment that holds a quote, are different statements:
/// the plan cache must not answer one with the other's parse, in either
/// order, ad hoc or prepared.
#[test]
fn comments_never_make_two_statements_share_a_plan() {
    let live = "SELECT 1 -- c\n, 2";
    let dead = "SELECT 1 -- c , 2";
    let wide = "-- it's\nSELECT 'a  b'";
    let narrow = "-- it's\nSELECT 'a b'";
    let fresh = |sql: &str| {
        let mut s = Engine::new(tiny_db(1)).session_with_hosting(HostingModel::free());
        s.query(sql).unwrap().rows
    };
    assert_eq!(fresh(live), [[Value::I64(1), Value::I64(2)]]);
    assert_eq!(fresh(dead), [[Value::I64(1)]]);
    assert_eq!(fresh(wide), [[Value::Str("a  b".into())]]);
    assert_eq!(fresh(narrow), [[Value::Str("a b".into())]]);
    for pair in [[live, dead], [dead, live], [wide, narrow], [narrow, wide]] {
        // Through `Session::query`…
        let mut s = Engine::new(tiny_db(1)).session_with_hosting(HostingModel::free());
        for sql in pair {
            assert_eq!(
                s.query(sql).unwrap().rows,
                fresh(sql),
                "{sql:?} in {pair:?}"
            );
        }
        // …and through `prepare` / `execute_prepared`, on one engine.
        let mut s = Engine::new(tiny_db(1)).session_with_hosting(HostingModel::free());
        let prepared = pair.map(|sql| s.prepare(sql).unwrap());
        assert_ne!(prepared[0].key(), prepared[1].key(), "{pair:?}");
        for (sql, p) in pair.iter().zip(&prepared) {
            let rows = s.execute_prepared(p).unwrap().pop().unwrap().rows;
            assert_eq!(rows, fresh(sql), "prepared {sql:?} in {pair:?}");
        }
    }
}
