//! E2 — §7.1 UDF-call overhead decomposition: empty managed call vs real
//! item extraction vs native column access, and the hosting-model
//! counterfactual (what a native array type would cost).
//!
//! The second group times the statements those calls sit in — Table 1's
//! Q4 and Q5 and the grouped `Item_1` query — on the row interpreter
//! (`set_batch_rows(0)`) and on the compiled batch plan, with the hosting
//! charge off so the difference is the executor's own per-row overhead:
//! name resolution, `argv` allocation and argument copies. Each pair is
//! checked bit-identical before it is timed.

use criterion::{criterion_group, criterion_main, Criterion};
use sqlarray_bench::{build_table1_db_with, rows_bit_identical, TABLE1_QUERIES};
use sqlarray_engine::{HostingModel, UdfRegistry, Value};

const ROWS: i64 = 20_000;
const GROUPED_ITEM: &str =
    "SELECT id % 4, SUM(floatarray.Item_1(v, 1)) FROM Tvector WITH (NOLOCK) GROUP BY id % 4";

fn bench_udf_overhead(c: &mut Criterion) {
    let mut reg = UdfRegistry::new();
    sqlarray_engine::arraybind::register_all(&mut reg);
    sqlarray_engine::mathfn::register_math(&mut reg);

    let arr = sqlarray_core::build::short_vector(&[1.0f64, 2.0, 3.0, 4.0, 5.0]).unwrap();
    let blob = Value::Bytes(arr.into_blob());
    let zero = Value::I64(0);

    let mut group = c.benchmark_group("udf_overhead");

    // The paper's CLR cost: ~2 µs per call even for an empty body.
    let mut clr = HostingModel::paper_clr();
    group.bench_function("empty_call_clr_2us", |b| {
        b.iter(|| {
            reg.call(
                "dbo.EmptyFunction",
                std::hint::black_box(&[blob.clone(), zero.clone()]),
                &mut clr,
            )
            .unwrap()
        })
    });
    group.bench_function("item1_clr_2us", |b| {
        b.iter(|| {
            reg.call(
                "FloatArray.Item_1",
                std::hint::black_box(&[blob.clone(), zero.clone()]),
                &mut clr,
            )
            .unwrap()
        })
    });

    // The counterfactual the paper asks SQL Server for: no hosting charge.
    let mut native = HostingModel::free();
    group.bench_function("empty_call_native", |b| {
        b.iter(|| {
            reg.call(
                "dbo.EmptyFunction",
                std::hint::black_box(&[blob.clone(), zero.clone()]),
                &mut native,
            )
            .unwrap()
        })
    });
    group.bench_function("item1_native", |b| {
        b.iter(|| {
            reg.call(
                "FloatArray.Item_1",
                std::hint::black_box(&[blob.clone(), zero.clone()]),
                &mut native,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_udf_statements(c: &mut Criterion) {
    let mut session = build_table1_db_with(ROWS, HostingModel::free());
    session.set_dop(1);
    let statements = [
        ("q4", TABLE1_QUERIES[3]),
        ("q5", TABLE1_QUERIES[4]),
        ("grp_item", GROUPED_ITEM),
    ];

    let mut group = c.benchmark_group("udf_statements");
    for (label, sql) in statements {
        session.set_batch_rows(0);
        let row = session.query(sql).expect("row-path query");
        assert!(row.stats.fallback.is_some() && row.stats.batches == 0);
        session.set_batch_rows(1024);
        let batch = session.query(sql).expect("batch-path query");
        assert_eq!(batch.stats.fallback, None, "{label} fell back to rows");
        assert!(
            rows_bit_identical(&row.rows, &batch.rows),
            "{label}: batch path diverged from row path"
        );
        assert_eq!(row.stats.udf_calls, batch.stats.udf_calls, "{label}");

        session.set_batch_rows(0);
        group.bench_function(format!("{label}/rows"), |b| {
            b.iter(|| session.query(sql).expect("row-path query"))
        });
        session.set_batch_rows(1024);
        group.bench_function(format!("{label}/batch1024"), |b| {
            b.iter(|| session.query(sql).expect("batch-path query"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_udf_overhead, bench_udf_statements);
criterion_main!(benches);
