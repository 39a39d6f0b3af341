//! Per-statement fixed cost as a function of buffer-pool occupancy.
//!
//! A prepared `SELECT COUNT(*)` over a one-row table does no work to speak
//! of, so its time is what every statement pays before it reads a page:
//! plan lookup, admission, partitioning, and opening the scan — which
//! snapshots the pool's resident set. That snapshot must not cost more
//! because the pool happens to be full: the bench times the same
//! statement over an empty pool and over the default 4096-page pool with
//! every slot taken.

use criterion::{criterion_group, criterion_main, Criterion};
use sqlarray_engine::{Database, HostingModel, Session, Value};
use sqlarray_storage::store::DEFAULT_POOL_PAGES;
use sqlarray_storage::{ColType, RowValue, Schema};

const SQL: &str = "SELECT COUNT(*) FROM Tone";

/// A session over `Tone` (one row) plus enough filler pages to overfill
/// the default pool.
fn fixture() -> Session {
    let mut db = Database::new();
    db.create_table("Tone", Schema::new(&[("id", ColType::I64)]))
        .expect("create Tone");
    db.insert("Tone", 0, &[RowValue::I64(0)])
        .expect("insert into Tone");
    while (db.store.page_count() as usize) < DEFAULT_POOL_PAGES + 64 {
        db.store.allocate();
    }
    db.commit();
    Session::with_hosting(db, HostingModel::free())
}

/// Empties the pool, then (for `full`) reads pages until no slot is free.
fn set_pool(session: &Session, full: bool) {
    let mut db = session.db_mut();
    db.store.clear_cache();
    if full {
        for page in 0..db.store.page_count() {
            db.store.read(page).expect("filler page reads");
        }
        assert_eq!(db.store.pool().len(), DEFAULT_POOL_PAGES);
    }
}

fn bench_stmt_fixed_cost(c: &mut Criterion) {
    let mut session = fixture();
    let prepared = session.prepare(SQL).expect("statement parses");
    // Same answer whatever the pool holds, before any timing.
    for full in [false, true] {
        set_pool(&session, full);
        let rows = session
            .execute_prepared(&prepared)
            .expect("statement runs")
            .pop()
            .expect("one result")
            .rows;
        assert_eq!(rows, vec![vec![Value::I64(1)]], "pool full: {full}");
    }
    let mut group = c.benchmark_group("stmt_fixed_cost");
    for (name, full) in [("pool_empty", false), ("pool_full_4096", true)] {
        set_pool(&session, full);
        group.bench_function(name, |b| {
            b.iter(|| session.execute_prepared(&prepared).expect("statement runs"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stmt_fixed_cost);
criterion_main!(benches);
