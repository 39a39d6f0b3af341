//! The four workloads. Each module offers `build` (the timed set-up: a
//! fresh database from the seed) and `plan` (untimed: the cycle's
//! statement list with the oracle's expectations, from the same seed).

pub mod array_cutout;
pub mod dml_mix;
pub mod scan_native;
pub mod scan_udf;

use crate::cycle::{Built, Plan};
use crate::gen::{KeyedRows, Sizes};
use sqlarray_core::ExactSum;
use sqlarray_engine::Database;
use sqlarray_storage::{ColType, DiskProfile, PageStore, RowValue, Schema};
use std::time::Instant;

pub struct Workload {
    pub build: fn(u64, &Sizes) -> Built,
    pub plan: fn(u64, &Sizes) -> Plan,
}

pub fn by_name(name: &str) -> Option<Workload> {
    Some(match name {
        "scan_native" => Workload {
            build: scan_native::build,
            plan: scan_native::plan,
        },
        "scan_udf" => Workload {
            build: scan_udf::build,
            plan: scan_udf::plan,
        },
        "array_cutout" => Workload {
            build: array_cutout::build,
            plan: array_cutout::plan,
        },
        "dml_mix" => Workload {
            build: dml_mix::build,
            plan: dml_mix::plan,
        },
        _ => return None,
    })
}

/// An empty database over a pool of the pinned size, holding the one-row
/// `Tone` every workload uses to price an empty statement.
fn new_db(sizes: &Sizes) -> Built {
    let store = PageStore::with_pool(sizes.pool_pages, DiskProfile::default());
    let mut db = Database::with_store(store);
    db.create_table("Tone", Schema::new(&[("id", ColType::I64)]))
        .expect("fresh database");
    db.insert("Tone", 0, &[RowValue::I64(0)])
        .expect("insert into Tone");
    Built {
        db,
        rows_loaded: 0,
        load_seconds: 0.0,
    }
}

/// User payload bytes of `Tone`.
const TONE_USER_BYTES: u64 = 8;

fn id_blob_schema(blob: &str) -> Schema {
    Schema::new(&[("id", ColType::I64), (blob, ColType::Blob)])
}

/// Loads key-sorted rows through the serial bulk path, adding the time
/// spent inside the load call to `built`.
fn bulk_load(built: &mut Built, table: &str, rows: &KeyedRows) {
    let t0 = Instant::now();
    built
        .db
        .bulk_insert_with_dop(table, rows, 1)
        .expect("bulk load into an empty table");
    built.load_seconds += t0.elapsed().as_secs_f64();
    built.rows_loaded += rows.len() as u64;
}

/// Inserts rows one at a time (the only path into a non-empty table).
fn insert_rows(built: &mut Built, table: &str, rows: &KeyedRows) {
    let t0 = Instant::now();
    for (key, values) in rows {
        built.db.insert(table, *key, values).expect("insert");
    }
    built.load_seconds += t0.elapsed().as_secs_f64();
    built.rows_loaded += rows.len() as u64;
}

fn user_bytes_of(rows: &KeyedRows) -> u64 {
    rows.iter().map(|(_, v)| crate::gen::user_bytes(v)).sum()
}

/// The oracle's exactly rounded sum, independent of the engine's
/// accumulation order.
fn exact_sum(values: impl Iterator<Item = f64>) -> f64 {
    let mut s = ExactSum::new();
    for v in values {
        s.add(v);
    }
    s.value()
}

fn cold_sql(text: &str) -> crate::cycle::Action {
    crate::cycle::Action::Sql {
        text: text.to_string(),
        cold: true,
    }
}
