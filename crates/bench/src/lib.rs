//! Fixtures and the paper report.
//!
//! This crate is the one place the paper's tables are reproduced: the
//! §6.2 fixture (`Tscalar`/`Tvector`), the Table 1 runner with the paper's
//! overlap formulae, and — in [`experiments`] — the table-driven list
//! E1–E9 behind the single `table1_report` binary. Wall-clock regression
//! tracking is not done here; that is the repository benchmark
//! (`benchmark/`, `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod experiments;
pub mod wal_breakdown;

pub use wal_breakdown::{wal_breakdown, WalBreakdown};

use sqlarray_engine::{Database, Engine, HostingModel, QueryStats, Session, Value};
use sqlarray_storage::{ColType, DiskProfile, PageStore, RowValue, Schema};

/// Bit-level equality for result rows: floats compare by bit pattern, so
/// identical NaNs pass and a `-0.0` vs `0.0` divergence fails — the
/// strict form of the determinism contract [`run_table1_query`] enforces
/// and `tests/parallel_determinism.rs` asserts query by query.
pub fn rows_bit_identical(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    fn value_bits_equal(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
            (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| value_bits_equal(x, y))
        })
}

/// Default row count for the report binary (overridable via
/// `SQLARRAY_ROWS`). The paper used 357 M rows on a 16-core server; one
/// million preserves every per-row cost ratio at laptop scale.
pub const DEFAULT_ROWS: i64 = 1_000_000;

/// Degree of parallelism of the modelled testbed. The paper's server ran
/// the scans on two quad-core CPUs ("all eight cores were used", §7.1);
/// [`Table1Row::from_runs`] divides CPU work by this factor to project
/// onto that hardware.
pub const TESTBED_DOP: f64 = 8.0;

/// Builds the two §6.2 test tables: `Tscalar` (id + five float columns)
/// and `Tvector` (id + one 5-vector short-array blob), with `rows` rows
/// each, and returns a session with the paper's 2 µs CLR hosting model.
pub fn build_table1_db(rows: i64) -> Session {
    build_table1_db_with(rows, HostingModel::paper_clr())
}

/// Same as [`build_table1_db`] with an explicit hosting model (e.g.
/// [`HostingModel::free`] for the native-cost ablation). Loads through
/// the parallel bulk-ingest path at the environment-configured DOP — the
/// resulting layout and accounting are identical at every DOP.
pub fn build_table1_db_with(rows: i64, hosting: HostingModel) -> Session {
    build_table1_db_with_dop(rows, hosting, sqlarray_core::parallel::configured_dop()).0
}

/// The accounting of one bulk ingest, which a parallel load must
/// reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Store counters after the load (simulated; must match serial).
    pub io: sqlarray_storage::IoStats,
    /// Pages in the file after the load (must match serial).
    pub page_count: u64,
    /// Simulated disk head after the load (must match serial).
    pub seek_position: Option<u64>,
}

/// Key-sorted rows ready for `Database::bulk_insert`.
type KeyedRows = Vec<(i64, Vec<RowValue>)>;

/// Deterministic pseudo-random components, identical across the scalar
/// and vector representations of each §6.2 row.
fn table1_components(k: i64) -> [f64; 5] {
    let mut state = (k as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    std::array::from_fn(|_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    })
}

fn tscalar_rows(rows: i64) -> KeyedRows {
    (0..rows)
        .map(|k| {
            let comps = table1_components(k);
            let mut row = Vec::with_capacity(6);
            row.push(RowValue::I64(k));
            row.extend(comps.iter().map(|&c| RowValue::F64(c)));
            (k, row)
        })
        .collect()
}

fn tvector_rows(rows: i64) -> KeyedRows {
    (0..rows)
        .map(|k| {
            let arr =
                sqlarray_core::build::short_vector(&table1_components(k)).expect("5-vector fits");
            (k, vec![RowValue::I64(k), RowValue::Bytes(arr.into_blob())])
        })
        .collect()
}

/// [`build_table1_db_with`] with an explicit ingest DOP, also returning
/// the load's [`IngestReport`]. Each table bulk-loads in one pass, so
/// its leaf chain is laid out sequentially on disk exactly as the paper's
/// 357 M-row `IDENTITY`-style load would leave it.
pub fn build_table1_db_with_dop(
    rows: i64,
    hosting: HostingModel,
    dop: usize,
) -> (Session, IngestReport) {
    let store = PageStore::with_pool(4096, DiskProfile::default());
    let mut db = Database::with_store(store);
    db.create_table(
        "Tscalar",
        Schema::new(&[
            ("id", ColType::I64),
            ("v1", ColType::F64),
            ("v2", ColType::F64),
            ("v3", ColType::F64),
            ("v4", ColType::F64),
            ("v5", ColType::F64),
        ]),
    )
    .expect("fresh database");
    db.create_table(
        "Tvector",
        Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
    )
    .expect("fresh database");

    // One table at a time: each table's rows are dropped before the next
    // table's are built, so transient row memory peaks at one table.
    db.bulk_insert_with_dop("Tscalar", &tscalar_rows(rows), dop)
        .expect("bulk load Tscalar");
    db.bulk_insert_with_dop("Tvector", &tvector_rows(rows), dop)
        .expect("bulk load Tvector");

    let report = IngestReport {
        io: db.store.stats(),
        page_count: db.store.page_count(),
        seek_position: db.store.seek_position(),
    };
    (Engine::new(db).session_with_hosting(hosting), report)
}

/// The five queries of §6.3, verbatim.
pub const TABLE1_QUERIES: [&str; 5] = [
    "SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)",
    "SELECT COUNT(*) FROM Tvector WITH (NOLOCK)",
    "SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)",
    "SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)",
    "SELECT SUM(dbo.EmptyFunction(v, 0)) FROM Tvector WITH (NOLOCK)",
];

/// One row of the reproduced Table 1. Three kinds of column, kept apart:
/// **measured** on this host, **modelled** by counting (bit-reproducible),
/// and the paper's **derived** columns that combine the two.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Query number (1-based, as in the paper).
    pub query: usize,
    /// Measured: single-thread CPU seconds of the cold serial run.
    pub cpu_seconds: f64,
    /// Measured: wall clock of the cold serial (DOP 1) run.
    pub wall_serial_seconds: f64,
    /// Measured: wall clock of the cold parallel run at the session DOP.
    pub wall_parallel_seconds: f64,
    /// Workers the parallel run actually used.
    pub measured_dop: usize,
    /// Modelled: simulated disk seconds for the pages read.
    pub io_seconds: f64,
    /// Modelled: CLR hosting seconds, `udf_calls` × the per-call charge.
    pub clr_seconds: f64,
    /// Modelled: pages the cold scan read.
    pub pages_read: u64,
    /// Managed UDF calls made.
    pub udf_calls: u64,
    /// Rows scanned.
    pub rows: u64,
    /// Derived: execution time (s) on the paper's testbed.
    pub exec_seconds: f64,
    /// Derived: CPU load in percent of the execution time.
    pub cpu_percent: f64,
    /// Derived: effective I/O rate over the execution time, MB/s.
    pub io_mb_per_sec: f64,
}

impl Table1Row {
    /// The paper model, written once. CPU work on the testbed is the
    /// measured serial CPU plus the modelled CLR charge, spread over
    /// [`TESTBED_DOP`] cores; the disk prefetches concurrently, so the
    /// slower pipeline bounds the query: `exec = max(cpu / DOP, io)`.
    /// CPU % and MB/s are taken over that execution time.
    pub fn from_runs(query: usize, serial: &QueryStats, parallel: &QueryStats) -> Table1Row {
        let clr_seconds = serial.udf_overhead_ns as f64 * 1e-9;
        let cpu_wall = (serial.cpu_seconds + clr_seconds) / TESTBED_DOP;
        let exec = cpu_wall.max(serial.sim_io_seconds);
        let per_exec = |x: f64| if exec > 0.0 { x / exec } else { 0.0 };
        Table1Row {
            query,
            cpu_seconds: serial.cpu_seconds,
            wall_serial_seconds: serial.wall_seconds,
            wall_parallel_seconds: parallel.wall_seconds,
            measured_dop: parallel.dop,
            io_seconds: serial.sim_io_seconds,
            clr_seconds,
            pages_read: serial.io.pages_read,
            udf_calls: serial.udf_calls,
            rows: serial.rows_scanned,
            exec_seconds: exec,
            cpu_percent: per_exec(100.0 * cpu_wall),
            io_mb_per_sec: per_exec(serial.io.bytes_read() as f64 / (1024.0 * 1024.0)),
        }
    }

    /// CPU seconds on the testbed: measured serial CPU + modelled CLR.
    pub fn modelled_cpu_seconds(&self) -> f64 {
        self.cpu_seconds + self.clr_seconds
    }
}

/// Runs one Table 1 query twice, cold each time (buffer pool cleared
/// first, as in §6.3): once at DOP 1 for the serial baseline that feeds
/// the paper model, once at the session's configured DOP for the measured
/// parallel wall clock. Panics unless the two runs return bit-identical
/// rows *and* bit-identical modelled costs (pages, simulated disk seconds,
/// managed calls, CLR charge) — the executor's determinism guarantee is
/// part of what the harness verifies on every invocation.
pub fn run_table1_query(session: &mut Session, query_no: usize) -> Table1Row {
    assert!((1..=5).contains(&query_no));
    let configured_dop = session.dop();
    let sql = TABLE1_QUERIES[query_no - 1];

    session.set_dop(1);
    session.db().store.clear_cache();
    let serial = session.query(sql).expect("table 1 query (serial)");

    session.set_dop(configured_dop);
    session.db().store.clear_cache();
    let parallel = session.query(sql).expect("table 1 query (parallel)");

    assert!(
        rows_bit_identical(&serial.rows, &parallel.rows),
        "parallel result diverged from serial for Q{query_no}"
    );
    let modelled = |s: &QueryStats| {
        let sim_io = s.sim_io_seconds.to_bits();
        (s.io, sim_io, s.udf_calls, s.udf_overhead_ns)
    };
    assert_eq!(
        modelled(&serial.stats),
        modelled(&parallel.stats),
        "modelled costs diverged between DOP 1 and DOP {configured_dop} for Q{query_no}"
    );
    Table1Row::from_runs(query_no, &serial.stats, &parallel.stats)
}

/// Runs all five queries and returns the full table.
pub fn run_table1(session: &mut Session) -> Vec<Table1Row> {
    (1..=5).map(|q| run_table1_query(session, q)).collect()
}

/// Storage accounting for the §6.2 size comparison (the "43 % bigger"
/// claim): returns `(scalar_bytes_per_row, vector_bytes_per_row, ratio)`.
pub fn storage_overhead(session: &mut Session) -> (f64, f64, f64) {
    let mut db = session.db_mut();
    let ts = db.table("Tscalar").expect("Tscalar").clone();
    let tv = db.table("Tvector").expect("Tvector").clone();
    let s = ts.bytes_per_row(&mut db.store).expect("page count");
    let v = tv.bytes_per_row(&mut db.store).expect("page count");
    (s, v, v / s)
}

/// The two vectorized-execution showcase queries over `Tscalar`: one
/// filter-heavy (selective conjunctive predicate, tiny projection — the
/// per-row work is predicate evaluation) and one aggregate-heavy (five
/// aggregates over arithmetic — the per-row work is expression + fold).
/// Both compile to batch plans and also run on the row interpreter when
/// batching is disabled, so they measure the same logical work twice.
pub const BATCH_QUERIES: [(&str, &str); 2] = [
    (
        "filter-heavy",
        "SELECT id, v1 * v2 FROM Tscalar WITH (NOLOCK) \
         WHERE v1 > 0.5 AND v2 < 0.5 AND v3 > 0.9",
    ),
    (
        "aggregate-heavy",
        "SELECT COUNT(*), SUM(v1 + v2), MIN(v3), MAX(v4), AVG(v5) \
         FROM Tscalar WITH (NOLOCK) WHERE v5 > 0.25",
    ),
];

/// A golden file's text: `{"scale": "smoke", "<list>": [...]}` with one
/// JSON object of `rows` per line, as `BENCH_paper.json` and
/// `BENCH_counters.json` are committed.
pub fn golden_text(list: &str, rows: &[String]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| format!("  {r}")).collect();
    format!(
        "{{\"scale\": \"smoke\", {list:?}: [\n{}\n]}}\n",
        rows.join(",\n")
    )
}

/// The one golden check: panics unless `regenerated` equals the text
/// committed as `file`, printing the new text to paste into the file when
/// the change is intended. There is no flag or environment variable.
pub fn assert_golden(file: &str, committed: &str, regenerated: &str) {
    assert!(
        regenerated == committed,
        "a counted value differs from {file}; if the change is intended, \
         write this into the file:\n{regenerated}"
    );
}

/// Reads the row-count override from `SQLARRAY_ROWS`.
pub fn rows_from_env() -> i64 {
    std::env::var("SQLARRAY_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_ROWS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_answers_are_consistent() {
        let mut s = build_table1_db_with(2_000, HostingModel::free());
        let rows = run_table1(&mut s);
        assert_eq!(rows.len(), 5);
        // Q1/Q2 scan all rows; Q4/Q5 make one UDF call per row.
        assert_eq!(rows[0].rows, 2_000);
        assert_eq!(rows[1].rows, 2_000);
        assert_eq!(rows[3].udf_calls, 2_000);
        assert_eq!(rows[4].udf_calls, 2_000);
        assert_eq!(rows[2].udf_calls, 0);
    }

    #[test]
    fn parallel_ingest_is_dop_invariant() {
        let (mut s1, serial) = build_table1_db_with_dop(2_000, HostingModel::free(), 1);
        for dop in [2usize, 8] {
            let (mut sp, par) = build_table1_db_with_dop(2_000, HostingModel::free(), dop);
            assert_eq!(par.io, serial.io, "ingest IoStats diverged at dop {dop}");
            assert_eq!(par.page_count, serial.page_count);
            assert_eq!(par.seek_position, serial.seek_position);
            let a = s1.query(TABLE1_QUERIES[2]).unwrap();
            let b = sp.query(TABLE1_QUERIES[2]).unwrap();
            assert!(rows_bit_identical(&a.rows, &b.rows));
        }
    }

    #[test]
    fn q3_and_q4_compute_the_same_sum() {
        let mut s = build_table1_db_with(500, HostingModel::free());
        let q3 = s.query_scalar(TABLE1_QUERIES[2]).unwrap();
        let q4 = s.query_scalar(TABLE1_QUERIES[3]).unwrap();
        let (a, b) = (q3.as_f64().unwrap(), q4.as_f64().unwrap());
        assert!((a - b).abs() < 1e-9 * a.abs());
    }

    #[test]
    fn vector_table_costs_more_io_than_scalar_table() {
        let mut s = build_table1_db_with(5_000, HostingModel::free());
        let rows = run_table1(&mut s);
        // Q2 reads the fatter table: strictly more I/O seconds than Q1.
        assert!(rows[1].io_seconds > rows[0].io_seconds);
        let (_, _, ratio) = storage_overhead(&mut s);
        assert!(
            (1.2..1.7).contains(&ratio),
            "storage ratio {ratio:.2} out of band"
        );
    }

    #[test]
    fn measured_columns_are_populated_and_consistent() {
        let mut s = build_table1_db_with(3_000, HostingModel::free());
        s.set_dop(4);
        let rows = run_table1(&mut s);
        for row in &rows {
            assert!(row.wall_serial_seconds > 0.0);
            assert!(row.wall_parallel_seconds > 0.0);
            assert!((1..=4).contains(&row.measured_dop));
        }
        // 3000 rows split across several leaf pages, so the parallel run
        // must actually have fanned out.
        assert!(rows.iter().any(|r| r.measured_dop > 1));
    }

    #[test]
    fn clr_model_makes_q5_cpu_bound() {
        let mut s = build_table1_db(3_000); // paper hosting: 2 µs/call
        let rows = run_table1(&mut s);
        let (q1, q5) = (&rows[0], &rows[4]);
        // Q5 is charged exactly 2 µs × rows of modelled CLR time; Q1 none.
        assert_eq!(q5.clr_seconds, (3_000 * 2_000) as f64 * 1e-9);
        assert_eq!(q1.clr_seconds, 0.0);
        assert!(q5.cpu_percent > 90.0);
    }
}
