//! Shared fixtures and runners for the experiment harness.
//!
//! Every quantitative artefact of the paper maps to a function here; the
//! `bin/` report binaries print the paper's row format and the Criterion
//! benches in `benches/` time the same code paths. See EXPERIMENTS.md for
//! the experiment ↔ paper index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sqlarray_engine::{Database, Engine, HostingModel, Session, Settings, Value};
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

/// Default row count for report binaries (overridable via
/// `SQLARRAY_ROWS`). The paper used 357 M rows on a 16-core server; one
/// million preserves every per-row cost ratio at laptop scale.
pub const DEFAULT_ROWS: i64 = 1_000_000;

/// Degree of parallelism of the modelled testbed. The paper's server ran
/// the scans on two quad-core CPUs ("all eight cores were used", §7.1).
/// The *modelled* Table 1 columns divide serial CPU work by this factor to
/// project onto the paper's hardware; since the engine gained real
/// parallel execution, every row also carries a **measured** wall-clock
/// split (serial vs `SQLARRAY_DOP`-parallel) so the projection can be
/// checked against actual threading on the machine running the report.
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

/// What one measured bulk ingest reports: wall-clock plus the
/// DOP-invariant accounting a parallel load must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Rows loaded per table.
    pub rows: i64,
    /// Encode/leaf-build lanes used.
    pub dop: usize,
    /// Measured wall seconds for the two bulk loads (excludes synthetic
    /// row generation).
    pub wall_seconds: f64,
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

// The two row builders are called one at a time (each table's rows are
// generated, loaded, and dropped before the next table's are built), so
// the transient row memory peaks at one table, like the old streaming
// insert path.

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
/// the measured [`IngestReport`]. Each table bulk-loads in one pass, so
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

    // Time only the bulk loads, not the synthetic row generation; each
    // table's rows are dropped before the next table's are built.
    let mut wall_seconds = 0.0f64;
    {
        let scalar_rows = tscalar_rows(rows);
        let t0 = std::time::Instant::now();
        db.bulk_insert_with_dop("Tscalar", &scalar_rows, dop)
            .expect("bulk load Tscalar");
        wall_seconds += t0.elapsed().as_secs_f64();
    }
    {
        let vector_rows = tvector_rows(rows);
        let t0 = std::time::Instant::now();
        db.bulk_insert_with_dop("Tvector", &vector_rows, dop)
            .expect("bulk load Tvector");
        wall_seconds += t0.elapsed().as_secs_f64();
    }

    let report = IngestReport {
        rows,
        dop,
        wall_seconds,
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

/// One measured row of the reproduced Table 1: the modelled paper-testbed
/// projection plus the measured serial/parallel wall-clock split.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Query number (1-based, as in the paper).
    pub query: usize,
    /// Modelled execution time (s): `max(serial cpu / TESTBED_DOP,
    /// simulated I/O)` — the projection onto the paper's 8-core testbed.
    pub exec_seconds: f64,
    /// Modelled CPU load in percent of the execution time.
    pub cpu_percent: f64,
    /// Modelled effective I/O rate over the execution time, MB/s.
    pub io_mb_per_sec: f64,
    /// Raw single-thread CPU seconds (serial run).
    pub cpu_seconds: f64,
    /// Simulated disk seconds.
    pub io_seconds: f64,
    /// Managed UDF calls made.
    pub udf_calls: u64,
    /// Rows scanned.
    pub rows: u64,
    /// Measured wall clock of the cold serial (DOP 1) run.
    pub wall_serial_seconds: f64,
    /// Measured wall clock of the cold parallel run at the session DOP.
    pub wall_parallel_seconds: f64,
    /// Workers the parallel run actually used.
    pub measured_dop: usize,
    /// Measured parallel speedup: serial wall / parallel wall.
    pub measured_speedup: f64,
}

/// Runs one Table 1 query twice, cold each time (buffer pool cleared
/// first, as in §6.3): once at DOP 1 for the serial baseline that feeds
/// the modelled paper columns, once at the session's configured DOP for
/// the measured parallel numbers. Panics if the two runs are not
/// bit-identical — the executor's determinism guarantee is part of what
/// the harness verifies on every invocation.
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

    let s = &serial.stats;
    let cpu_wall = s.cpu_seconds / TESTBED_DOP;
    let exec = cpu_wall.max(s.sim_io_seconds);
    Table1Row {
        query: query_no,
        exec_seconds: exec,
        cpu_percent: if exec > 0.0 {
            100.0 * cpu_wall / exec
        } else {
            0.0
        },
        io_mb_per_sec: if exec > 0.0 {
            s.io.bytes_read() as f64 / (1024.0 * 1024.0) / exec
        } else {
            0.0
        },
        cpu_seconds: s.cpu_seconds,
        io_seconds: s.sim_io_seconds,
        udf_calls: s.udf_calls,
        rows: s.rows_scanned,
        wall_serial_seconds: s.wall_seconds,
        wall_parallel_seconds: parallel.stats.wall_seconds,
        measured_dop: parallel.stats.dop,
        measured_speedup: if parallel.stats.wall_seconds > 0.0 {
            s.wall_seconds / parallel.stats.wall_seconds
        } else {
            1.0
        },
    }
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

/// Measured serial vs blocked/parallel dense-kernel timings for the
/// report's linalg section. Every variant is asserted bit-identical to
/// the naive serial result before the numbers are returned.
#[derive(Debug, Clone)]
pub struct LinalgReport {
    /// Square gemm fixture edge (`n × n · n × n`).
    pub gemm_n: usize,
    /// Naive jki serial gemm, seconds (best of three).
    pub gemm_naive_seconds: f64,
    /// Cache-blocked gemm at DOP 1, seconds.
    pub gemm_blocked_seconds: f64,
    /// Cache-blocked gemm at the configured DOP, seconds.
    pub gemm_parallel_seconds: f64,
    /// PCA fixture shape (samples, features, retained components).
    pub pca_shape: (usize, usize, usize),
    /// PCA fit at DOP 1, seconds.
    pub pca_serial_seconds: f64,
    /// PCA fit at the configured DOP, seconds.
    pub pca_parallel_seconds: f64,
    /// Lanes the parallel runs used.
    pub dop: usize,
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}

/// Times the linalg kernels the PCA/spectral workloads funnel through
/// (§2.2): naive vs cache-blocked vs parallel `gemm`, and serial vs
/// parallel PCA fit, asserting bit-identical results across all paths —
/// the linalg counterpart of [`run_table1_query`]'s serial/parallel
/// split.
pub fn run_linalg_report(dop: usize) -> LinalgReport {
    use sqlarray_linalg::{blas, pca, Matrix};

    let n = 512;
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 61) as f64 / 61.0 - 0.5);
    let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 41) % 53) as f64 / 53.0 - 0.5);
    let (gemm_naive_seconds, c_naive) = best_of(3, || blas::gemm_naive(&a, &b));
    let (gemm_blocked_seconds, c_blocked) = best_of(3, || blas::gemm_with_dop(&a, &b, 1));
    let (gemm_parallel_seconds, c_par) = best_of(3, || blas::gemm_with_dop(&a, &b, dop));
    let bits = |x: &Matrix, y: &Matrix| {
        x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
    };
    assert!(
        bits(&c_blocked, &c_naive) && bits(&c_par, &c_naive),
        "blocked/parallel gemm diverged from naive serial"
    );

    let (samples, features, k) = (2_000, 64, 16);
    let data = Matrix::from_fn(samples, features, |i, j| {
        let t = i as f64 * 0.01;
        (j as f64 + 1.0) * t.sin() + ((i * 7 + j * 3) % 11) as f64 * 0.02
    });
    let (pca_serial_seconds, fit_serial) = best_of(2, || pca::fit_with_dop(&data, k, 1));
    let (pca_parallel_seconds, fit_par) = best_of(2, || pca::fit_with_dop(&data, k, dop));
    assert!(
        bits(&fit_par.components, &fit_serial.components),
        "parallel PCA fit diverged from serial"
    );

    LinalgReport {
        gemm_n: n,
        gemm_naive_seconds,
        gemm_blocked_seconds,
        gemm_parallel_seconds,
        pca_shape: (samples, features, k),
        pca_serial_seconds,
        pca_parallel_seconds,
        dop,
    }
}

/// A one-row table holding one large max-class f64 array, plus the two
/// query forms the pushdown experiments compare: `Subarray` straight over
/// the LOB column (page-ranged reads) vs the same `Subarray` over an
/// identity-`Reshape`d copy (which materializes the whole blob first).
pub struct SubarrayFixture {
    /// Session owning the `Tcube(id, v)` table.
    pub session: Session,
    /// Array dimensions.
    pub dims: [usize; 3],
    /// Array payload size in bytes.
    pub array_bytes: usize,
    /// Bytes of the benchmarked slab region.
    pub region_bytes: usize,
    /// `Subarray` over the base LOB column — the pushdown path.
    pub pushdown_sql: String,
    /// `Subarray` over a fully materialized copy — the baseline.
    pub full_sql: String,
}

/// Builds the pushdown fixture for an `mb`-megabyte stored array. The
/// benchmarked region is a one-plane slab (`a × a × 1` of an `a × a × d`
/// cube): 3.1 % of a 1 MB array, 0.78 % of a 16 MB array.
pub fn build_subarray_fixture(mb: usize) -> SubarrayFixture {
    use sqlarray_core::{SqlArray, StorageClass};

    let elems = mb * 1024 * 1024 / 8;
    let a = if elems >= 128 * 128 * 128 { 128 } else { 64 };
    let dims = [a, a, elems / (a * a)];
    let arr = SqlArray::from_fn(StorageClass::Max, &dims, |idx| {
        (idx[0] + a * idx[1] + a * a * idx[2]) as f64
    })
    .expect("fixture array");

    let mut db = Database::new();
    db.create_table(
        "Tcube",
        Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
    )
    .expect("fresh database");
    db.insert(
        "Tcube",
        0,
        &[RowValue::I64(0), RowValue::Bytes(arr.into_blob())],
    )
    .expect("insert cube row");

    let vec3 = |v: [usize; 3]| format!("IntArray.Vector_3({}, {}, {})", v[0], v[1], v[2]);
    let offset = vec3([0, 0, dims[2] / 2]);
    let size = vec3([dims[0], dims[1], 1]);
    let dims_v = vec3(dims);
    SubarrayFixture {
        session: Engine::new(db).session_with_hosting(HostingModel::free()),
        dims,
        array_bytes: elems * 8,
        region_bytes: dims[0] * dims[1] * 8,
        pushdown_sql: format!(
            "SELECT id, FloatArrayMax.Subarray(v, {offset}, {size}, 0) FROM Tcube"
        ),
        full_sql: format!(
            "SELECT id, FloatArrayMax.Subarray(FloatArrayMax.Reshape(v, {dims_v}), \
             {offset}, {size}, 0) FROM Tcube"
        ),
    }
}

/// One measured row of the subarray-pushdown experiment.
#[derive(Debug, Clone)]
pub struct SubarrayReport {
    /// Stored array size in MB.
    pub mb: usize,
    /// Slice size as a percentage of the array.
    pub slice_percent: f64,
    /// Cold pages read by the pushdown query.
    pub pushdown_pages: u64,
    /// Cold pages read by the full-materialize query.
    pub full_pages: u64,
    /// Cold wall seconds of the pushdown query.
    pub pushdown_seconds: f64,
    /// Cold wall seconds of the full-materialize query.
    pub full_seconds: f64,
}

impl SubarrayReport {
    /// Page-read reduction factor (the headline number).
    pub fn page_factor(&self) -> f64 {
        self.full_pages as f64 / self.pushdown_pages.max(1) as f64
    }
}

/// Runs the pushdown experiment at 1 MB and 16 MB, cold each time, and
/// panics unless both paths return bit-identical rows — pushdown is an
/// I/O optimization, never a different answer.
pub fn run_subarray_report() -> Vec<SubarrayReport> {
    [1usize, 16]
        .into_iter()
        .map(|mb| {
            let mut fx = build_subarray_fixture(mb);
            fx.session.db().store.clear_cache();
            let push = fx
                .session
                .query(&fx.pushdown_sql)
                .expect("pushdown subarray query");
            fx.session.db().store.clear_cache();
            let full = fx
                .session
                .query(&fx.full_sql)
                .expect("full-materialize subarray query");
            assert!(
                rows_bit_identical(&push.rows, &full.rows),
                "pushdown result diverged from full materialization at {mb} MB"
            );
            SubarrayReport {
                mb,
                slice_percent: 100.0 * fx.region_bytes as f64 / fx.array_bytes as f64,
                pushdown_pages: push.stats.io.pages_read,
                full_pages: full.stats.io.pages_read,
                pushdown_seconds: push.stats.exec_seconds(),
                full_seconds: full.stats.exec_seconds(),
            }
        })
        .collect()
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

/// One row of the vectorized-execution comparison: the same query timed
/// on the row-at-a-time interpreter (`set_batch_rows(0)`) and on the
/// default columnar batch pipeline, warm-cache and serial, after the
/// bit-identity of the two paths was asserted at DOP 1/2/4/8.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Human label for the workload shape.
    pub label: &'static str,
    /// The SQL text measured.
    pub sql: &'static str,
    /// Best-of-three warm wall seconds on the row interpreter.
    pub row_seconds: f64,
    /// Best-of-three warm wall seconds on the batch pipeline.
    pub batch_seconds: f64,
    /// Batches flushed by the batch run.
    pub batches: u64,
    /// Mean rows per flushed batch.
    pub batch_fill: f64,
}

impl BatchReport {
    /// Row-path wall time over batch-path wall time (the headline number).
    pub fn speedup(&self) -> f64 {
        self.row_seconds / self.batch_seconds.max(1e-9)
    }
}

/// Times [`BATCH_QUERIES`] on the row path vs the batch path, serial and
/// warm (the comparison isolates CPU work, not buffer-pool behaviour).
/// Before timing, every query is run on both paths at DOP 1/2/4/8 and the
/// results must be bit-identical — a vectorization divergence panics the
/// report rather than printing a tainted speedup. The session's DOP and
/// batch size are restored afterwards.
pub fn run_batch_report(session: &mut Session) -> Vec<BatchReport> {
    let (saved_dop, saved_batch) = (session.dop(), session.batch_rows());
    let mut out = Vec::with_capacity(BATCH_QUERIES.len());
    for (label, sql) in BATCH_QUERIES {
        // Correctness gate: serial row baseline vs batch at every DOP.
        session.set_batch_rows(0);
        session.set_dop(1);
        let base = session.query(sql).expect("row-path query");
        for dop in [1usize, 2, 4, 8] {
            session.set_batch_rows(sqlarray_core::batch::DEFAULT_BATCH_ROWS);
            session.set_dop(dop);
            let got = session.query(sql).expect("batch-path query");
            assert!(
                rows_bit_identical(&base.rows, &got.rows),
                "batch result diverged from row path at DOP {dop} for {sql}"
            );
        }
        session.set_dop(1);

        let time_best = |session: &mut Session| {
            let mut best = f64::INFINITY;
            let mut stats = None;
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                let r = session.query(sql).expect("timed query");
                best = best.min(t0.elapsed().as_secs_f64());
                stats = Some(r.stats);
            }
            (best, stats.expect("three timed runs"))
        };
        session.set_batch_rows(0);
        let (row_seconds, _) = time_best(session);
        session.set_batch_rows(sqlarray_core::batch::DEFAULT_BATCH_ROWS);
        let (batch_seconds, stats) = time_best(session);
        out.push(BatchReport {
            label,
            sql,
            row_seconds,
            batch_seconds,
            batches: stats.batches,
            batch_fill: stats.batch_fill,
        });
    }
    session.set_dop(saved_dop);
    session.set_batch_rows(saved_batch);
    out
}

// --- shared-engine concurrency ----------------------------------------

/// The statement every session in the concurrency report runs: Table 1's
/// Q3, the CPU-bound full scan (`SUM(v1)` over `Tscalar`).
pub const CONCURRENCY_QUERY: &str = TABLE1_QUERIES[2];

/// One row of the multi-session throughput report: `sessions` concurrent
/// sessions over one shared engine draining a fixed batch of
/// [`CONCURRENCY_QUERY`] runs.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrencyReport {
    /// Concurrent sessions sharing the engine.
    pub sessions: usize,
    /// Queries drained across all sessions.
    pub queries: usize,
    /// Wall clock for the whole batch.
    pub wall_seconds: f64,
    /// Plan-cache hits the batch produced.
    pub plan_hits: u64,
}

impl ConcurrencyReport {
    /// Aggregate throughput, queries per second.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_seconds.max(1e-9)
    }
}

/// Drains a fixed batch of `total_queries` [`CONCURRENCY_QUERY`] runs
/// through 1, 2, 4 and 8 concurrent sessions over `session`'s engine,
/// one session per worker thread, each session at DOP 1 (so the scaling
/// measured is session concurrency, not intra-query parallelism). Every
/// result must be bit-identical to a single-session baseline — the
/// snapshot-read guarantee is asserted, not assumed. Warm runs: the
/// comparison isolates the engine's session scaling, not buffer-pool
/// behaviour.
pub fn run_concurrency_report(
    session: &mut Session,
    total_queries: usize,
) -> Vec<ConcurrencyReport> {
    let engine = std::sync::Arc::clone(session.engine());
    let want = {
        let mut s = engine.session_with_hosting(HostingModel::free());
        s.set_dop(1);
        s.query(CONCURRENCY_QUERY).expect("baseline query").rows
    };
    let mut out = Vec::with_capacity(4);
    for sessions in [1usize, 2, 4, 8] {
        let hits_before = engine.stats().plans.hits;
        let t0 = std::time::Instant::now();
        let results =
            sqlarray_core::parallel::scoped_map_ranges(total_queries, sessions, |range| {
                let mut s = engine.session_with_hosting(HostingModel::free());
                s.set_dop(1);
                let mut rows = Vec::new();
                for _ in range {
                    rows = s.query(CONCURRENCY_QUERY).expect("concurrent query").rows;
                }
                rows
            });
        let wall_seconds = t0.elapsed().as_secs_f64();
        for rows in results.iter().filter(|r| !r.is_empty()) {
            assert!(
                rows_bit_identical(rows, &want),
                "concurrent result diverged from the single-session baseline"
            );
        }
        out.push(ConcurrencyReport {
            sessions,
            queries: total_queries,
            wall_seconds,
            plan_hits: engine.stats().plans.hits - hits_before,
        });
    }
    out
}

/// One synthetic-overload run against a deliberately starved engine:
/// how admission control sheds load when demand far exceeds the worker
/// budget, and what that shedding costs.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleReport {
    /// Client threads hammering the engine.
    pub clients: usize,
    /// Statements attempted across all clients.
    pub attempted: usize,
    /// Statements that ran to completion (each asserted bit-identical to
    /// an uncontended baseline).
    pub completed: u64,
    /// Statements refused immediately with `Overloaded` (queue at cap).
    pub rejected_overload: u64,
    /// Statements whose deadline expired while still queued
    /// (`AdmissionTimeout` — they never ran).
    pub admission_timeouts: u64,
    /// Mean admission wait per queued statement, milliseconds.
    pub mean_wait_ms: f64,
}

/// Drives `clients` threads, each issuing `per_client` copies of a
/// slow statement against an engine configured with a worker budget of 1
/// and an admission queue cap of 2, every statement carrying a short
/// deadline. Demand therefore exceeds capacity by construction, and
/// every statement ends in exactly one of three typed outcomes:
/// completed (bit-identical to the uncontended baseline — load shedding
/// must never change an answer), `Overloaded`, or `AdmissionTimeout`.
/// Any other error is a bug and panics the report.
pub fn run_lifecycle_report(clients: usize, per_client: usize) -> LifecycleReport {
    const ROWS: i64 = 200;
    let mut db = Database::new();
    db.create_table(
        "L",
        Schema::new(&[("id", ColType::I64), ("tag", ColType::I32)]),
    )
    .expect("fresh database");
    let rows: KeyedRows = (0..ROWS)
        .map(|k| (k, vec![RowValue::I64(k), RowValue::I32(k as i32)]))
        .collect();
    db.bulk_insert("L", &rows).expect("bulk load");
    db.commit();
    // `dbo.SpinUs` is a fault-injection function: a standard engine does
    // not serve it, this one registers it on top of the standard library.
    let (mut udfs, udas) = Engine::standard_registries();
    sqlarray_engine::faultfn::register_faults(&mut udfs);
    let mut settings = Settings::from_env();
    settings.engine.worker_budget = 1;
    settings.engine.admission_queue_cap = 2;
    let engine = Engine::with_registries(db, settings, udfs, udas);

    // ~50 µs of spin per row ≈ 10 ms per statement: long enough that the
    // budget-1 engine convoys, short enough that the report stays quick.
    let slow = "SELECT COUNT(*), SUM(dbo.SpinUs(tag, 50)) FROM L";
    let want = {
        let mut s = engine.session_with_hosting(HostingModel::free());
        s.set_dop(1);
        s.query(slow).expect("uncontended baseline").rows
    };

    let outcomes = sqlarray_core::parallel::scoped_map_ranges(clients, clients, |range| {
        let mut s = engine.session_with_hosting(HostingModel::free());
        s.set_dop(1);
        s.set_statement_timeout_ms(Some(25));
        let (mut done, mut shed, mut timed) = (0u64, 0u64, 0u64);
        for _ in 0..(range.len() * per_client) {
            match s.query(slow) {
                Ok(r) => {
                    assert!(
                        rows_bit_identical(&r.rows, &want),
                        "overload changed an answer"
                    );
                    done += 1;
                }
                Err(sqlarray_engine::EngineError::Overloaded { .. }) => shed += 1,
                Err(sqlarray_engine::EngineError::AdmissionTimeout { .. }) => timed += 1,
                // The statement deadline can also fire mid-scan under a
                // debug build's slower row loop; count it with the
                // admission timeouts — both are the deadline shedding it.
                Err(sqlarray_engine::EngineError::Timeout { .. }) => timed += 1,
                Err(other) => panic!("unexpected overload outcome: {other:?}"),
            }
        }
        (done, shed, timed)
    });

    let (mut completed, mut rejected, mut timeouts) = (0u64, 0u64, 0u64);
    for (d, s, t) in outcomes {
        completed += d;
        rejected += s;
        timeouts += t;
    }
    let st = engine.stats().sched;
    LifecycleReport {
        clients,
        attempted: clients * per_client,
        completed,
        rejected_overload: rejected,
        admission_timeouts: timeouts,
        mean_wait_ms: st.wait_nanos as f64 / 1e6 / (st.queued.max(1)) as f64,
    }
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
    fn subarray_pushdown_reads_an_order_of_magnitude_fewer_pages() {
        let reports = run_subarray_report();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(
                r.page_factor() >= 10.0,
                "pushdown saved only {:.1}x pages at {} MB: {r:?}",
                r.page_factor(),
                r.mb
            );
        }
        // The 16 MB row benches a ≤ 1 % slice, as the experiment states.
        assert!(reports[1].slice_percent <= 1.0);
    }

    #[test]
    fn lifecycle_report_accounts_for_every_statement() {
        let r = run_lifecycle_report(4, 3);
        assert_eq!(r.attempted, 12);
        assert_eq!(
            r.completed + r.rejected_overload + r.admission_timeouts,
            r.attempted as u64,
            "an overload outcome went unaccounted: {r:?}"
        );
        // A budget-1 engine under 4 clients must actually shed load.
        assert!(r.completed >= 1, "{r:?}");
        assert!(
            r.rejected_overload + r.admission_timeouts >= 1,
            "no statement was shed under synthetic overload: {r:?}"
        );
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
            assert!(row.measured_speedup > 0.0);
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
        let q1 = &rows[0];
        let q5 = &rows[4];
        // Q5 burns ~2 µs × rows of CPU; Q1 almost none.
        assert!(q5.cpu_seconds > 10.0 * q1.cpu_seconds);
        assert!(q5.cpu_percent > 90.0);
    }
}
