//! The query executor: partitioned clustered-index scans — of the whole
//! index, or of the key interval a WHERE admits — with filters,
//! projections, built-in aggregates, GROUP BY and user-defined aggregates,
//! fanned out over a configurable degree of parallelism.
//!
//! ## The parallel pipeline
//!
//! Every statement that reads a table — a SELECT, or the match phase of
//! an UPDATE/DELETE — is one scan job (`select::SelectJob`: WHERE plus an
//! item list) with two bodies, the row interpreter and the vectorized
//! path, and goes through one driver, `scan::run_scan`, regardless of DOP:
//!
//! 1. [`sqlarray_storage::Table::partition_keys`] splits the leaves the
//!    statement's key interval covers (`access::KeyRange::of` its WHERE:
//!    every leaf without a predicate on the clustered key, one
//!    root-to-leaf path for `WHERE id = k`) into at most `dop` contiguous
//!    leaf-page ranges (key order preserved);
//! 2. each partition is scanned by a worker — inline on the calling thread
//!    for one partition, on [`std::thread::scope`] threads otherwise —
//!    holding its own [`sqlarray_storage::PartitionReader`], a
//!    [`HostingModel`] fork, and whatever private state the statement's
//!    body closure builds (accumulators, projected or matched rows);
//!    every worker read touches the **live** sharded buffer pool
//!    immediately, while the simulated I/O classifies against the
//!    start-of-scan residency snapshot in [`sqlarray_storage::ScanCtx`];
//!    the driver holds the single panic boundary, so a buggy UDF becomes
//!    a typed [`EngineError::WorkerPanicked`];
//! 3. the driver folds every worker's counters — rows, batches, hosting
//!    calls, busy time, and per-worker I/O through
//!    [`PageStore::finish_scan`], which stitches the sequential/random
//!    classification across partition boundaries and advances the
//!    simulated disk head to the scan's last *physical* read —
//!    unconditionally, failed workers included, and hands the bodies'
//!    outputs back **in partition order**: projection rows concatenate
//!    (and truncate to `TOP`; a DML match phase has no limit and its rows
//!    arrive in key order), groups combine accumulator by accumulator
//!    (exact-sum merge for `SUM`/`AVG`, `Merge()`-style state merge for
//!    UDAs).
//!
//! Results are **bit-identical at every DOP**: partitions cover the scanned
//! leaves in key order, `SUM`/`AVG` accumulate in an order-independent exact
//! accumulator ([`sqlarray_core::exact::ExactSum`]), and order-sensitive
//! UDA state merges in partition order. The serial plan is literally the
//! parallel plan at width 1, so both sides of that guarantee share the
//! driver's code.
//!
//! ## Layout
//!
//! * this file — [`QueryStats`], [`QueryResult`] and the statement
//!   context;
//! * `scan` — the partitioned-scan driver and the statement meter that
//!   becomes [`QueryStats`];
//! * `access` — the key interval a WHERE confines its scan to, and the
//!   rules that keep a keyed scan bit-identical to the full one
//!   ([`QueryStats::access`] reports the outcome);
//! * `agg` — GROUP BY keys and select-list accumulators;
//! * `select` — SELECT and the scan job: the row and batch scan bodies
//!   and the merge (which body runs is decided by
//!   `crate::batch::plan_select`, the one fallback seam; its typed reason
//!   lands in [`QueryStats::fallback`]);
//! * `dml` — UPDATE/DELETE: the match phase handed to the scan job, then
//!   one `Table::apply` call that resolves and writes each matched row.

mod access;
mod agg;
mod dml;
mod scan;
mod select;

pub use access::Access;
pub(crate) use dml::{exec_delete, exec_update};
pub(crate) use scan::eval_scalars;
pub(crate) use select::exec_select;

use crate::aggregate::{UdaMode, UdaRegistry};
use crate::batch::Fallback;
use crate::hosting::HostingModel;
use crate::udf::UdfRegistry;
use crate::value::{EngineError, Result, Value};
use sqlarray_core::QueryCtx;
use sqlarray_storage::{IoStats, PageStore};
use std::collections::HashMap;

/// Default cap on rows returned by a projection without `TOP`.
pub const DEFAULT_ROW_LIMIT: usize = 100_000;

/// Per-query measurements — the raw numbers behind a Table 1 row.
///
/// Two kinds of column sit side by side and are never mixed here.
/// **Measured** on this host: [`wall_seconds`](Self::wall_seconds) and
/// [`cpu_seconds`](Self::cpu_seconds). **Modelled by counting**, hence
/// bit-reproducible: [`sim_io_seconds`](Self::sim_io_seconds) (pages ×
/// [`sqlarray_storage::DiskProfile`]) and
/// [`udf_overhead_ns`](Self::udf_overhead_ns) (managed calls ×
/// [`HostingModel::overhead_ns`]); no simulated time is ever executed, so
/// the measured columns contain none. The paper's overlap formulae that
/// combine the two (execution time, CPU %, MB/s on the 8-core testbed)
/// are written once, in `sqlarray-bench`'s Table 1 report.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Rows the scan visited (before WHERE), summed over workers. Under
    /// `TOP`-style early termination this can differ between DOPs (each
    /// worker stops independently); result rows never do. The vectorized
    /// path counts a whole batch when it is handed to the filter, so under
    /// `TOP` it can run slightly ahead of the row-at-a-time count.
    pub rows_scanned: u64,
    /// Column batches the vectorized scan — a SELECT's, or the match phase
    /// of an UPDATE/DELETE — produced, summed over workers. 0 when the
    /// statement ran the row-at-a-time path (fallback or batch execution
    /// disabled).
    pub batches: u64,
    /// Mean rows per batch (`rows_scanned / batches`); 0 when no batches
    /// ran. Full batches (≈ the configured batch size) mean the scan
    /// amortized per-row decode well; low fill means leaf-aligned flushes
    /// (blob plans) or a small table.
    pub batch_fill: f64,
    /// Managed UDF invocations during the query, summed over workers.
    /// A non-aggregate select item inside an aggregate query evaluates
    /// once per worker (each worker primes its own partial, the merge
    /// keeps the first), so its UDF calls — unlike result rows — can
    /// scale with DOP.
    pub udf_calls: u64,
    /// Modelled hosting overhead, nanoseconds: `udf_calls` × the session's
    /// [`HostingModel::overhead_ns`]. Counted, never executed.
    pub udf_overhead_ns: u64,
    /// Measured CPU-busy seconds: the sum of every worker's busy time plus
    /// the coordinator's non-overlapped setup/merge time. At DOP 1 this
    /// equals [`wall_seconds`](Self::wall_seconds); at DOP > 1 it exceeds
    /// the wall clock by (roughly) the parallel speedup factor.
    pub cpu_seconds: f64,
    /// Measured wall-clock seconds for the whole execution.
    pub wall_seconds: f64,
    /// Workers the scan actually used (≤ the session DOP; 1 when the
    /// table was too small to split or there was no scan).
    pub dop: usize,
    /// Page-level I/O performed (partitioning reads + all workers).
    pub io: IoStats,
    /// Modelled seconds the simulated disk needs for that I/O.
    pub sim_io_seconds: f64,
    /// Rows an UPDATE/DELETE statement changed (0 for SELECT).
    pub rows_affected: u64,
    /// Why the statement's table scan (a SELECT's, or the match phase of
    /// an UPDATE/DELETE) ran the row-at-a-time interpreter instead of a
    /// compiled batch plan; `None` when it ran vectorized (and for
    /// FROM-less SELECTs, which scan nothing).
    pub fallback: Option<Fallback>,
    /// How the statement's table scan found its rows: [`Access::Seek`] or
    /// [`Access::Range`] when its WHERE confined the clustered key,
    /// [`Access::Full`] otherwise (and for FROM-less SELECTs).
    pub access: Access,
}

impl QueryStats {
    /// The one place a statement's measurements are assembled: the
    /// driver's folded worker counters plus the store and hosting deltas
    /// since the meter started. Successful statements, aborted scans and
    /// failed apply phases all report through here.
    fn new(totals: &scan::ScanTotals, store: &PageStore, hosting: &HostingModel) -> QueryStats {
        let wall_seconds = totals.started_at.elapsed().as_secs_f64();
        let io = store.stats().since(&totals.io_before);
        QueryStats {
            rows_scanned: totals.rows_scanned,
            batches: totals.batches,
            batch_fill: if totals.batches > 0 {
                totals.rows_scanned as f64 / totals.batches as f64
            } else {
                0.0
            },
            udf_calls: hosting.calls(),
            udf_overhead_ns: hosting.charged_ns(),
            // Coordinator time not overlapped with the longest worker
            // (planning, fan-out, merge, the DML apply phase) is serial
            // CPU work too; with no scan at all it is the whole wall.
            cpu_seconds: totals.busy_seconds + (wall_seconds - totals.max_busy).max(0.0),
            wall_seconds,
            dop: totals.dop,
            sim_io_seconds: store.profile().io_seconds(&io),
            io,
            rows_affected: totals.rows_affected,
            fallback: totals.fallback.clone(),
            access: totals.access,
        }
    }

    /// Measured parallel speedup of the CPU portion: total CPU work done
    /// per second of wall clock (`cpu_seconds / wall_seconds`). ≈ 1 at
    /// DOP 1; approaches `dop` for a CPU-bound query that scales.
    pub fn measured_speedup(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            1.0
        } else {
            self.cpu_seconds / self.wall_seconds
        }
    }
}

/// A query result: column names, rows, measurements.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Measurements.
    pub stats: QueryStats,
    /// `@var = expr` assignments produced by the select list.
    pub assignments: Vec<(String, Value)>,
}

impl QueryResult {
    /// The single value of a one-row, one-column result.
    pub fn scalar(&self) -> Result<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Ok(&self.rows[0][0])
        } else {
            Err(EngineError::Type(format!(
                "expected a scalar result, got {}x{}",
                self.rows.len(),
                self.rows.first().map(|r| r.len()).unwrap_or(0)
            )))
        }
    }
}

/// What a statement borrows from its session and engine for as long as
/// it runs — the same for SELECT, UPDATE/DELETE and DECLARE/SET
/// initializers. The session's lifecycle wrapper builds it once per
/// statement; the database arrives separately, because SELECT holds it
/// shared (many sessions scan under one read guard) and DML exclusively
/// (the apply phase writes pages, WAL and the catalog entry).
pub(crate) struct StmtCtx<'a> {
    /// Scalar UDFs.
    pub udfs: &'a UdfRegistry,
    /// Session variables.
    pub vars: &'a HashMap<String, Value>,
    /// Hosting model (mutated; per-session, not shared).
    pub hosting: &'a mut HostingModel,
    /// The statement's lifecycle context: cancellation, deadline, memory
    /// budget. Stamped into the scan context so every worker's reader
    /// polls it. DML polls it throughout the parallel match phase; the
    /// apply phase deliberately ignores it — once its first page mutates,
    /// the statement runs to its commit or to its first error. What can
    /// stop an apply phase is the data or the storage: a value its column
    /// cannot hold, a row past the leaf-record limit, a cold page that
    /// fails its checksum or its read. The session then returns the
    /// database to the last commit (`Database::rollback`), so no failure
    /// leaves a half-applied statement behind.
    pub query: &'a QueryCtx,
    /// Workers the scan may fan out over (≥ 1): the admission grant, or 1
    /// for an initializer, which takes no ticket.
    pub dop: usize,
    /// Where the executor deposits the statement's measurements when it
    /// fails after its scan started (cancel/timeout/budget/panic, but
    /// also a merge or `terminate()` error): the counters of the work
    /// actually performed, which the happy path would have returned
    /// inside [`QueryResult`].
    pub partial: &'a mut Option<QueryStats>,
}

/// What a table-scanning statement reads besides [`StmtCtx`]: SELECT all
/// of it, the match phase of UPDATE/DELETE the batch size and the plan
/// slot (it aggregates nothing and no row limit applies to it).
pub(crate) struct SelectOpts<'a> {
    /// User-defined aggregates.
    pub udas: &'a UdaRegistry,
    /// UDA state-maintenance mode.
    pub uda_mode: UdaMode,
    /// Row cap for projections without TOP.
    pub row_limit: usize,
    /// Target rows per column batch for vectorized scans; 0 disables
    /// batch execution entirely (every statement runs row-at-a-time).
    pub batch_rows: usize,
    /// This statement's compiled-plan slot in the engine's plan cache.
    pub cached: &'a crate::plancache::SelectSlot,
}
