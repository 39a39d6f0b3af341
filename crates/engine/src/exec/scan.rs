//! The partitioned-scan driver: the one place a table scan — full, or
//! confined to a key interval — is fanned out, accounted and timed.
//!
//! [`run_scan`] owns partitioning, the per-worker reader and hosting
//! fork, the panic boundary, and the counter fold; a statement supplies
//! only a *body* closure that drives its partition through a
//! [`ScanWorker`]. [`ScanTotals`] is the statement-long meter those
//! counters fold into and [`QueryStats`] is built from.

use super::{Access, QueryStats, StmtCtx};
use crate::expr::{eval, EvalEnv, Expr};
use crate::hosting::HostingModel;
use crate::udf::UdfRegistry;
use crate::value::{EngineError, Result, Value};
use sqlarray_core::batch::Batch;
use sqlarray_core::parallel::scoped_map_ranges;
use sqlarray_core::QueryCtx;
use sqlarray_storage::{
    BatchScanOpts, IoStats, PageStore, PartitionReader, ScanIo, ScanPartition, Table,
};
use std::collections::HashMap;
use std::time::Instant;

/// The statement-long meter: started before any work, folded into by
/// [`run_scan`], closed into [`QueryStats`].
pub(super) struct ScanTotals {
    pub started_at: Instant,
    pub io_before: IoStats,
    /// A scan began, so pages may have been read: from here on a failing
    /// statement owes the session its partial measurements.
    scanned: bool,
    pub rows_scanned: u64,
    pub batches: u64,
    /// Workers the scan used; 1 when there was no scan.
    pub dop: usize,
    /// Summed worker busy time.
    pub busy_seconds: f64,
    /// The longest single worker's busy time.
    pub max_busy: f64,
    /// Rows a DML apply phase has changed so far.
    pub rows_affected: u64,
    /// Why the scan ran the row interpreter (`None`: it ran a compiled
    /// batch plan, or the statement scans no table).
    pub fallback: Option<crate::batch::Fallback>,
    /// How the scan found its rows (`Full` when there was no scan).
    pub access: Access,
}

impl ScanTotals {
    /// Starts the meter for one statement and zeroes the session's
    /// per-statement hosting counters.
    pub(crate) fn start(store: &PageStore, hosting: &mut HostingModel) -> ScanTotals {
        hosting.reset();
        ScanTotals {
            started_at: Instant::now(),
            io_before: store.stats(),
            scanned: false,
            rows_scanned: 0,
            batches: 0,
            dop: 1,
            busy_seconds: 0.0,
            max_busy: 0.0,
            rows_affected: 0,
            fallback: None,
            access: Access::Full,
        }
    }

    /// Stops the meter. Success returns the measurements beside the
    /// statement's output. A failure once a scan has started — in a
    /// worker, in the merge, in a UDA's `terminate()`, in the DML apply
    /// phase — deposits them in `ctx.partial` instead: the pool saw those
    /// reads, so the session's accounting must too.
    pub(crate) fn close<R>(
        self,
        out: Result<R>,
        store: &PageStore,
        ctx: &mut StmtCtx<'_>,
    ) -> Result<(R, QueryStats)> {
        match out {
            Ok(r) => Ok((r, QueryStats::new(&self, store, ctx.hosting))),
            Err(e) => {
                if self.scanned {
                    *ctx.partial = Some(QueryStats::new(&self, store, ctx.hosting));
                }
                Err(e)
            }
        }
    }
}

/// One partition's scan, as a statement body sees it: the worker's
/// reader, hosting fork and counters behind two visit loops.
pub(super) struct ScanWorker<'a> {
    table: &'a Table,
    part: &'a ScanPartition,
    udfs: &'a UdfRegistry,
    vars: &'a HashMap<String, Value>,
    reader: PartitionReader<'a>,
    hosting: HostingModel,
    rows_scanned: u64,
    batches: u64,
}

/// Storage scan callbacks return `StorageError`, so an engine-level
/// failure cannot ride out through them: park it and stop the scan; the
/// visit loop re-raises it once the storage call has returned.
fn park(step: Result<bool>, parked: &mut Option<EngineError>) -> sqlarray_storage::Result<bool> {
    Ok(step.unwrap_or_else(|e| {
        *parked = Some(e);
        false
    }))
}

impl ScanWorker<'_> {
    /// The statement's lifecycle context, for the body's memory charges.
    pub(crate) fn query(&self) -> QueryCtx {
        self.reader.query().clone()
    }

    /// Visits the partition row by row, in key order. `f` sees an
    /// evaluation environment over this worker's reader (so LOB values
    /// resolve through the same live-pool read path as the leaf pages),
    /// the clustered key and the encoded row; it returns `false` to stop.
    pub(crate) fn for_each_row(
        &mut self,
        mut f: impl FnMut(&mut EvalEnv<'_>, i64, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let mut parked = None;
        let (udfs, vars) = (self.udfs, self.vars);
        let (hosting, rows_scanned) = (&mut self.hosting, &mut self.rows_scanned);
        self.table
            .scan_partition(&mut self.reader, self.part, |reader, key, bytes| {
                reader.check_interrupt()?;
                *rows_scanned += 1;
                let mut env = EvalEnv {
                    udfs,
                    hosting: &mut *hosting,
                    vars,
                    lobs: Some(reader),
                };
                park(f(&mut env, key, bytes), &mut parked)
            })?;
        parked.map_or(Ok(()), Err)
    }

    /// Visits the partition as column batches of `plan`'s columns, at
    /// most `rows_cap` rows each. `f` returns `false` to stop.
    pub(crate) fn for_each_batch(
        &mut self,
        plan: &crate::batch::BatchPlan,
        rows_cap: usize,
        mut f: impl FnMut(&mut EvalEnv<'_>, &Batch) -> Result<bool>,
    ) -> Result<()> {
        let mut batch = sqlarray_storage::row::new_batch(self.table.schema(), &plan.cols)?;
        let mut parked = None;
        let (udfs, vars) = (self.udfs, self.vars);
        let (hosting, rows_scanned, batches) =
            (&mut self.hosting, &mut self.rows_scanned, &mut self.batches);
        self.table.scan_partition_batches(
            &mut self.reader,
            self.part,
            BatchScanOpts {
                cols: &plan.cols,
                rows_cap,
                leaf_aligned: plan.leaf_aligned,
            },
            &mut batch,
            |reader, b| {
                reader.check_interrupt()?;
                *rows_scanned += b.len() as u64;
                *batches += 1;
                let mut env = EvalEnv {
                    udfs,
                    hosting: &mut *hosting,
                    vars,
                    lobs: Some(reader),
                };
                park(f(&mut env, b), &mut parked)
            },
        )?;
        parked.map_or(Ok(()), Err)
    }
}

/// What one worker hands back to the fold. Counters are unconditional —
/// the worker's reads already landed in the live buffer pool, so a failed
/// body must not leave the pool warmer than the session's [`IoStats`]
/// admit; the body's failure rides in `out`.
struct Partial<T> {
    rows_scanned: u64,
    batches: u64,
    scan_io: ScanIo,
    calls: u64,
    charged_ns: u64,
    busy_seconds: f64,
    out: Result<T>,
}

/// Renders a caught panic payload for [`EngineError::WorkerPanicked`].
/// `panic!` with a literal carries `&str`, with a format string carries
/// `String`; anything else (a `panic_any` payload) gets a fixed label.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Scans the leaves of `table` that can hold a key of `keys` (every leaf
/// for the full interval, one root-to-leaf path for a single key) with
/// `body` run once per partition, and returns the bodies' outputs in
/// partition (= key) order, folding every worker's counters into
/// `totals`. With one partition the fan-out helper runs inline, so the
/// serial plan is the parallel plan at width 1.
///
/// This is the statement's one fan-out: the array, FFT and linear-algebra
/// kernels a worker's expressions call run on that worker's thread, so a
/// statement never uses more threads than its admission ticket granted.
/// Workers share nothing mutable.
pub(super) fn run_scan<T: Send>(
    ctx: &mut StmtCtx<'_>,
    store: &PageStore,
    table: &Table,
    totals: &mut ScanTotals,
    keys: std::ops::RangeInclusive<i64>,
    body: impl Fn(&mut ScanWorker<'_>) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    totals.scanned = true;
    let parts = table.partition_keys(store, ctx.dop.max(1), keys)?;
    let scan = store.begin_scan_for(ctx.query.clone());
    let (udfs, vars) = (ctx.udfs, ctx.vars);
    let hosting: &HostingModel = ctx.hosting;
    let run_partition = |pi: usize| {
        let t0 = Instant::now();
        let mut w = ScanWorker {
            table,
            part: &parts[pi],
            udfs,
            vars,
            reader: store.reader(&scan, pi as u32),
            hosting: hosting.fork(),
            rows_scanned: 0,
            batches: 0,
        };
        // The panic boundary wraps only the body, not the reader: a
        // worker that panics mid-row still hands its I/O counters
        // back through `reader.finish()` below — and the unwind never
        // crosses a lock guard (the coordinator holds them), so no
        // lock is poisoned by a buggy UDF. For DML this is the
        // read-only match phase: a contained panic aborts the
        // statement before any page or WAL byte changes.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut w)))
            .unwrap_or_else(|p| Err(EngineError::WorkerPanicked(panic_message(p.as_ref()))));
        Partial {
            rows_scanned: w.rows_scanned,
            batches: w.batches,
            scan_io: w.reader.finish(),
            calls: w.hosting.calls(),
            charged_ns: w.hosting.charged_ns(),
            busy_seconds: t0.elapsed().as_secs_f64(),
            out,
        }
    };
    // One worker per partition (singleton ranges).
    let partials: Vec<Partial<T>> = scoped_map_ranges(parts.len(), parts.len(), |r| {
        r.map(&run_partition).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    totals.dop = parts.len();
    drop(scan);

    let mut scan_ios = Vec::with_capacity(partials.len());
    let mut outs = Vec::with_capacity(partials.len());
    let mut first_err = None;
    for w in partials {
        totals.rows_scanned += w.rows_scanned;
        totals.batches += w.batches;
        scan_ios.push(w.scan_io);
        ctx.hosting.absorb(w.calls, w.charged_ns);
        // lint:allow(L002, reason = "wall-clock diagnostics, not query results; timing is inherently non-deterministic and outside the bit-identity contract")
        totals.busy_seconds += w.busy_seconds;
        totals.max_busy = totals.max_busy.max(w.busy_seconds);
        match w.out {
            Ok(out) => outs.push(out),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    // The live pool already saw every worker touch; this merges the
    // counters (with cross-partition classification stitching) and
    // advances the simulated head to the last physical read.
    store.finish_scan(scan_ios.iter());
    first_err.map_or(Ok(outs), Err)
}

/// Evaluates row-less expressions (a FROM-less select list, a
/// `DECLARE`/`SET` initializer) under the statement's lifecycle. LOB-typed
/// variables resolve through a one-partition scan reader — the same
/// live-pool handle scan workers use — whose I/O folds back like any
/// one-worker scan, even when evaluation fails, so the pool and the
/// stats stay consistent with each other. The lifecycle is polled around
/// every expression: nothing here reads a page unless a LOB resolves, and
/// a slow or pre-cancelled statement must still stop.
pub(crate) fn eval_scalars<'e>(
    ctx: &mut StmtCtx<'_>,
    store: &PageStore,
    exprs: impl IntoIterator<Item = &'e Expr>,
) -> Result<Vec<Value>> {
    let scan = store.begin_scan_for(ctx.query.clone());
    let mut reader = store.reader(&scan, 0);
    let evaluated = (|| -> Result<Vec<Value>> {
        let mut eval_env = EvalEnv {
            udfs: ctx.udfs,
            hosting: ctx.hosting,
            vars: ctx.vars,
            lobs: Some(&mut reader),
        };
        let mut out = Vec::new();
        for e in exprs {
            ctx.query.check()?;
            out.push(eval(e, None, &mut eval_env)?);
        }
        ctx.query.check()?;
        Ok(out)
    })();
    let io = reader.finish();
    store.finish_scan([&io]);
    evaluated
}
