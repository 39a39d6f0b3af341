//! SELECT, and the scan job every table-reading statement runs: the key
//! interval its WHERE admits and the row-at-a-time and vectorized bodies,
//! handed to the driver, and the partition-order merge of what they
//! return. The match phase of UPDATE/DELETE is one more [`SelectJob`] —
//! WHERE plus an item list, no row limit — whose rows lead with the
//! clustered key, so a write by key seeks exactly as a read by key does.

use super::access::KeyRange;
use super::agg::{make_accs, BatchAgg, GroupKey, Groups};
use super::scan::{eval_scalars, run_scan, ScanTotals, ScanWorker};
use super::{QueryResult, SelectOpts, StmtCtx};
use crate::aggregate::UdaRegistry;
use crate::batch::{blob_cell, BItem, BVal, BatchPlan, BlobCell, Fallback};
use crate::database::Database;
use crate::expr::{eval, strict_bool, EvalEnv, Expr, RowCtx};
use crate::tsql::{SelectItem, SelectStmt};
use crate::value::{EngineError, Result, Value};
use sqlarray_core::batch::Batch;
use sqlarray_storage::{PageStore, Schema, Table};

/// Rewrites scalar-function calls that name a registered UDA into
/// [`Expr::UdaCall`] nodes.
fn resolve_udas(expr: &Expr, udas: &UdaRegistry) -> Expr {
    match expr {
        Expr::Func { name, args } if udas.contains(name) => Expr::UdaCall {
            name: name.clone(),
            args: args.iter().map(|a| resolve_udas(a, udas)).collect(),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|a| resolve_udas(a, udas)).collect(),
        },
        Expr::Neg(e) => Expr::Neg(Box::new(resolve_udas(e, udas))),
        Expr::Not(e) => Expr::Not(Box::new(resolve_udas(e, udas))),
        Expr::Bin { op, left, right } => Expr::Bin {
            op: *op,
            left: Box::new(resolve_udas(left, udas)),
            right: Box::new(resolve_udas(right, udas)),
        },
        other => other.clone(),
    }
}

fn item_name(item: &SelectItem, index: usize) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    match &item.expr {
        Expr::Col(name) => name.clone(),
        Expr::Agg { func, .. } => format!("{func:?}").to_ascii_lowercase(),
        _ => format!("col{index}"),
    }
}

/// What one scan worker hands back to the merge.
enum WorkerOut {
    /// Projection rows, in key order, capped at the limit.
    Rows(Vec<Vec<Value>>),
    /// Aggregate groups in first-appearance order.
    Groups(Groups),
}

/// The immutable part of one table scan, shared by all its workers: a
/// SELECT's lists, or the WHERE and `[SET expressions…]` an UPDATE/DELETE
/// hands over for its match phase.
pub(super) struct SelectJob<'a> {
    items: &'a [SelectItem],
    where_clause: Option<&'a Expr>,
    group_by: &'a [Expr],
    has_aggregate: bool,
    /// Projection rows to return at most.
    limit: usize,
    /// The statement kind of a DML match phase (`"UPDATE"`/`"DELETE"`):
    /// WHERE must be strictly boolean and every output row leads with the
    /// row's clustered key. `None` for SELECT.
    dml: Option<&'static str>,
    opts: &'a SelectOpts<'a>,
}

impl<'a> SelectJob<'a> {
    /// The match phase of an UPDATE/DELETE (`stmt`): every row passing
    /// `where_clause`, as `[clustered key, items…]`. `TOP` does not parse
    /// on DML and the session's `row_limit` guards result sets, not
    /// writes: no limit applies.
    pub fn dml(
        stmt: &'static str,
        items: &'a [SelectItem],
        where_clause: Option<&'a Expr>,
        opts: &'a SelectOpts<'a>,
    ) -> SelectJob<'a> {
        SelectJob {
            items,
            where_clause,
            group_by: &[],
            has_aggregate: false,
            limit: usize::MAX,
            dml: Some(stmt),
            opts,
        }
    }

    /// Scans `table` — the leaves its WHERE's [`KeyRange`] covers — and
    /// returns the job's output rows: projections in key order, or one
    /// row per group in first-appearance order.
    ///
    /// Vectorized by default: the scan runs batch-at-a-time whenever the
    /// plan compiles; `batch_rows == 0` (or a plan that does not compile)
    /// runs the row-at-a-time interpreter. The statement's plan-cache slot
    /// answers for var-free statements without recompiling. This is the
    /// executor side of the fallback seam.
    pub fn run(
        &self,
        ctx: &mut StmtCtx<'_>,
        store: &PageStore,
        table: &Table,
        totals: &mut ScanTotals,
    ) -> Result<Vec<Vec<Value>>> {
        let schema = table.schema();
        let batch_plan = if self.opts.batch_rows > 0 {
            self.opts.cached.plan_for(schema, || {
                crate::batch::plan_select(
                    schema,
                    self.items,
                    self.where_clause,
                    self.group_by,
                    self.has_aggregate,
                    ctx.vars,
                    ctx.udfs,
                )
            })
        } else {
            Err(Fallback::BatchDisabled)
        };
        totals.fallback = batch_plan.as_ref().err().cloned();
        // WHERE stays the filter on both bodies; the interval it admits
        // only decides which leaves and slots they are shown.
        let range = KeyRange::of(schema, self.where_clause, ctx.vars);
        totals.access = range.access();
        let body = |w: &mut ScanWorker<'_>| match &batch_plan {
            Ok(plan) => self.scan_batches(plan, w),
            Err(_) => self.scan_rows(schema, w),
        };
        let outs = run_scan(ctx, store, table, totals, range.keys(), body)?;

        // Merge partials in partition (key) order.
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut groups = Groups::default();
        for out in outs {
            match out {
                WorkerOut::Rows(mut r) => {
                    r.truncate(self.limit.saturating_sub(rows.len()));
                    rows.extend(r);
                }
                WorkerOut::Groups(g) => groups.merge(g)?,
            }
        }
        if self.has_aggregate {
            rows = groups.finish()?;
        }
        Ok(rows)
    }

    /// The row-at-a-time body: the interpreter every expression shape
    /// runs on (UDAs, blob comparisons, multi-LOB-site statements), and
    /// the reference the vectorized body is differentially tested against.
    fn scan_rows(&self, schema: &Schema, w: &mut ScanWorker<'_>) -> Result<WorkerOut> {
        if !self.has_aggregate {
            let mut rows: Vec<Vec<Value>> = Vec::new();
            w.for_each_row(|env, key, bytes| {
                if rows.len() >= self.limit {
                    return Ok(false);
                }
                let row = RowCtx { schema, bytes, key };
                if !self.passes_where(&row, env)? {
                    return Ok(true);
                }
                let keyed = self.dml.is_some();
                let mut out = Vec::with_capacity(self.items.len() + usize::from(keyed));
                if keyed {
                    out.push(Value::I64(key));
                }
                for it in self.items {
                    let mut v = eval(&it.expr, Some(&row), env)?;
                    // The projection boundary is blob-aware: a bare
                    // `SELECT v` of a LOB column returns the array bytes
                    // (one ranged read), not a placeholder — and a DML
                    // value outlives the scan, so it is copied while the
                    // worker's reader is live (two rows must never share
                    // a chain, or freeing one corrupts the other).
                    crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                    out.push(v);
                }
                rows.push(out);
                Ok(rows.len() < self.limit)
            })?;
            return Ok(WorkerOut::Rows(rows));
        }

        let mut groups = Groups::default();
        if self.group_by.is_empty() {
            groups.insert(GroupKey::default(), make_accs(self.items, self.opts.udas)?);
        }
        let query = w.query();
        // Key-encoding scratch, reused across rows so the hot grouped loop
        // re-fills one buffer instead of growing a fresh Vec per row; it
        // is cloned only when a new group is inserted.
        let mut group_key = GroupKey::default();
        w.for_each_row(|env, key, bytes| {
            let row = RowCtx { schema, bytes, key };
            if !self.passes_where(&row, env)? {
                return Ok(true);
            }
            let pos = if self.group_by.is_empty() {
                0
            } else {
                group_key.0.clear();
                for g in self.group_by {
                    let mut v = eval(g, Some(&row), env)?;
                    // Grouping by a LOB column groups by its bytes, like
                    // any other binary value.
                    crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                    group_key.push(&v)?;
                }
                match groups.find(&group_key) {
                    Some(pos) => pos,
                    None => groups.open(&group_key, self.items, self.opts.udas, &query)?,
                }
            };
            for (acc, it) in groups.accs_mut(pos).iter_mut().zip(self.items) {
                acc.accumulate(&it.expr, &row, env, self.opts.uda_mode)?;
            }
            Ok(true)
        })?;
        Ok(WorkerOut::Groups(groups))
    }

    /// SELECT's WHERE is truthiness-coerced, DML's is strictly boolean.
    fn passes_where(&self, row: &RowCtx<'_>, env: &mut EvalEnv<'_>) -> Result<bool> {
        let Some(w) = self.where_clause else {
            return Ok(true);
        };
        let v = eval(w, Some(row), env)?;
        match self.dml {
            Some(stmt) => strict_bool(v, stmt),
            None => Ok(v.is_true()),
        }
    }

    /// The vectorized body: decode a leaf range into column batches,
    /// filter into a selection vector, then feed projections or aggregate
    /// accumulators batch-at-a-time. Mirrors [`scan_rows`](Self::scan_rows)
    /// result for result — the differential suite asserts bit-identity —
    /// while touching the allocator once per batch instead of once per
    /// row.
    fn scan_batches(&self, plan: &BatchPlan, w: &mut ScanWorker<'_>) -> Result<WorkerOut> {
        let query = w.query();
        let mut sel: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        // Batch lanes are reused across flushes, so the budget charge is
        // the high-water mark of the decoded batch, not its size times
        // flushes: only growth beyond what this worker already charged
        // costs budget.
        let mut charged_batch_bytes = 0u64;
        let mut charge = |b: &Batch| -> Result<()> {
            let size = b.byte_size();
            if size > charged_batch_bytes {
                query.charge(size - charged_batch_bytes)?;
                charged_batch_bytes = size;
            }
            Ok(())
        };
        // Narrows `sel` (batch rows `from..to`) to the rows passing WHERE.
        let mut select = |b: &Batch,
                          sel: &mut Vec<u32>,
                          (from, to): (usize, usize),
                          env: &mut EvalEnv<'_>|
         -> Result<()> {
            sel.clear();
            sel.extend(from as u32..to as u32);
            if let Some(f) = &plan.filter {
                crate::batch::refine(f, b, sel, &mut scratch, env, self.dml)?;
            }
            Ok(())
        };

        if self.has_aggregate {
            let mut agg = BatchAgg::new(plan, self.items, self.opts.udas, query.clone())?;
            w.for_each_batch(plan, self.opts.batch_rows, |env, b| {
                charge(b)?;
                select(b, &mut sel, (0, b.len()), env)?;
                agg.fold(b, &sel, env)?;
                Ok(true)
            })?;
            Ok(WorkerOut::Groups(agg.finish()))
        } else {
            let mut rows: Vec<Vec<Value>> = Vec::new();
            // A projection never needs more than `limit` output rows per
            // worker, so a small `TOP` shrinks the batch: the scan stops
            // within one cap of the limit instead of decoding a full
            // batch.
            let rows_cap = self.opts.batch_rows.min(self.limit.max(1));
            w.for_each_batch(plan, rows_cap, |env, b| {
                if rows.len() >= self.limit {
                    return Ok(false);
                }
                charge(b)?;
                let mut from = 0;
                while from < b.len() && rows.len() < self.limit {
                    let missing = self.limit - rows.len();
                    // The interpreter stops at the `limit`-th match, so it
                    // evaluates WHERE on at least the next `missing` rows:
                    // filtering that many at a time, no UDF call, hosting
                    // charge, LOB read or error happens on a row past the
                    // last match. (Unless `TOP` is small this is the whole
                    // batch.)
                    let to = b.len().min(from.saturating_add(missing));
                    select(b, &mut sel, (from, to), env)?;
                    if !sel.is_empty() {
                        batch_project(plan, b, &sel, self.dml.is_some(), &mut rows, env)?;
                    }
                    from = to;
                }
                Ok(rows.len() < self.limit)
            })?;
            Ok(WorkerOut::Rows(rows))
        }
    }
}

/// Materializes the selected rows of one batch as projection output
/// (`keyed`: each led by its clustered key). Scalar items evaluate
/// column-at-a-time; blob items resolve per row in row-major order, so LOB
/// page reads interleave exactly like the row-at-a-time scan (the plan is
/// leaf-aligned whenever blobs appear).
fn batch_project(
    plan: &BatchPlan,
    b: &Batch,
    sel: &[u32],
    keyed: bool,
    rows: &mut Vec<Vec<Value>>,
    env: &mut EvalEnv<'_>,
) -> Result<()> {
    enum ProjCol {
        Vals(BVal),
        Blob(usize),
    }
    let mut cols: Vec<ProjCol> = Vec::with_capacity(plan.items.len());
    for item in plan.items.iter() {
        cols.push(match item {
            BItem::Proj(e) => ProjCol::Vals(crate::batch::eval(e, b, sel, env)?),
            BItem::ProjBlob(pos) => ProjCol::Blob(*pos),
            _ => {
                return Err(EngineError::Type(
                    "batch plan error: aggregate item in a projection".into(),
                ))
            }
        });
    }
    for (r, &row_idx) in sel.iter().enumerate() {
        env.check_interrupt()?;
        let mut out = Vec::with_capacity(cols.len() + usize::from(keyed));
        if keyed {
            out.push(Value::I64(b.keys[row_idx as usize]));
        }
        for col in cols.iter_mut() {
            match col {
                ProjCol::Vals(v) => out.push(v.take_at(r)),
                ProjCol::Blob(pos) => {
                    let mut v = match blob_cell(b, *pos, row_idx)? {
                        BlobCell::Lob { id, len } => Value::Lob { id, len },
                        BlobCell::Inline(cell) => Value::Bytes(cell.to_vec()),
                    };
                    // The projection boundary is blob-aware, same as the
                    // row path: stored references come back as bytes.
                    crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                    out.push(v);
                }
            }
        }
        rows.push(out);
    }
    Ok(())
}

/// Executes one SELECT. The caller holds the engine's read guard on `db`
/// for the whole statement.
pub(crate) fn exec_select(
    ctx: &mut StmtCtx<'_>,
    db: &Database,
    opts: &SelectOpts<'_>,
    stmt: &SelectStmt,
) -> Result<QueryResult> {
    let mut totals = ScanTotals::start(&db.store, ctx.hosting);
    let items: Vec<SelectItem> = stmt
        .items
        .iter()
        .map(|it| SelectItem {
            expr: resolve_udas(&it.expr, opts.udas),
            alias: it.alias.clone(),
            assign: it.assign.clone(),
        })
        .collect();
    let rows = select_rows(ctx, db, opts, stmt, &items, &mut totals);
    let (rows, stats) = totals.close(rows, &db.store, ctx)?;

    let assignments = items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| {
            it.assign.as_ref().map(|name| {
                let v = rows
                    .last()
                    .and_then(|r| r.get(i))
                    .cloned()
                    .unwrap_or(Value::Null);
                (name.clone(), v)
            })
        })
        .collect();
    Ok(QueryResult {
        columns: items
            .iter()
            .enumerate()
            .map(|(i, it)| item_name(it, i))
            .collect(),
        rows,
        stats,
        assignments,
    })
}

/// Produces the statement's output rows: one evaluated row without FROM,
/// otherwise the scan through the driver and the merge of its partials.
fn select_rows(
    ctx: &mut StmtCtx<'_>,
    db: &Database,
    opts: &SelectOpts<'_>,
    stmt: &SelectStmt,
    items: &[SelectItem],
    totals: &mut ScanTotals,
) -> Result<Vec<Vec<Value>>> {
    let Some(table_name) = &stmt.from else {
        let exprs = items.iter().map(|it| &it.expr);
        return Ok(vec![eval_scalars(ctx, &db.store, exprs)?]);
    };
    let table = db
        .table(table_name)
        .ok_or_else(|| EngineError::Unknown(format!("table `{table_name}`")))?;
    let has_aggregate =
        items.iter().any(|it| it.expr.contains_aggregate()) || !stmt.group_by.is_empty();
    let job = SelectJob {
        items,
        where_clause: stmt.where_clause.as_ref(),
        group_by: &stmt.group_by,
        has_aggregate,
        limit: stmt.top.unwrap_or(opts.row_limit),
        dml: None,
        opts,
    };
    let mut rows = job.run(ctx, &db.store, table, totals)?;
    if has_aggregate {
        // Groups finish in first-appearance (= key) order at every DOP, so
        // an explicit `TOP` cuts deterministically; `row_limit` guards
        // projections only.
        rows.truncate(stmt.top.unwrap_or(usize::MAX));
    }
    Ok(rows)
}
