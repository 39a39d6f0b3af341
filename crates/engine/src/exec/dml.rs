//! UPDATE / DELETE.
//!
//! DML runs in three phases so that the WAL byte stream is identical at
//! every DOP and a failing statement changes nothing:
//!
//! 1. **Match** (parallel, read-only): the same partitioned scan SELECT
//!    uses evaluates the WHERE clause — strictly boolean for DML — and,
//!    for UPDATE, every SET expression against each matching row. Workers
//!    hand back `(clustered key, evaluated values)` in partition order,
//!    which is key order.
//! 2. **Resolve** (serial, read-only): every matched row's evaluated
//!    values become storage values and patch lists — the column range and
//!    type checks, the in-place patch conditions, the `ArrayUpdate` UDF
//!    fallback. Everything a user's data can make fail happens here, so a
//!    typed error leaves zero pages and zero WAL bytes changed.
//! 3. **Apply** (serial, mutating): rows change through [`Table::update`]
//!    / [`Table::delete`] in key order. Scans never write log records, so
//!    all WAL appends happen here, in a DOP-independent order.
//!
//! `SET v = Schema.ArrayUpdate(v, @offset, @replacement)` on a stored LOB
//! column is the paper's partial-update path: the apply phase patches only
//! the chunk pages the replacement intersects ([`Table::update_col_blob_range`])
//! instead of rewriting the whole chain. Anything the in-place conditions
//! don't cover falls back to the registered `ArrayUpdate` UDF plus a
//! full-row update, so both paths agree on semantics and on errors.

use super::scan::{run_scan, ScanTotals, ScanWorker};
use super::{QueryResult, StmtCtx};
use crate::database::Database;
use crate::expr::{eval, Expr, RowCtx};
use crate::tsql::{DeleteStmt, UpdateStmt};
use crate::value::{EngineError, Result, Value};
use sqlarray_core::stream::ArrayReader;
use sqlarray_core::{ElementType, StorageClass};
use sqlarray_storage::row::{decode_col_ref, RowValueRef};
use sqlarray_storage::{BlobStream, ColType, Column, PageStore, RowValue, Schema, Table};

/// One planned SET item: target column index plus how to produce its value.
struct SetItem {
    col: usize,
    plan: SetPlan,
}

enum SetPlan {
    /// Evaluate the expression per matched row during the match phase.
    Eval(Expr),
    /// `SET col = Schema.ArrayUpdate(col, offset, replacement)` with the
    /// target column as its own first argument: only `offset` and
    /// `replacement` are evaluated in the match phase; the stored array is
    /// never materialized unless the in-place patch conditions fail.
    ArrayPatch {
        name: String,
        elem: ElementType,
        class: StorageClass,
        offset: Expr,
        replacement: Expr,
    },
}

/// One SET item's evaluated value for one matched row.
enum SetValue {
    Plain(Value),
    Patch { offset: Value, replacement: Value },
}

/// One matched row out of the match phase.
type Match = (i64, Vec<SetValue>);

/// One matched row out of the resolve phase: everything the apply phase
/// writes, with nothing left that can fail on the user's data.
struct RowChange {
    key: i64,
    /// The stored row, when resolving had to read it (an `ArrayPatch`
    /// item needs the stored value) — handed on so apply does not read it
    /// again.
    old: Option<Vec<RowValue>>,
    /// Whole-column replacements.
    cols: Vec<(usize, RowValue)>,
    /// In-place LOB patches: column, blob byte offset, payload.
    patches: Vec<(usize, usize, Vec<u8>)>,
}

fn value_kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "NULL",
        Value::I64(_) => "BIGINT",
        Value::I32(_) => "INT",
        Value::F64(_) => "FLOAT",
        Value::F32(_) => "REAL",
        Value::Bytes(_) => "VARBINARY",
        Value::Str(_) => "VARCHAR",
        Value::Bool(_) => "BIT",
        Value::Lob { .. } => "VARBINARY(MAX)",
    }
}

/// DML predicates are strict: unlike SELECT's truthiness coercion, a
/// WHERE clause that does not evaluate to a boolean is a typed error —
/// silently coercing would make `WHERE id` delete every non-zero row.
fn strict_bool(v: Value, kind: &str) -> Result<bool> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(EngineError::Type(format!(
            "{kind} WHERE clause must evaluate to a boolean, got {}",
            value_kind(&other)
        ))),
    }
}

/// Converts an evaluated SET value into the storage representation the
/// column holds.
fn to_row_value(col: &Column, v: Value) -> Result<RowValue> {
    Ok(match col.ctype {
        ColType::I64 => RowValue::I64(v.as_i64()?),
        ColType::I32 => {
            let x = v.as_i64()?;
            RowValue::I32(i32::try_from(x).map_err(|_| {
                EngineError::Type(format!(
                    "value {x} out of range for INT column `{}`",
                    col.name
                ))
            })?)
        }
        ColType::F64 => RowValue::F64(v.as_f64()?),
        ColType::F32 => RowValue::F32(v.as_f64()? as f32),
        ColType::Blob => match v {
            Value::Bytes(b) => RowValue::Bytes(b),
            // A lazy reference that survived the match phase aliases the
            // row's own stored chain (`SET v = v`): keep the reference so
            // `Table::update` keeps the chain.
            Value::Lob { id, len } => RowValue::LobRef(id, len),
            other => {
                return Err(EngineError::Type(format!(
                    "cannot store {} into binary column `{}`",
                    value_kind(&other),
                    col.name
                )))
            }
        },
    })
}

/// Recognizes the in-place candidate shape of a SET expression. Anything
/// else — including an `ArrayUpdate` whose first argument is *not* the
/// target column itself — evaluates as an ordinary expression.
fn plan_set_item(col_name: &str, expr: &Expr) -> SetPlan {
    if let Expr::Func { name, args } = expr {
        if args.len() == 3 {
            if let Some((schema_part, func)) = name.rsplit_once('.') {
                if func.eq_ignore_ascii_case("ArrayUpdate") {
                    if let Some((elem, class)) = crate::arraybind::parse_schema(schema_part) {
                        if let Expr::Col(c) = &args[0] {
                            if c.eq_ignore_ascii_case(col_name) {
                                return SetPlan::ArrayPatch {
                                    name: name.clone(),
                                    elem,
                                    class,
                                    offset: args[1].clone(),
                                    replacement: args[2].clone(),
                                };
                            }
                        }
                    }
                }
            }
        }
    }
    SetPlan::Eval(expr.clone())
}

/// The match-phase body: one partition's matching keys with their
/// evaluated SET values, in key order.
fn match_rows(
    w: &mut ScanWorker<'_>,
    schema: &Schema,
    where_clause: Option<&Expr>,
    sets: &[SetItem],
    kind: &str,
) -> Result<Vec<Match>> {
    let mut matched: Vec<Match> = Vec::new();
    w.for_each_row(|env, key, bytes| {
        let row = RowCtx { schema, bytes, key };
        if let Some(w) = where_clause {
            if !strict_bool(eval(w, Some(&row), env)?, kind)? {
                return Ok(true);
            }
        }
        let mut vals = Vec::with_capacity(sets.len());
        for item in sets {
            match &item.plan {
                SetPlan::Eval(e) => {
                    let mut v = eval(e, Some(&row), env)?;
                    if let Value::Lob { id, .. } = v {
                        // A reference to the target column's own chain
                        // passes through (the apply phase keeps it); a
                        // reference to any *other* chain is copied here,
                        // while the worker's reader is live — two rows
                        // must never share a chain, or freeing one
                        // corrupts the other. The borrowed decode inspects
                        // the stored reference without copying inline
                        // blob bytes.
                        let own = matches!(
                            decode_col_ref(schema, bytes, item.col)?,
                            RowValueRef::LobRef(cid, _) if cid == id
                        );
                        if !own {
                            crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                        }
                    }
                    vals.push(SetValue::Plain(v));
                }
                SetPlan::ArrayPatch {
                    offset,
                    replacement,
                    ..
                } => {
                    let mut off = eval(offset, Some(&row), env)?;
                    crate::pushdown::resolve_lob_in_place(&mut off, env)?;
                    let mut repl = eval(replacement, Some(&row), env)?;
                    crate::pushdown::resolve_lob_in_place(&mut repl, env)?;
                    vals.push(SetValue::Patch {
                        offset: off,
                        replacement: repl,
                    });
                }
            }
        }
        matched.push((key, vals));
        Ok(true)
    })?;
    Ok(matched)
}

/// Checks the in-place patch conditions for one `ArrayUpdate` against the
/// stored value and, when they hold, returns the blob byte offset and raw
/// payload to splice. `None` means "use the UDF fallback" — every
/// condition here is also enforced by the fallback, so the two paths
/// accept and reject the same calls.
fn try_in_place(
    store: &mut PageStore,
    stored: &RowValue,
    elem: ElementType,
    class: StorageClass,
    offset: &Value,
    replacement: &Value,
) -> Result<Option<(usize, Vec<u8>)>> {
    // Only out-of-page chains benefit; in-row blobs re-encode cheaply.
    let &RowValue::LobRef(id, _) = stored else {
        return Ok(None);
    };
    let Ok(off) = crate::arraybind::index_vector(offset) else {
        return Ok(None);
    };
    let Ok(repl) = replacement.as_array() else {
        return Ok(None);
    };
    // One header-prefix read — the stored payload is never touched.
    let header = {
        let stream = BlobStream::open(&mut *store, id)?;
        ArrayReader::open(stream)?.header().clone()
    };
    if header.elem != elem || header.class != class {
        return Ok(None);
    }
    if repl.elem() != elem || repl.class() != class {
        return Ok(None);
    }
    // Rank 1 keeps the byte range contiguous regardless of layout order;
    // higher ranks go through the odometer fallback.
    if header.shape.rank() != 1 || off.len() != 1 || repl.rank() != 1 {
        return Ok(None);
    }
    let extent = header.shape.dims()[0];
    let Some(end) = off[0].checked_add(repl.count()) else {
        return Ok(None);
    };
    if end > extent {
        return Ok(None);
    }
    let byte_off = header.header_len() + off[0] * elem.size();
    Ok(Some((byte_off, sqlarray_core::ops::cast::raw(&repl))))
}

/// Materializes a stored value for a UDF-fallback argument.
fn materialize(store: &mut PageStore, v: RowValue) -> Result<Value> {
    match v {
        RowValue::LobRef(id, _) => Ok(Value::Bytes(sqlarray_storage::blob::read_blob(
            &mut *store,
            id,
        )?)),
        other => Ok(Value::from(other)),
    }
}

/// The resolve phase for one matched UPDATE row: reads and conversions
/// only. `None` when the row is gone.
fn resolve_row(
    ctx: &mut StmtCtx<'_>,
    store: &mut PageStore,
    table: &Table,
    sets: &[SetItem],
    (key, vals): Match,
) -> Result<Option<RowChange>> {
    let schema = table.schema();
    let mut change = RowChange {
        key,
        old: None,
        cols: Vec::new(),
        patches: Vec::new(),
    };
    for (item, sv) in sets.iter().zip(vals) {
        match (&item.plan, sv) {
            (_, SetValue::Plain(v)) => {
                let v = to_row_value(&schema.columns[item.col], v)?;
                change.cols.push((item.col, v));
            }
            (
                SetPlan::ArrayPatch {
                    name, elem, class, ..
                },
                SetValue::Patch {
                    offset,
                    replacement,
                },
            ) => {
                if change.old.is_none() {
                    change.old = table.get(store, key)?;
                }
                let Some(old) = &change.old else {
                    return Ok(None);
                };
                let stored = &old[item.col];
                match try_in_place(store, stored, *elem, *class, &offset, &replacement)? {
                    Some((byte_off, payload)) => {
                        change.patches.push((item.col, byte_off, payload));
                    }
                    None => {
                        let cur = materialize(store, stored.clone())?;
                        let v = ctx
                            .udfs
                            .call(name, &[cur, offset, replacement], ctx.hosting)?;
                        let v = to_row_value(&schema.columns[item.col], v)?;
                        change.cols.push((item.col, v));
                    }
                }
            }
            (SetPlan::Eval(_), SetValue::Patch { .. }) => {
                unreachable!("Patch values only come from ArrayPatch plans")
            }
        }
    }
    Ok(Some(change))
}

/// The apply phase for one resolved UPDATE row. Returns whether the row
/// existed.
fn apply_row(store: &mut PageStore, table: &mut Table, change: RowChange) -> Result<bool> {
    let RowChange {
        key,
        old,
        cols,
        patches,
    } = change;
    let old = match old {
        Some(old) => Some(old),
        None => table.get(store, key)?,
    };
    let Some(mut row) = old else {
        return Ok(false);
    };
    // The full-row update goes first: untouched LOB columns pass their
    // references through, so a subsequent patch addresses the same chain.
    if !cols.is_empty() {
        for (col, v) in cols {
            row[col] = v;
        }
        table.update(store, key, &row)?;
    }
    for (col, byte_off, payload) in patches {
        table.update_col_blob_range(store, key, col, byte_off, &payload)?;
    }
    Ok(true)
}

/// Executes one UPDATE. The caller holds exclusive access to the
/// database (the engine's write guard) for the whole statement.
pub(crate) fn exec_update(
    ctx: &mut StmtCtx<'_>,
    db: &mut Database,
    stmt: &UpdateStmt,
) -> Result<QueryResult> {
    let (store, table) = db.store_and_table_mut(&stmt.table)?;
    let schema = table.schema();
    let mut sets: Vec<SetItem> = Vec::with_capacity(stmt.sets.len());
    for (col_name, expr) in &stmt.sets {
        let col = schema
            .col_index(col_name)
            .ok_or_else(|| EngineError::Unknown(format!("column `{col_name}`")))?;
        if sets.iter().any(|s| s.col == col) {
            return Err(EngineError::Unsupported(format!(
                "column `{col_name}` is set more than once"
            )));
        }
        sets.push(SetItem {
            col,
            plan: plan_set_item(col_name, expr),
        });
    }
    exec_dml(
        ctx,
        store,
        table,
        stmt.where_clause.as_ref(),
        Some(&sets[..]),
        "UPDATE",
    )
}

/// Executes one DELETE. The caller holds exclusive access to the
/// database (the engine's write guard) for the whole statement.
pub(crate) fn exec_delete(
    ctx: &mut StmtCtx<'_>,
    db: &mut Database,
    stmt: &DeleteStmt,
) -> Result<QueryResult> {
    let (store, table) = db.store_and_table_mut(&stmt.table)?;
    exec_dml(
        ctx,
        store,
        table,
        stmt.where_clause.as_ref(),
        None,
        "DELETE",
    )
}

/// The shared DML driver: parallel match, then serial resolve and apply.
/// `sets` is `None` for DELETE.
fn exec_dml(
    ctx: &mut StmtCtx<'_>,
    store: &mut PageStore,
    table: &mut Table,
    where_clause: Option<&Expr>,
    sets: Option<&[SetItem]>,
    kind: &'static str,
) -> Result<QueryResult> {
    let mut totals = ScanTotals::start(store, ctx.hosting);
    let done = match_resolve_apply(ctx, store, table, where_clause, sets, kind, &mut totals);
    let ((), stats) = totals.close(done, store, ctx)?;
    Ok(QueryResult {
        columns: Vec::new(),
        rows: Vec::new(),
        stats,
        assignments: Vec::new(),
    })
}

fn match_resolve_apply(
    ctx: &mut StmtCtx<'_>,
    store: &mut PageStore,
    table: &mut Table,
    where_clause: Option<&Expr>,
    sets: Option<&[SetItem]>,
    kind: &'static str,
    totals: &mut ScanTotals,
) -> Result<()> {
    // DML match scans run row-at-a-time (the WAL byte stream, not scan
    // throughput, dominates). Concatenating the workers' matches in
    // partition order yields them in clustered-key order, so the apply
    // phase — and with it the WAL record stream — is identical at every
    // DOP.
    let schema = table.schema();
    let matched: Vec<Match> = run_scan(ctx, store, table, totals, |w| {
        match_rows(w, schema, where_clause, sets.unwrap_or(&[]), kind)
    })?
    .into_iter()
    .flatten()
    .collect();

    let Some(sets) = sets else {
        for (key, _) in matched {
            totals.rows_affected += u64::from(table.delete(store, key)?);
        }
        return Ok(());
    };
    let mut changes = Vec::with_capacity(matched.len());
    for m in matched {
        changes.extend(resolve_row(ctx, store, table, sets, m)?);
    }
    for change in changes {
        totals.rows_affected += u64::from(apply_row(store, table, change)?);
    }
    Ok(())
}
