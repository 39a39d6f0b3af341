//! UPDATE / DELETE.
//!
//! DML runs in two phases, so that the WAL byte stream is identical at
//! every DOP:
//!
//! 1. **Match** (parallel, read-only): one more [`SelectJob`] — the scan
//!    job SELECT runs, on whichever of its two bodies the fallback seam
//!    picks — over the statement's WHERE (strictly boolean for DML) and,
//!    for UPDATE, the list of its SET expressions, with no row limit,
//!    visiting only the leaves that WHERE's key interval covers (`WHERE
//!    id = k` is a seek; the job decides, nothing here does). It
//!    hands back `[clustered key, evaluated values…]` per matching row in
//!    partition order, which is key order; out-of-row values are copied at
//!    its projection boundary, while the worker's reader is live.
//! 2. **Apply** (serial, mutating): one [`Table::apply`] call over every
//!    matched key changes each leaf's rows in one page write, leaf after
//!    leaf in key order. A DELETE deletes each key. An UPDATE resolves
//!    each row at its turn, from the stored image the B-tree group holds:
//!    the column range and type checks, the in-place patch conditions,
//!    the `ArrayUpdate` UDF fallback — then the row's in-place LOB
//!    patches, and its rewritten row, if any, for the table to validate
//!    and store. Scans never write log records, so all WAL appends happen
//!    here, in a DOP-independent order.
//!
//! A statement that fails after its first write — a value the column
//! cannot hold, a row past the leaf-record limit, a page that fails its
//! read — is returned to the last commit by the session
//! (`Database::rollback`), so a failing statement changes nothing.
//!
//! `SET v = Schema.ArrayUpdate(v, @offset, @replacement)` on a stored LOB
//! column is the paper's partial-update path: the row's turn patches only
//! the chunk pages the replacement intersects ([`blob::update_blob_range`])
//! instead of rewriting the whole chain. Anything the in-place conditions
//! don't cover falls back to the registered `ArrayUpdate` UDF plus a
//! full-row update, so both paths agree on semantics and on errors.

use super::scan::ScanTotals;
use super::select::SelectJob;
use super::{QueryResult, SelectOpts, StmtCtx};
use crate::database::{clustered_key_column, Database};
use crate::expr::Expr;
use crate::tsql::{DeleteStmt, SelectItem, UpdateStmt};
use crate::value::{Arg, EngineError, Result, Value};
use sqlarray_core::{ElementType, Header, StorageClass};
use sqlarray_storage::{
    blob, row, BlobId, ColType, Column, PageStore, RowOp, RowValue, Schema, Table,
};

/// One planned SET item: target column index plus how its value comes to
/// be. The expressions themselves ride in the match scan's item list, in
/// SET order.
struct SetItem {
    col: usize,
    plan: SetPlan,
}

enum SetPlan {
    /// One scan item: the expression, evaluated per matched row.
    Eval,
    /// `SET c = c` — no scan item: the stored value passes through. A bare
    /// reference to the target column is the only expression that can
    /// yield the row's own LOB chain; every other out-of-row value was
    /// copied at the scan's projection boundary.
    Keep,
    /// `SET col = Schema.ArrayUpdate(col, offset, replacement)` with the
    /// target column as its own first argument — two scan items, `offset`
    /// and `replacement`: the stored array is never materialized unless
    /// the in-place patch conditions fail.
    ArrayPatch {
        name: String,
        elem: ElementType,
        class: StorageClass,
    },
}

/// A match-scan row that does not carry what its statement planned.
fn short_row() -> EngineError {
    EngineError::Type("DML plan error: match row shorter than its SET list".into())
}

/// The clustered key every match-scan row leads with.
fn leading_key(row: &[Value]) -> Result<i64> {
    row.first().ok_or_else(short_row)?.as_i64()
}

/// Converts an evaluated SET value into the storage representation the
/// column holds.
fn to_row_value(col: &Column, v: Value) -> Result<RowValue> {
    let range = |x: &dyn std::fmt::Display, kind| {
        EngineError::Type(format!(
            "value {x} out of range for {kind} column `{}`",
            col.name
        ))
    };
    Ok(match col.ctype {
        ColType::I64 => RowValue::I64(v.as_i64()?),
        ColType::I32 => {
            let x = v.as_i64()?;
            RowValue::I32(i32::try_from(x).map_err(|_| range(&x, "INT"))?)
        }
        ColType::F64 => RowValue::F64(v.as_f64()?),
        // A finite value past `f32::MAX` would narrow to infinity.
        ColType::F32 => match v.as_f64()? {
            x if (x as f32).is_infinite() && x.is_finite() => return Err(range(&x, "REAL")),
            x => RowValue::F32(x as f32),
        },
        ColType::Blob => match v {
            Value::Bytes(b) => RowValue::Bytes(b),
            other => {
                return Err(EngineError::Type(format!(
                    "cannot store {} into binary column `{}`",
                    other.kind_name(),
                    col.name
                )))
            }
        },
    })
}

/// The in-place candidate shape of a SET expression:
/// `Schema.ArrayUpdate(col, offset, replacement)` over the target column
/// itself.
fn array_patch<'e>(col_name: &str, expr: &'e Expr) -> Option<(SetPlan, &'e Expr, &'e Expr)> {
    let Expr::Func { name, args } = expr else {
        return None;
    };
    let [Expr::Col(c), offset, replacement] = args.as_slice() else {
        return None;
    };
    let (schema_part, func) = name.rsplit_once('.')?;
    if !func.eq_ignore_ascii_case("ArrayUpdate") || !c.eq_ignore_ascii_case(col_name) {
        return None;
    }
    let (elem, class) = crate::arraybind::parse_schema(schema_part)?;
    let name = name.clone();
    Some((
        SetPlan::ArrayPatch { name, elem, class },
        offset,
        replacement,
    ))
}

/// Plans one SET item, appending the expressions the match scan must
/// evaluate for it to `items`. Anything but the two recognized shapes —
/// including an `ArrayUpdate` whose first argument is *not* the target
/// column itself — evaluates as an ordinary expression.
fn plan_set_item(col_name: &str, expr: &Expr, items: &mut Vec<SelectItem>) -> SetPlan {
    if matches!(expr, Expr::Col(c) if c.eq_ignore_ascii_case(col_name)) {
        return SetPlan::Keep;
    }
    let (plan, scanned) = match array_patch(col_name, expr) {
        Some((plan, offset, replacement)) => (plan, vec![offset, replacement]),
        None => (SetPlan::Eval, vec![expr]),
    };
    items.extend(scanned.into_iter().map(|e| SelectItem {
        expr: e.clone(),
        alias: None,
        assign: None,
    }));
    plan
}

/// Checks the in-place patch conditions for one `ArrayUpdate` against the
/// stored value and, when they hold, returns the LOB chain, the blob byte
/// offset and the raw payload to splice. `None` means "use the UDF
/// fallback" — every condition here is also enforced by the fallback, so
/// the two paths accept and reject the same calls.
fn try_in_place(
    store: &mut PageStore,
    stored: &RowValue,
    elem: ElementType,
    class: StorageClass,
    offset: &Value,
    replacement: &Value,
) -> Result<Option<(BlobId, usize, Vec<u8>)>> {
    // Only out-of-page chains benefit; in-row blobs re-encode cheaply.
    let &RowValue::LobRef(id, _) = stored else {
        return Ok(None);
    };
    let Ok(off) = crate::arraybind::index_vector(offset.into()) else {
        return Ok(None);
    };
    let Ok(repl) = replacement.as_array() else {
        return Ok(None);
    };
    // One header-prefix read — the stored payload is never touched. The
    // bytes come straight from the store, so a page that fails its read or
    // its checksum is a storage error, not an array one.
    let header = {
        let mut probe = [0u8; 8];
        let probe = &mut probe[..blob::blob_len(store, id)?.min(8)];
        blob::read_blob_range(store, id, 0, probe)?;
        let mut bytes = vec![0u8; Header::probe_len(probe)?];
        blob::read_blob_range(store, id, 0, &mut bytes)?;
        Header::decode(&bytes)?
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
    Ok(Some((id, byte_off, sqlarray_core::ops::cast::raw(&repl))))
}

/// Materializes a stored value for a UDF-fallback argument.
fn materialize(store: &mut PageStore, v: &RowValue) -> Result<Value> {
    Ok(match *v {
        RowValue::LobRef(id, _) => Value::Bytes(blob::read_blob(store, id)?),
        ref other => Value::from(other.clone()),
    })
}

/// One matched UPDATE row (`[key, values…]` as the match scan evaluated
/// them, in SET order) at its turn in the apply phase: `old` is the stored
/// row's encoding, which the B-tree group already holds. The row's
/// in-place LOB patches are written once every conversion has succeeded;
/// the row is rewritten when any column is replaced whole, and kept as it
/// is otherwise.
fn resolve_row(
    ctx: &mut StmtCtx<'_>,
    store: &mut PageStore,
    schema: &Schema,
    sets: &[SetItem],
    matched: Vec<Value>,
    old: &[u8],
) -> Result<RowOp<'static>> {
    let mut row = row::decode_row(schema, old)?;
    let mut vals = matched.into_iter().skip(1);
    let mut next = || vals.next().ok_or_else(short_row);
    let mut rewrite = false;
    let mut patches = Vec::new();
    for item in sets {
        // A column is set at most once, so `row[item.col]` still holds the
        // stored value here.
        let col = &schema.columns[item.col];
        match &item.plan {
            SetPlan::Keep => rewrite = true,
            SetPlan::Eval => {
                row[item.col] = to_row_value(col, next()?)?;
                rewrite = true;
            }
            SetPlan::ArrayPatch { name, elem, class } => {
                let (offset, replacement) = (next()?, next()?);
                let stored = &row[item.col];
                match try_in_place(store, stored, *elem, *class, &offset, &replacement)? {
                    Some(patch) => patches.push(patch),
                    None => {
                        let cur = materialize(store, stored)?;
                        let args = [&cur, &offset, &replacement].map(Arg::from);
                        let v = ctx.udfs.call(name, &args, ctx.hosting)?;
                        row[item.col] = to_row_value(col, v)?;
                        rewrite = true;
                    }
                }
            }
        }
    }
    // A rewritten row passes the patched chains' references through.
    for (id, byte_off, payload) in patches {
        blob::update_blob_range(store, id, byte_off, &payload)?;
    }
    Ok(match rewrite {
        true => RowOp::Update(row.into()),
        false => RowOp::Keep,
    })
}

/// Executes one UPDATE. The caller holds exclusive access to the
/// database (the engine's write guard) for the whole statement.
pub(crate) fn exec_update(
    ctx: &mut StmtCtx<'_>,
    db: &mut Database,
    opts: &SelectOpts<'_>,
    stmt: &UpdateStmt,
) -> Result<QueryResult> {
    let (store, table) = db.store_and_table_mut(&stmt.table)?;
    let schema = table.schema();
    let mut sets: Vec<SetItem> = Vec::with_capacity(stmt.sets.len());
    let mut items = Vec::new();
    for (col_name, expr) in &stmt.sets {
        let col = schema
            .col_index(col_name)
            .ok_or_else(|| EngineError::Unknown(format!("column `{col_name}`")))?;
        // SQL Server would move the row to its new key position; this
        // engine keeps column 0 equal to the clustered key by refusing.
        if let Some(key) = clustered_key_column(schema).filter(|_| col == 0) {
            return Err(EngineError::Unsupported(format!(
                "cannot update the clustered key column `{}`",
                key.name
            )));
        }
        if sets.iter().any(|s| s.col == col) {
            return Err(EngineError::Unsupported(format!(
                "column `{col_name}` is set more than once"
            )));
        }
        sets.push(SetItem {
            col,
            plan: plan_set_item(col_name, expr, &mut items),
        });
    }
    let scan = SelectJob::dml("UPDATE", &items, stmt.where_clause.as_ref(), opts);
    exec_dml(ctx, store, table, &scan, Some(&sets))
}

/// Executes one DELETE. The caller holds exclusive access to the
/// database (the engine's write guard) for the whole statement.
pub(crate) fn exec_delete(
    ctx: &mut StmtCtx<'_>,
    db: &mut Database,
    opts: &SelectOpts<'_>,
    stmt: &DeleteStmt,
) -> Result<QueryResult> {
    let (store, table) = db.store_and_table_mut(&stmt.table)?;
    let scan = SelectJob::dml("DELETE", &[], stmt.where_clause.as_ref(), opts);
    exec_dml(ctx, store, table, &scan, None)
}

/// The shared DML driver: parallel match, then serial apply. `sets` is
/// `None` for DELETE.
fn exec_dml(
    ctx: &mut StmtCtx<'_>,
    store: &mut PageStore,
    table: &mut Table,
    scan: &SelectJob<'_>,
    sets: Option<&[SetItem]>,
) -> Result<QueryResult> {
    let mut totals = ScanTotals::start(store, ctx.hosting);
    let done = match_and_apply(ctx, store, table, scan, sets, &mut totals);
    let ((), stats) = totals.close(done, store, ctx)?;
    Ok(QueryResult {
        columns: Vec::new(),
        rows: Vec::new(),
        stats,
        assignments: Vec::new(),
    })
}

fn match_and_apply(
    ctx: &mut StmtCtx<'_>,
    store: &mut PageStore,
    table: &mut Table,
    scan: &SelectJob<'_>,
    sets: Option<&[SetItem]>,
    totals: &mut ScanTotals,
) -> Result<()> {
    // The workers' matches, concatenated in partition order, arrive in
    // clustered-key order, so the apply phase — and with it the WAL record
    // stream — is identical at every DOP and on both scan bodies.
    let mut matched = scan.run(ctx, store, table, totals)?;
    let keys = matched
        .iter()
        .map(|row| leading_key(row))
        .collect::<Result<Vec<_>>>()?;
    let Some(sets) = sets else {
        let deleted = table.apply::<EngineError>(store, &keys, |_, _, _| Ok(RowOp::Delete))?;
        totals.rows_affected += deleted;
        return Ok(());
    };
    // Every matched row still present counts, patched in place or not.
    let (schema, mut present) = (table.schema().clone(), 0);
    table.apply(store, &keys, |store, i, old| {
        let Some(old) = old else {
            return Ok(RowOp::Keep);
        };
        present += 1;
        let matched = std::mem::take(&mut matched[i]);
        resolve_row(ctx, store, &schema, sets, matched, old)
    })?;
    totals.rows_affected += present;
    Ok(())
}
