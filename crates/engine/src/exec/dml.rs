//! UPDATE / DELETE.
//!
//! DML runs in three phases so that the WAL byte stream is identical at
//! every DOP and a failing statement changes nothing:
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
//! 2. **Resolve** (serial, read-only): every matched row's stored image is
//!    read once and its evaluated values become the new row and its patch
//!    list — the column range and type checks, the in-place patch
//!    conditions, the `ArrayUpdate` UDF fallback, the leaf-record size
//!    limit. Everything a user's data can make fail happens here, so a
//!    typed error leaves zero pages and zero WAL bytes changed.
//! 3. **Apply** (serial, mutating): one [`Table::apply`] call takes every
//!    matched key — a delete each, for DELETE; the rewritten row of each
//!    change that carries one, for UPDATE — and changes each leaf's rows in
//!    one page write, leaf after leaf in key order. An UPDATE's in-place
//!    LOB patches follow, in key order. Scans never write log records, so
//!    all WAL appends happen here, in a DOP-independent order.
//!
//! `SET v = Schema.ArrayUpdate(v, @offset, @replacement)` on a stored LOB
//! column is the paper's partial-update path: the apply phase patches only
//! the chunk pages the replacement intersects ([`Table::update_col_blob_range`])
//! instead of rewriting the whole chain. Anything the in-place conditions
//! don't cover falls back to the registered `ArrayUpdate` UDF plus a
//! full-row update, so both paths agree on semantics and on errors.

use super::scan::ScanTotals;
use super::select::SelectJob;
use super::{QueryResult, SelectOpts, StmtCtx};
use crate::database::{clustered_key_column, Database};
use crate::expr::Expr;
use crate::tsql::{DeleteStmt, SelectItem, UpdateStmt};
use crate::value::{EngineError, Result, Value};
use sqlarray_core::{ElementType, Header, StorageClass};
use sqlarray_storage::{blob, row, ColType, Column, PageStore, RowOp, RowValue, Table};

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

/// One matched row out of the resolve phase: everything the apply phase
/// writes, with nothing left that can fail on the user's data.
struct RowChange {
    key: i64,
    /// The full new row, when any column is replaced whole.
    row: Option<Vec<RowValue>>,
    /// In-place LOB patches: column, blob byte offset, payload.
    patches: Vec<(usize, usize, Vec<u8>)>,
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

/// The resolve phase for one matched UPDATE row (`[key, values…]` as the
/// match scan evaluated them, in SET order): reads and conversions only.
/// The stored row is read once, here, and handed on to the apply phase
/// inside the change. `None` when the row is gone.
fn resolve_row(
    ctx: &mut StmtCtx<'_>,
    store: &mut PageStore,
    table: &Table,
    sets: &[SetItem],
    matched: Vec<Value>,
) -> Result<Option<RowChange>> {
    let schema = table.schema();
    let key = leading_key(&matched)?;
    let mut vals = matched.into_iter().skip(1);
    let mut next = || vals.next().ok_or_else(short_row);
    let Some(mut row) = table.get(store, key)? else {
        return Ok(None);
    };
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
                    Some((byte_off, payload)) => patches.push((item.col, byte_off, payload)),
                    None => {
                        let cur = materialize(store, stored.clone())?;
                        let v = ctx
                            .udfs
                            .call(name, &[cur, offset, replacement], ctx.hosting)?;
                        row[item.col] = to_row_value(col, v)?;
                        rewrite = true;
                    }
                }
            }
        }
    }
    if rewrite {
        // The apply phase would refuse an oversized record with earlier
        // rows already rewritten: check it here (a blob past the in-row
        // limit counts as its 17-byte reference).
        row::encoded_len(schema, &row)?;
    }
    Ok(Some(RowChange {
        key,
        row: rewrite.then_some(row),
        patches,
    }))
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

/// The shared DML driver: parallel match, then serial resolve and apply.
/// `sets` is `None` for DELETE.
fn exec_dml(
    ctx: &mut StmtCtx<'_>,
    store: &mut PageStore,
    table: &mut Table,
    scan: &SelectJob<'_>,
    sets: Option<&[SetItem]>,
) -> Result<QueryResult> {
    let mut totals = ScanTotals::start(store, ctx.hosting);
    let done = match_resolve_apply(ctx, store, table, scan, sets, &mut totals);
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
    scan: &SelectJob<'_>,
    sets: Option<&[SetItem]>,
    totals: &mut ScanTotals,
) -> Result<()> {
    // The workers' matches, concatenated in partition order, arrive in
    // clustered-key order, so the apply phase — and with it the WAL record
    // stream — is identical at every DOP and on both scan bodies.
    let matched = scan.run(ctx, store, table, totals)?;

    let Some(sets) = sets else {
        let ops = matched
            .iter()
            .map(|row| Ok((leading_key(row)?, RowOp::Delete)))
            .collect::<Result<Vec<_>>>()?;
        totals.rows_affected += table.apply(store, &ops)?;
        return Ok(());
    };
    let mut changes = Vec::with_capacity(matched.len());
    for m in matched {
        changes.extend(resolve_row(ctx, store, table, sets, m)?);
    }
    // Full-row rewrites first, leaf by leaf: untouched LOB columns pass
    // their references through, so the patches after them address the
    // same chains.
    let ops: Vec<_> = changes
        .iter()
        .filter_map(|c| Some((c.key, RowOp::Update(c.row.as_deref()?))))
        .collect();
    table.apply(store, &ops)?;
    for change in &changes {
        for (col, byte_off, payload) in &change.patches {
            table.update_col_blob_range(store, change.key, *col, *byte_off, payload)?;
        }
    }
    totals.rows_affected += changes.len() as u64;
    Ok(())
}
