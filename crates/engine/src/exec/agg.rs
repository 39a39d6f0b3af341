//! Aggregation state: byte-encoded GROUP BY keys, the per-item
//! accumulators a scan worker maintains, and the group table that merges
//! worker partials in partition order.

use crate::aggregate::{UdaMode, UdaRegistry, UdaState};
use crate::batch::{blob_cell, BItem, BKey, BVal, BatchPlan, BlobCell};
use crate::expr::{eval, nan_comparison, AggFunc, EvalEnv, Expr, RowCtx};
use crate::tsql::SelectItem;
use crate::value::{EngineError, Result, Value};
use sqlarray_core::batch::{Batch, ToF64};
use sqlarray_core::exact::ExactSum;
use sqlarray_core::QueryCtx;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A typed, byte-encoded GROUP BY key: one tag byte per value followed by
/// that value's canonical little-endian payload.
///
/// Replaces the old `format!("{v:?}|")` string keys — no per-row
/// formatting allocations in the hot scan loop, and no `Debug`-collision
/// ambiguity (the string `"1"` and the integer `1` now encode
/// differently; floats key by bit pattern, consistent with the
/// bit-identity contract).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub(super) struct GroupKey(pub Vec<u8>);

impl GroupKey {
    pub fn push(&mut self, v: &Value) -> Result<()> {
        let buf = &mut self.0;
        match v {
            Value::Null => buf.push(0),
            Value::I64(x) => {
                buf.push(1);
                buf.extend_from_slice(&x.to_le_bytes());
            }
            Value::I32(x) => {
                buf.push(2);
                buf.extend_from_slice(&x.to_le_bytes());
            }
            Value::F64(x) => {
                buf.push(3);
                buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::F32(x) => {
                buf.push(4);
                buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Bytes(b) => self.push_bytes(b),
            Value::Str(s) => {
                buf.push(6);
                buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                buf.push(7);
                buf.push(*b as u8);
            }
            // Group-key expressions resolve LOBs before encoding; an
            // unresolved reference reaching this point is a bug upstream,
            // surfaced as the typed error rather than a silent key.
            Value::Lob { id, len } => {
                return Err(EngineError::UnresolvedLob { id: *id, len: *len })
            }
        }
        Ok(())
    }

    /// Appends a binary value — what [`push`](Self::push) does for
    /// [`Value::Bytes`], callable straight on a batch's blob cell.
    fn push_bytes(&mut self, b: &[u8]) {
        self.0.push(5);
        self.0.extend_from_slice(&(b.len() as u64).to_le_bytes());
        self.0.extend_from_slice(b);
    }
}

/// One select-list accumulator — the partial state a single worker
/// maintains for one item of one group. State only: the item's
/// expression stays in the select list (row path) or the compiled plan
/// (batch path), so opening a group clones nothing.
// The `Agg` variant carries an inline `ExactSum` register (~0.6 kB);
// boxing it would cost a pointer chase on every accumulated row for a
// structure that only exists once per (group × select item).
#[allow(clippy::large_enum_variant)]
pub(super) enum ItemAcc {
    Agg {
        func: AggFunc,
        count: u64,
        /// `SUM`/`AVG` accumulate exactly so that partials combine without
        /// rounding: any partitioning of the rows yields the same result.
        sum: ExactSum,
        min: Option<Value>,
        max: Option<Value>,
    },
    Uda {
        state: Box<dyn UdaState>,
    },
    Plain {
        value: Option<Value>,
    },
}

fn make_acc(item_expr: &Expr, udas: &UdaRegistry) -> Result<ItemAcc> {
    Ok(match item_expr {
        Expr::Agg { func, .. } => ItemAcc::Agg {
            func: *func,
            count: 0,
            sum: ExactSum::new(),
            min: None,
            max: None,
        },
        Expr::UdaCall { name, .. } => ItemAcc::Uda {
            state: udas.create(name)?,
        },
        _ => ItemAcc::Plain { value: None },
    })
}

/// One fresh accumulator per select-list item — the state of one group.
pub(super) fn make_accs(items: &[SelectItem], udas: &UdaRegistry) -> Result<Vec<ItemAcc>> {
    items.iter().map(|it| make_acc(&it.expr, udas)).collect()
}

/// **The** MIN/MAX replacement rule, over the `f64` view every non-string
/// value compares as: a candidate replaces the incumbent only when it
/// compares strictly `better` (`Less` for MIN, `Greater` for MAX). Strictness
/// keeps the *first* of equal values (of `-0.0` and `0.0`, or of `2⁵³` and
/// `2⁵³ + 1`), so folding rows, batches or worker partials in scan order all
/// agree; a NaN on either side is the comparison's typed error — and since
/// an empty slot compares with nothing, a lone NaN is none.
#[inline]
fn replaces(cand: f64, cur: f64, better: Ordering) -> Result<bool> {
    Ok(cand.partial_cmp(&cur).ok_or_else(nan_comparison)? == better)
}

/// [`replaces`] for values: `cand` takes the slot when it is empty or
/// beats the incumbent. Two strings or two byte strings compare the way
/// [`compare`](crate::expr::compare) orders them; everything else by its
/// numeric view.
fn beats(cand: &Value, incumbent: &Option<Value>, better: Ordering) -> Result<bool> {
    let Some(cur) = incumbent else {
        return Ok(true);
    };
    match (cand, cur) {
        (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b) == better),
        (Value::Bytes(a), Value::Bytes(b)) => Ok(a.cmp(b) == better),
        _ => replaces(cand.as_f64()?, cur.as_f64()?, better),
    }
}

fn shape_mismatch() -> EngineError {
    EngineError::Type("accumulator does not match its select-list item".into())
}

impl ItemAcc {
    /// **The** value update of `COUNT`/`SUM`/`AVG`/`MIN`/`MAX`: folds
    /// evaluated, LOB-resolved argument values in order, skipping NULLs.
    /// The row interpreter feeds it one value per row, grouped batches one
    /// value per (row, group), ungrouped batches a whole dynamic lane; an
    /// ungrouped typed lane takes [`fold_typed`](Self::fold_typed), the
    /// same rules without a `Value` per element.
    #[inline]
    pub fn fold(&mut self, values: impl IntoIterator<Item = Value>) -> Result<()> {
        let ItemAcc::Agg {
            func,
            count,
            sum,
            min,
            max,
        } = self
        else {
            return Err(shape_mismatch());
        };
        let values = values.into_iter().filter(|v| !v.is_null());
        match func {
            // The exact accumulator keeps any summation order — and thus
            // any batch/partition split — bit-identical.
            AggFunc::Sum | AggFunc::Avg => {
                for v in values {
                    *count += 1;
                    sum.add(v.as_f64()?);
                }
            }
            AggFunc::Min => {
                for v in values {
                    *count += 1;
                    if beats(&v, min, Ordering::Less)? {
                        *min = Some(v);
                    }
                }
            }
            AggFunc::Max => {
                for v in values {
                    *count += 1;
                    if beats(&v, max, Ordering::Greater)? {
                        *max = Some(v);
                    }
                }
            }
            AggFunc::Count | AggFunc::CountStar => *count += values.count() as u64,
        }
        Ok(())
    }

    /// [`fold`](Self::fold) over a whole evaluated lane, in lane order: a
    /// dynamic lane value by value, a typed one by
    /// [`fold_typed`](Self::fold_typed).
    fn fold_lane(&mut self, lane: BVal) -> Result<()> {
        match lane {
            BVal::I64(v) => self.fold_typed(&v, Value::I64),
            BVal::I32(v) => self.fold_typed(&v, Value::I32),
            BVal::F64(v) => self.fold_typed(&v, Value::F64),
            BVal::F32(v) => self.fold_typed(&v, Value::F32),
            BVal::Bool(v) => self.fold_typed(&v, Value::Bool),
            BVal::Dyn(v) => self.fold(v),
        }
    }

    /// [`fold`](Self::fold) over a typed lane, which holds no NULL:
    /// `COUNT` adds its length, `SUM`/`AVG` add its numeric view a block at
    /// a time ([`ExactSum::add_iter`]), and `MIN`/`MAX` find the lane's
    /// winner by [`replaces`] and turn only that one element into a
    /// [`Value`] (`wrap`, which keeps the lane type) for the test against
    /// the incumbent. Each element meets the same comparisons, with the
    /// same verdict, as fed one by one.
    fn fold_typed<T: ToF64>(&mut self, lane: &[T], wrap: fn(T) -> Value) -> Result<()> {
        let ItemAcc::Agg {
            func,
            count,
            sum,
            min,
            max,
        } = self
        else {
            return Err(shape_mismatch());
        };
        *count += lane.len() as u64;
        let (slot, better) = match func {
            AggFunc::Count | AggFunc::CountStar => return Ok(()),
            AggFunc::Sum | AggFunc::Avg => {
                sum.add_iter(lane.iter().map(|&x| x.to_f64()));
                return Ok(());
            }
            AggFunc::Min => (min, Ordering::Less),
            AggFunc::Max => (max, Ordering::Greater),
        };
        let Some((&first, rest)) = lane.split_first() else {
            return Ok(());
        };
        let (mut win, mut best) = (first, first.to_f64());
        for &x in rest {
            if replaces(x.to_f64(), best, better)? {
                (win, best) = (x, x.to_f64());
            }
        }
        let cand = wrap(win);
        if beats(&cand, slot, better)? {
            *slot = Some(cand);
        }
        Ok(())
    }

    /// Counts `n` rows without looking at a value: `COUNT(*)`, and `COUNT`
    /// over a stored (never-NULL) blob column.
    fn bump(&mut self, n: u64) -> Result<()> {
        match self {
            ItemAcc::Agg { count, .. } => {
                *count += n;
                Ok(())
            }
            _ => Err(shape_mismatch()),
        }
    }

    /// Keeps the value a non-aggregate item had at the row that opened
    /// its group.
    fn set_plain(&mut self, v: Value) -> Result<()> {
        match self {
            ItemAcc::Plain { value } => {
                *value = Some(v);
                Ok(())
            }
            _ => Err(shape_mismatch()),
        }
    }

    /// The row interpreter's update: evaluates `item` (the select-list
    /// expression this accumulator was made from) against one row.
    pub fn accumulate(
        &mut self,
        item: &Expr,
        row: &RowCtx<'_>,
        env: &mut EvalEnv<'_>,
        uda_mode: UdaMode,
    ) -> Result<()> {
        match (&mut *self, item) {
            (ItemAcc::Agg { .. }, Expr::Agg { func, arg }) => {
                let Some(e) = arg else {
                    // Only COUNT(*) parses without an argument.
                    return self.bump(1);
                };
                let mut v = eval(e, Some(row), env)?;
                // MIN/MAX order blobs bytewise and SUM/AVG need a numeric
                // view, so a lazy LOB argument behaves exactly like its
                // inline counterpart: materialize it. COUNT only needs
                // null-ness (a LOB reference is never NULL) — skip the
                // read there.
                if !matches!(func, AggFunc::Count) {
                    crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                }
                self.fold(Some(v))
            }
            (ItemAcc::Uda { state }, Expr::UdaCall { args, .. }) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args.iter() {
                    let mut v = eval(a, Some(row), env)?;
                    // UDA accumulate bodies take bytes, not references:
                    // materialize lazy LOB arguments here.
                    crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                    argv.push(v);
                }
                if uda_mode == UdaMode::StreamSerialized {
                    let buf = state.serialize_state();
                    state.load_state(&buf)?;
                }
                // Each UDA row hop is a managed call, like the CLR
                // aggregate interface.
                env.hosting.charge_call();
                state.accumulate(&argv)
            }
            (ItemAcc::Plain { value }, expr) => {
                if value.is_none() {
                    let mut v = eval(expr, Some(row), env)?;
                    // The value outlives the row scan: materialize lazy
                    // LOB references while the worker's reader is live.
                    crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                    *value = Some(v);
                }
                Ok(())
            }
            _ => Err(shape_mismatch()),
        }
    }

    /// Folds the partial state of a *later* partition into this one. Both
    /// sides were built by [`make_accs`] from the same select list, so
    /// the variants always line up.
    fn combine(&mut self, other: ItemAcc) -> Result<()> {
        match (self, other) {
            (
                ItemAcc::Agg {
                    count,
                    sum,
                    min,
                    max,
                    ..
                },
                ItemAcc::Agg {
                    count: oc,
                    sum: os,
                    min: omin,
                    max: omax,
                    ..
                },
            ) => {
                *count += oc;
                sum.merge(&os);
                if let Some(ov) = omin {
                    if beats(&ov, min, Ordering::Less)? {
                        *min = Some(ov);
                    }
                }
                if let Some(ov) = omax {
                    if beats(&ov, max, Ordering::Greater)? {
                        *max = Some(ov);
                    }
                }
                Ok(())
            }
            (ItemAcc::Uda { state, .. }, ItemAcc::Uda { state: os, .. }) => {
                state.merge_state(&os.serialize_state())
            }
            (ItemAcc::Plain { value, .. }, ItemAcc::Plain { value: ov, .. }) => {
                // The serial semantics keep the first row's value; partials
                // merge in partition (scan) order, so an earlier Some wins.
                if value.is_none() {
                    *value = ov;
                }
                Ok(())
            }
            _ => Err(EngineError::Type(
                "mismatched accumulator kinds in parallel combine".into(),
            )),
        }
    }

    fn finish(&mut self) -> Result<Value> {
        match self {
            ItemAcc::Agg {
                func,
                count,
                sum,
                min,
                max,
                ..
            } => Ok(match func {
                AggFunc::CountStar | AggFunc::Count => Value::I64(*count as i64),
                AggFunc::Sum => {
                    if *count == 0 {
                        Value::Null
                    } else {
                        Value::F64(sum.value())
                    }
                }
                AggFunc::Avg => {
                    if *count == 0 {
                        Value::Null
                    } else {
                        Value::F64(sum.value() / *count as f64)
                    }
                }
                AggFunc::Min => min.take().unwrap_or(Value::Null),
                AggFunc::Max => max.take().unwrap_or(Value::Null),
            }),
            ItemAcc::Uda { state, .. } => state.terminate(),
            ItemAcc::Plain { value, .. } => Ok(value.take().unwrap_or(Value::Null)),
        }
    }
}

/// Aggregate groups in first-appearance order: what a worker builds over
/// its partition and what the coordinator merges worker partials into.
#[derive(Default)]
pub(super) struct Groups {
    index: HashMap<GroupKey, usize>,
    keys: Vec<GroupKey>,
    accs: Vec<Vec<ItemAcc>>,
}

impl Groups {
    /// The position of `key`'s group, if it has appeared.
    pub fn find(&self, key: &GroupKey) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// Appends a new group and returns its position.
    pub fn insert(&mut self, key: GroupKey, accs: Vec<ItemAcc>) -> usize {
        self.accs.push(accs);
        self.keys.push(key.clone());
        self.index.insert(key, self.accs.len() - 1);
        self.accs.len() - 1
    }

    /// Opens the group for a key that [`find`](Self::find) missed.
    /// Aggregation state is the memory a grouped scan actually
    /// accumulates: each new group charges its key (stored twice — order
    /// list and index) plus its accumulator row against the statement's
    /// budget before it is inserted.
    pub fn open(
        &mut self,
        key: &GroupKey,
        items: &[SelectItem],
        udas: &UdaRegistry,
        query: &QueryCtx,
    ) -> Result<usize> {
        query.charge((2 * key.0.len() + items.len() * std::mem::size_of::<ItemAcc>()) as u64)?;
        Ok(self.insert(key.clone(), make_accs(items, udas)?))
    }

    /// The accumulator row of the group at `pos`.
    pub fn accs_mut(&mut self, pos: usize) -> &mut [ItemAcc] {
        &mut self.accs[pos]
    }

    /// Folds a *later* partition's groups in: known keys combine
    /// accumulator by accumulator, new keys append — so the merged order
    /// is first appearance in scan order, whatever the partitioning.
    pub fn merge(&mut self, later: Groups) -> Result<()> {
        if self.accs.is_empty() {
            // The first partial (the only one at DOP 1) is adopted whole:
            // no per-group re-hash or key clone.
            *self = later;
            return Ok(());
        }
        for (key, theirs) in later.keys.into_iter().zip(later.accs) {
            match self.find(&key) {
                Some(i) => {
                    for (mine, theirs) in self.accs[i].iter_mut().zip(theirs) {
                        mine.combine(theirs)?;
                    }
                }
                None => {
                    self.insert(key, theirs);
                }
            }
        }
        Ok(())
    }

    /// One output row per group, in first-appearance order.
    pub fn finish(self) -> Result<Vec<Vec<Value>>> {
        self.accs
            .into_iter()
            .map(|mut accs| accs.iter_mut().map(ItemAcc::finish).collect())
            .collect()
    }
}

/// One worker's vectorized aggregation: its group table, fed one
/// selection of a decoded batch at a time, plus the scratch reused across
/// batches. The batch counterpart of the row loop around
/// [`ItemAcc::accumulate`] — keys and arguments are evaluated
/// column-at-a-time, then every value goes through [`ItemAcc::fold`].
pub(super) struct BatchAgg<'a> {
    plan: &'a BatchPlan,
    items: &'a [SelectItem],
    udas: &'a UdaRegistry,
    query: QueryCtx,
    groups: Groups,
    /// Key-encoding scratch: re-filled per row, cloned only when a row
    /// opens a group.
    key: GroupKey,
    /// Group position of every selected row (grouped plans only).
    gids: Vec<u32>,
    /// Batch rows of the current selection that opened a group, in order
    /// — the rows non-aggregate items are evaluated at.
    opened: Vec<u32>,
    /// Ungrouped plans: the one global group has not seen a row yet.
    unprimed: bool,
}

impl<'a> BatchAgg<'a> {
    pub fn new(
        plan: &'a BatchPlan,
        items: &'a [SelectItem],
        udas: &'a UdaRegistry,
        query: QueryCtx,
    ) -> Result<BatchAgg<'a>> {
        let mut groups = Groups::default();
        if plan.group_by.is_empty() {
            groups.insert(GroupKey::default(), make_accs(items, udas)?);
        }
        Ok(BatchAgg {
            plan,
            items,
            udas,
            query,
            groups,
            key: GroupKey::default(),
            gids: Vec::new(),
            opened: Vec::new(),
            unprimed: true,
        })
    }

    /// The worker's partial, for the partition-order merge.
    pub fn finish(self) -> Groups {
        self.groups
    }

    /// Feeds the filter-passing rows `sel` of batch `b`. Stored columns
    /// are never NULL, so whole-selection counts are exact.
    pub fn fold(&mut self, b: &Batch, sel: &[u32], env: &mut EvalEnv<'_>) -> Result<()> {
        if sel.is_empty() {
            return Ok(());
        }
        let grouped = !self.plan.group_by.is_empty();
        let mut first_opened = 0;
        self.opened.clear();
        if grouped {
            first_opened = self.groups.accs.len();
            self.assign(b, sel, env)?;
        } else if std::mem::take(&mut self.unprimed) {
            self.opened.push(sel[0]);
        }
        let (accs, gids) = (&mut self.groups.accs, &self.gids);
        for (k, item) in self.plan.items.iter().enumerate() {
            match item {
                // COUNT evaluates its argument too, for error parity with
                // the row path (a zero divisor in it must still fail).
                BItem::Agg(Some(e)) => {
                    let lane = crate::batch::eval(e, b, sel, env)?;
                    if grouped {
                        lane.drain(|i, v| accs[gids[i] as usize][k].fold(Some(v)))?;
                    } else {
                        accs[0][k].fold_lane(lane)?;
                    }
                }
                // COUNT(*), and COUNT over a blob column: non-null rows
                // are counted without reading the blobs, like the row path.
                BItem::Agg(None) => {
                    if grouped {
                        for &g in gids.iter() {
                            accs[g as usize][k].bump(1)?;
                        }
                    } else {
                        accs[0][k].bump(sel.len() as u64)?;
                    }
                }
                BItem::Plain(e) => {
                    if !self.opened.is_empty() {
                        let mut lane = crate::batch::eval(e, b, &self.opened, env)?;
                        for j in 0..self.opened.len() {
                            accs[first_opened + j][k].set_plain(lane.take_at(j))?;
                        }
                    }
                }
                BItem::Proj(_) | BItem::ProjBlob(_) => {
                    return Err(EngineError::Type(
                        "batch plan error: projection item in an aggregate".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Evaluates the GROUP BY keys column-at-a-time and resolves every
    /// selected row to its group position, opening groups in
    /// first-appearance order. Polls the lifecycle per row, like the row
    /// scan: a pool-resident batch never faults a page to poll on.
    fn assign(&mut self, b: &Batch, sel: &[u32], env: &mut EvalEnv<'_>) -> Result<()> {
        enum KeyLane {
            Vals(BVal),
            Blob(usize),
        }
        let mut lanes = self
            .plan
            .group_by
            .iter()
            .map(|k| match k {
                BKey::Scalar(e) => crate::batch::eval(e, b, sel, env).map(KeyLane::Vals),
                BKey::Blob(pos) => Ok(KeyLane::Blob(*pos)),
            })
            .collect::<Result<Vec<KeyLane>>>()?;
        self.gids.clear();
        for (i, &row) in sel.iter().enumerate() {
            env.check_interrupt()?;
            self.key.0.clear();
            for lane in lanes.iter_mut() {
                match lane {
                    KeyLane::Vals(v) => self.key.push(&v.take_at(i))?,
                    KeyLane::Blob(pos) => match blob_cell(b, *pos, row)? {
                        BlobCell::Inline(cell) => self.key.push_bytes(cell),
                        // Grouping by a LOB column groups by its bytes,
                        // like any other binary value.
                        BlobCell::Lob { id, len } => {
                            let mut v = Value::Lob { id, len };
                            crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                            self.key.push(&v)?;
                        }
                    },
                }
            }
            let gid = match self.groups.find(&self.key) {
                Some(g) => g,
                None => {
                    self.opened.push(row);
                    self.groups
                        .open(&self.key, self.items, self.udas, &self.query)?
                }
            };
            self.gids.push(gid as u32);
        }
        Ok(())
    }
}
