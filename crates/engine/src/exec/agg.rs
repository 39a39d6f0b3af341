//! Aggregation state: byte-encoded GROUP BY keys, the per-item
//! accumulators a scan worker maintains, and the group table that merges
//! worker partials in partition order.

use crate::aggregate::{UdaMode, UdaRegistry, UdaState};
use crate::batch::{blob_cell, BItem, BKey, BVal, BatchPlan, BlobCell};
use crate::expr::{eval, nan_comparison, with_args, with_row_args, AggFunc, EvalEnv, Expr, RowCtx};
use crate::tsql::SelectItem;
use crate::value::{EngineError, Result, Value};
use sqlarray_core::batch::{Batch, ToF64};
use sqlarray_core::exact::ExactSum;
use sqlarray_core::QueryCtx;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
    pub(crate) fn push(&mut self, v: &Value) -> Result<()> {
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

    /// Component `k` of the key: the value [`push`](Self::push) encoded
    /// there, bit for bit (a LOB as the bytes it was resolved to).
    fn value(&self, k: usize) -> Value {
        let mut rest = &self.0[..];
        for _ in 0..k {
            rest = &rest[decode_front(rest).1..];
        }
        decode_front(rest).0
    }

    /// Appends a binary value — what [`push`](Self::push) does for
    /// [`Value::Bytes`], callable straight on a batch's blob cell.
    fn push_bytes(&mut self, b: &[u8]) {
        self.0.push(5);
        self.0.extend_from_slice(&(b.len() as u64).to_le_bytes());
        self.0.extend_from_slice(b);
    }
}

/// The value at the front of an encoded [`GroupKey`], and the bytes it
/// takes there.
fn decode_front(b: &[u8]) -> (Value, usize) {
    let word = |n: usize| {
        let mut w = [0u8; 8];
        w[..n].copy_from_slice(&b[1..1 + n]);
        u64::from_le_bytes(w)
    };
    match b[0] {
        0 => (Value::Null, 1),
        1 => (Value::I64(word(8) as i64), 9),
        2 => (Value::I32(word(4) as u32 as i32), 5),
        3 => (Value::F64(f64::from_bits(word(8))), 9),
        4 => (Value::F32(f32::from_bits(word(4) as u32)), 5),
        7 => (Value::Bool(b[1] != 0), 2),
        tag => {
            let bytes = &b[9..9 + word(8) as usize];
            let v = match tag {
                5 => Value::Bytes(bytes.to_vec()),
                _ => Value::Str(String::from_utf8_lossy(bytes).into_owned()),
            };
            (v, 9 + bytes.len())
        }
    }
}

/// One select-list accumulator — the partial state a single worker
/// maintains for one item of one group. State only: the item's
/// expression stays in the select list (row path) or the compiled plan
/// (batch path), so opening a group clones nothing.
#[allow(
    clippy::large_enum_variant,
    reason = "the `Agg` variant's inline `ExactSum` register (~0.6 kB) exists once per \
              (group × select item); boxing it would cost a pointer chase on every \
              accumulated row"
)]
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

/// For each select-list item, the `GROUP BY` key it repeats, if it is not
/// an aggregate: the item takes the value its group's key opened with, so
/// it is evaluated nowhere — at any DOP, a group's key is evaluated once
/// per row and the item never.
pub(super) fn keyed_items(items: &[SelectItem], group_by: &[Expr]) -> Vec<Option<usize>> {
    let keyed = |e: &Expr| match e {
        Expr::Agg { .. } | Expr::UdaCall { .. } => None,
        e => group_by.iter().position(|g| g == e),
    };
    items.iter().map(|it| keyed(&it.expr)).collect()
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
    pub(crate) fn fold(&mut self, values: impl IntoIterator<Item = Value>) -> Result<()> {
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
    pub(crate) fn accumulate(
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
                uda_step(state.as_mut(), args, row, env, uda_mode)
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

/// One row's step of a UDA: its arguments evaluated against the row (an
/// inline array read from the row image, a LOB resolved), then folded in
/// — out of line, so the stack-held argument lists stay out of
/// [`ItemAcc::accumulate`]'s frame.
#[inline(never)]
fn uda_step(
    state: &mut dyn UdaState,
    args: &[Expr],
    row: &RowCtx<'_>,
    env: &mut EvalEnv<'_>,
    uda_mode: UdaMode,
) -> Result<()> {
    with_row_args(args, Some(row), env, |slots, env| {
        // UDA accumulate bodies take bytes, not references: materialize
        // lazy LOB arguments here.
        for slot in slots.iter_mut() {
            slot.resolve_lob(env)?;
        }
        if uda_mode == UdaMode::StreamSerialized {
            let buf = state.serialize_state();
            state.load_state(&buf)?;
        }
        // Each UDA row hop is a managed call, like the CLR aggregate
        // interface.
        env.hosting.charge_call();
        with_args(slots, |argv| state.accumulate(argv))
    })
}

/// Aggregate groups in first-appearance order: what a worker builds over
/// its partition and what the coordinator merges worker partials into.
#[derive(Default)]
pub(super) struct Groups {
    index: HashMap<GroupKey, usize, KeyHash>,
    keys: Vec<GroupKey>,
    accs: Vec<Vec<ItemAcc>>,
}

impl Groups {
    /// The position of `key`'s group, if it has appeared.
    pub(crate) fn find(&self, key: &GroupKey) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// Appends a new group and returns its position.
    pub(crate) fn insert(&mut self, key: GroupKey, accs: Vec<ItemAcc>) -> usize {
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
    ///
    /// `keyed[i]` is the `GROUP BY` key select item `i` repeats, if any
    /// ([`keyed_items`]): such an item takes that key's value here.
    pub(crate) fn open(
        &mut self,
        key: &GroupKey,
        items: &[SelectItem],
        keyed: &[Option<usize>],
        udas: &UdaRegistry,
        query: &QueryCtx,
    ) -> Result<usize> {
        query.charge((2 * key.0.len() + items.len() * std::mem::size_of::<ItemAcc>()) as u64)?;
        let mut accs = make_accs(items, udas)?;
        for (acc, k) in accs.iter_mut().zip(keyed) {
            if let Some(k) = k {
                acc.set_plain(key.value(*k))?;
            }
        }
        Ok(self.insert(key.clone(), accs))
    }

    /// The accumulator row of the group at `pos`.
    pub(crate) fn accs_mut(&mut self, pos: usize) -> &mut [ItemAcc] {
        &mut self.accs[pos]
    }

    /// Folds a *later* partition's groups in: known keys combine
    /// accumulator by accumulator, new keys append — so the merged order
    /// is first appearance in scan order, whatever the partitioning.
    pub(crate) fn merge(&mut self, later: Groups) -> Result<()> {
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
    pub(crate) fn finish(self) -> Result<Vec<Vec<Value>>> {
        self.accs
            .into_iter()
            .map(|mut accs| accs.iter_mut().map(ItemAcc::finish).collect())
            .collect()
    }
}

/// One worker's vectorized aggregation: its group table, fed one
/// selection of a decoded batch at a time, plus the scratch reused across
/// batches. The batch counterpart of the row loop around
/// [`ItemAcc::accumulate`]: keys and arguments are evaluated
/// column-at-a-time; a typed argument lane is folded a group at a time
/// ([`ItemAcc::fold_typed`] over its [`Parts`]), a dynamic one value by
/// value ([`ItemAcc::fold`]).
pub(super) struct BatchAgg<'a> {
    plan: &'a BatchPlan,
    items: &'a [SelectItem],
    udas: &'a UdaRegistry,
    query: QueryCtx,
    groups: Groups,
    /// Key-encoding scratch: re-filled per row (or per new typed key),
    /// cloned only when a row opens a group.
    key: GroupKey,
    /// A plan grouped by one scalar lane: each typed key seen so far, as
    /// its [`GroupKey`] tag and value bits, to its group position — so a
    /// row of a typed key lane finds its group without encoding a key.
    typed: TypedIndex,
    /// Group position of every selected row (grouped plans only).
    gids: Vec<u32>,
    /// The selected rows partitioned by group (grouped plans only).
    parts: Parts,
    /// Batch rows of the current selection that opened a group, in order
    /// — the rows non-aggregate items are evaluated at.
    opened: Vec<u32>,
    /// For each item, the `GROUP BY` key it repeats ([`keyed_items`]).
    keyed: Vec<Option<usize>>,
    /// Ungrouped plans: the one global group has not seen a row yet.
    unprimed: bool,
}

/// The group tables' hash: a key is a few words (a typed key's tag and
/// bits, a [`GroupKey`]'s length and bytes), so an FxHash-style
/// multiply-rotate per word, finished by murmur3's mixer (which spreads
/// low and high bits alike: `f64` keys differ only in their top bits),
/// replaces SipHash. It has no secret seed: the keys are the statement's
/// own column values, not input chosen to collide.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.write_u64(u64::from_le_bytes(word));
        }
        // The last 0..=7 bytes, shifted into one word (no copy call).
        let tail = words
            .remainder()
            .iter()
            .rev()
            .fold(0u64, |t, &b| t << 8 | u64::from(b));
        self.write_u64(tail);
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

type KeyHash = BuildHasherDefault<KeyHasher>;

type TypedIndex = HashMap<(u8, u64), u32, KeyHash>;

/// No part: a group position that has no row in the current batch.
const NO_PART: u32 = u32::MAX;

/// Values a typed lane's fold gathers per call of
/// [`ItemAcc::fold_typed`]: one part's rows are handed over a stack block
/// at a time.
const PART_BLOCK: usize = 256;

/// The selected rows of one batch, partitioned stably by group: part `p`
/// holds the lane positions of group `groups[p]`'s rows, ascending, and
/// parts come in the order their groups first appear in the batch.
#[derive(Default)]
struct Parts {
    /// Per group position: its part in the current batch, or [`NO_PART`].
    part_of: Vec<u32>,
    /// Group position of each part.
    groups: Vec<u32>,
    /// Part `p` is `order[starts[p]..starts[p + 1]]`.
    starts: Vec<u32>,
    order: Vec<u32>,
}

impl Parts {
    /// Partitions lane positions `0..gids.len()` by their group position
    /// (`n_groups` groups exist): a counting sort, stable within a part.
    fn split(&mut self, gids: &[u32], n_groups: usize) {
        self.part_of.resize(n_groups, NO_PART);
        self.groups.clear();
        self.starts.clear();
        for &g in gids {
            let part = &mut self.part_of[g as usize];
            if *part == NO_PART {
                *part = self.groups.len() as u32;
                self.groups.push(g);
                self.starts.push(0);
            }
            self.starts[*part as usize] += 1;
        }
        // Each part's end, then one step back per row from the last: the
        // rows of a part land in ascending order and `starts` ends at
        // each part's start.
        let mut end = 0;
        for count in self.starts.iter_mut() {
            end += *count;
            *count = end;
        }
        self.order.clear();
        self.order.resize(gids.len(), 0);
        for (i, &g) in gids.iter().enumerate().rev() {
            let at = &mut self.starts[self.part_of[g as usize] as usize];
            *at -= 1;
            self.order[*at as usize] = i as u32;
        }
        self.starts.push(gids.len() as u32);
        for &g in &self.groups {
            self.part_of[g as usize] = NO_PART;
        }
    }

    /// Lane positions of part `p`.
    fn rows(&self, p: usize) -> &[u32] {
        &self.order[self.starts[p] as usize..self.starts[p + 1] as usize]
    }

    /// Folds a typed lane into item `k` of each part's group: a part's
    /// values, in row order, go to [`ItemAcc::fold_typed`] a stack block
    /// at a time. A fold over consecutive blocks is the fold over their
    /// concatenation (the same counts, the same exact sum, the same
    /// comparisons), so each group sees what the row path feeds it.
    fn fold_typed<T: ToF64 + Default>(
        &self,
        accs: &mut [Vec<ItemAcc>],
        k: usize,
        lane: &[T],
        wrap: fn(T) -> Value,
    ) -> Result<()> {
        let mut block = [T::default(); PART_BLOCK];
        for (p, &g) in self.groups.iter().enumerate() {
            for rows in self.rows(p).chunks(PART_BLOCK) {
                for (slot, &i) in block.iter_mut().zip(rows) {
                    *slot = lane[i as usize];
                }
                accs[g as usize][k].fold_typed(&block[..rows.len()], wrap)?;
            }
        }
        Ok(())
    }

    /// [`fold_typed`](Self::fold_typed) for any lane: a dynamic lane is
    /// fed value by value, in row order.
    fn fold_lane(
        &self,
        accs: &mut [Vec<ItemAcc>],
        k: usize,
        lane: BVal,
        gids: &[u32],
    ) -> Result<()> {
        match lane {
            BVal::I64(v) => self.fold_typed(accs, k, &v, Value::I64),
            BVal::I32(v) => self.fold_typed(accs, k, &v, Value::I32),
            BVal::F64(v) => self.fold_typed(accs, k, &v, Value::F64),
            BVal::F32(v) => self.fold_typed(accs, k, &v, Value::F32),
            BVal::Bool(v) => self.fold_typed(accs, k, &v, Value::Bool),
            dynamic => dynamic.drain(|i, v| accs[gids[i] as usize][k].fold(Some(v))),
        }
    }

    /// Counts each part's rows into item `k` of its group: `COUNT(*)`,
    /// one bump per group and batch.
    fn bump(&self, accs: &mut [Vec<ItemAcc>], k: usize) -> Result<()> {
        for (p, &g) in self.groups.iter().enumerate() {
            accs[g as usize][k].bump(self.rows(p).len() as u64)?;
        }
        Ok(())
    }
}

impl<'a> BatchAgg<'a> {
    pub(crate) fn new(
        plan: &'a BatchPlan,
        (items, group_by): (&'a [SelectItem], &[Expr]),
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
            typed: TypedIndex::default(),
            gids: Vec::new(),
            parts: Parts::default(),
            opened: Vec::new(),
            keyed: keyed_items(items, group_by),
            unprimed: true,
        })
    }

    /// The worker's partial, for the partition-order merge.
    pub(crate) fn finish(self) -> Groups {
        self.groups
    }

    /// Feeds the filter-passing rows `sel` of batch `b`. Stored columns
    /// are never NULL, so whole-selection counts are exact.
    pub(crate) fn fold(&mut self, b: &Batch, sel: &[u32], env: &mut EvalEnv<'_>) -> Result<()> {
        if sel.is_empty() {
            return Ok(());
        }
        let grouped = !self.plan.group_by.is_empty();
        let mut first_opened = 0;
        self.opened.clear();
        if grouped {
            first_opened = self.groups.accs.len();
            self.assign(b, sel, env)?;
            self.parts.split(&self.gids, self.groups.accs.len());
        } else if std::mem::take(&mut self.unprimed) {
            self.opened.push(sel[0]);
        }
        let (accs, gids, parts) = (&mut self.groups.accs, &self.gids, &self.parts);
        for (k, item) in self.plan.items.iter().enumerate() {
            match item {
                // COUNT evaluates its argument too, for error parity with
                // the row path (a zero divisor in it must still fail).
                BItem::Agg(Some(e)) => {
                    let lane = crate::batch::eval(e, b, sel, env)?;
                    if grouped {
                        parts.fold_lane(accs, k, lane, gids)?;
                    } else {
                        accs[0][k].fold_lane(lane)?;
                    }
                }
                // COUNT(*), and COUNT over a blob column: non-null rows
                // are counted without reading the blobs, like the row path.
                BItem::Agg(None) => {
                    if grouped {
                        parts.bump(accs, k)?;
                    } else {
                        accs[0][k].bump(sel.len() as u64)?;
                    }
                }
                // An item that repeats a key took its value at the open.
                BItem::Plain(e) if self.keyed[k].is_none() => {
                    if !self.opened.is_empty() {
                        let mut lane = crate::batch::eval(e, b, &self.opened, env)?;
                        for j in 0..self.opened.len() {
                            accs[first_opened + j][k].set_plain(lane.take_at(j))?;
                        }
                    }
                }
                BItem::Plain(_) => {}
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
    /// first-appearance order. One key whose lane comes back typed goes
    /// through the typed index ([`assign_typed`](Self::assign_typed));
    /// any other key list encodes a [`GroupKey`] per row. Both poll the
    /// lifecycle per row, like the row scan: a pool-resident batch never
    /// faults a page to poll on.
    fn assign(&mut self, b: &Batch, sel: &[u32], env: &mut EvalEnv<'_>) -> Result<()> {
        self.gids.clear();
        let mut lanes = Vec::with_capacity(self.plan.group_by.len());
        for k in &self.plan.group_by {
            lanes.push(match k {
                BKey::Scalar(e) => KeyLane::Vals(crate::batch::eval(e, b, sel, env)?),
                BKey::Blob(pos) => KeyLane::Blob(*pos),
            });
        }
        if let [KeyLane::Vals(lane)] = lanes.as_slice() {
            // The tags are `GroupKey::push`'s.
            match lane {
                BVal::I64(v) => return self.assign_typed(v, sel, env, 1, |x| x as u64, Value::I64),
                BVal::I32(v) => {
                    return self.assign_typed(v, sel, env, 2, |x| u64::from(x as u32), Value::I32)
                }
                BVal::F64(v) => return self.assign_typed(v, sel, env, 3, f64::to_bits, Value::F64),
                BVal::F32(v) => {
                    return self.assign_typed(v, sel, env, 4, |x| x.to_bits().into(), Value::F32)
                }
                BVal::Bool(v) => return self.assign_typed(v, sel, env, 7, u64::from, Value::Bool),
                BVal::Dyn(_) => {}
            }
        }
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
            let gid = self.find_or_open(row)?;
            self.gids.push(gid);
        }
        Ok(())
    }

    /// [`assign`](Self::assign) over one typed key lane: a key the typed
    /// index knows is its group; a new one is encoded once (`wrap` gives
    /// the `Value` the row path would key by, `tag` its type tag) and
    /// found in, or opened into, the group table.
    fn assign_typed<T: Copy>(
        &mut self,
        lane: &[T],
        sel: &[u32],
        env: &mut EvalEnv<'_>,
        tag: u8,
        bits: fn(T) -> u64,
        wrap: fn(T) -> Value,
    ) -> Result<()> {
        for (&x, &row) in lane.iter().zip(sel) {
            env.check_interrupt()?;
            let typed = (tag, bits(x));
            let gid = match self.typed.get(&typed) {
                Some(&gid) => gid,
                None => {
                    self.key.0.clear();
                    self.key.push(&wrap(x))?;
                    let gid = self.find_or_open(row)?;
                    self.typed.insert(typed, gid);
                    gid
                }
            };
            self.gids.push(gid);
        }
        Ok(())
    }

    /// The group of the key in `self.key`, opened at batch row `row` if it
    /// has not appeared.
    fn find_or_open(&mut self, row: u32) -> Result<u32> {
        let gid = match self.groups.find(&self.key) {
            Some(g) => g,
            None => {
                self.opened.push(row);
                let (items, keyed) = (self.items, &self.keyed);
                self.groups
                    .open(&self.key, items, keyed, self.udas, &self.query)?
            }
        };
        Ok(gid as u32)
    }
}

/// One evaluated GROUP BY key of a batch.
enum KeyLane {
    Vals(BVal),
    Blob(usize),
}
