//! Aggregation state: byte-encoded GROUP BY keys, the per-item
//! accumulators a scan worker maintains, and the group table that merges
//! worker partials in partition order.

use crate::aggregate::{UdaMode, UdaRegistry, UdaState};
use crate::batch::{BAggArg, BItem};
use crate::expr::{compare, eval, AggFunc, EvalEnv, Expr, RowCtx};
use crate::value::{EngineError, Result, Value};
use sqlarray_core::batch::{Batch, ColVec};
use sqlarray_core::exact::ExactSum;
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
            Value::Bytes(b) => {
                buf.push(5);
                buf.extend_from_slice(&(b.len() as u64).to_le_bytes());
                buf.extend_from_slice(b);
            }
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
}

/// One select-list accumulator — the partial state a single worker
/// maintains for one item of one group.
// The `Agg` variant carries an inline `ExactSum` register (~0.3 kB);
// boxing it would cost a pointer chase on every accumulated row for a
// structure that only exists once per (group × select item).
#[allow(clippy::large_enum_variant)]
pub(super) enum ItemAcc {
    Agg {
        func: AggFunc,
        arg: Option<Expr>,
        count: u64,
        /// `SUM`/`AVG` accumulate exactly so that partials combine without
        /// rounding: any partitioning of the rows yields the same result.
        sum: ExactSum,
        min: Option<Value>,
        max: Option<Value>,
    },
    Uda {
        args: Vec<Expr>,
        state: Box<dyn UdaState>,
    },
    Plain {
        expr: Expr,
        value: Option<Value>,
    },
}

fn make_acc(item_expr: &Expr, udas: &UdaRegistry) -> Result<ItemAcc> {
    Ok(match item_expr {
        Expr::Agg { func, arg } => ItemAcc::Agg {
            func: *func,
            arg: arg.as_deref().cloned(),
            count: 0,
            sum: ExactSum::new(),
            min: None,
            max: None,
        },
        Expr::UdaCall { name, args } => ItemAcc::Uda {
            args: args.clone(),
            state: udas.create(name)?,
        },
        other => ItemAcc::Plain {
            expr: other.clone(),
            value: None,
        },
    })
}

/// One fresh accumulator per select-list item — the state of one group.
pub(super) fn make_accs(
    items: &[crate::tsql::SelectItem],
    udas: &UdaRegistry,
) -> Result<Vec<ItemAcc>> {
    items.iter().map(|it| make_acc(&it.expr, udas)).collect()
}

/// The MIN/MAX replacement rule: `cand` takes the slot when it is empty
/// or `cand` compares strictly `better` (`Less` for MIN, `Greater` for
/// MAX) than the incumbent. Strictness keeps the *first* of equal values,
/// so folding rows, batches or worker partials in scan order all agree.
fn beats(cand: &Value, incumbent: &Option<Value>, better: Ordering) -> Result<bool> {
    Ok(match incumbent {
        None => true,
        Some(cur) => compare(cand, cur)? == better,
    })
}

impl ItemAcc {
    pub fn accumulate(
        &mut self,
        row: &RowCtx<'_>,
        env: &mut EvalEnv<'_>,
        uda_mode: UdaMode,
    ) -> Result<()> {
        match self {
            ItemAcc::Agg {
                func,
                arg,
                count,
                sum,
                min,
                max,
            } => {
                let v = match arg {
                    Some(e) => Some(eval(e, Some(row), env)?),
                    None => None,
                };
                if matches!(func, AggFunc::CountStar) {
                    *count += 1;
                    return Ok(());
                }
                // lint:allow(L005, reason = "the planner rejects argument-less aggregates other than COUNT(*) at bind time, and the CountStar arm returned above")
                let mut v = v.expect("non-COUNT(*) aggregates have an argument");
                if v.is_null() {
                    return Ok(());
                }
                // MIN/MAX order blobs bytewise and SUM/AVG need a numeric
                // view, so a lazy LOB argument behaves exactly like its
                // inline counterpart: materialize it. COUNT only needs
                // null-ness (a LOB reference is never NULL) — skip the
                // read there.
                if !matches!(func, AggFunc::Count) {
                    crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                }
                *count += 1;
                match func {
                    AggFunc::Sum | AggFunc::Avg => sum.add(v.as_f64()?),
                    AggFunc::Min => {
                        if beats(&v, min, Ordering::Less)? {
                            *min = Some(v);
                        }
                    }
                    AggFunc::Max => {
                        if beats(&v, max, Ordering::Greater)? {
                            *max = Some(v);
                        }
                    }
                    AggFunc::Count | AggFunc::CountStar => {}
                }
                Ok(())
            }
            ItemAcc::Uda { args, state, .. } => {
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
            ItemAcc::Plain { expr, value } => {
                if value.is_none() {
                    let mut v = eval(expr, Some(row), env)?;
                    // The value outlives the row scan: materialize lazy
                    // LOB references while the worker's reader is live.
                    crate::pushdown::resolve_lob_in_place(&mut v, env)?;
                    *value = Some(v);
                }
                Ok(())
            }
        }
    }

    /// Feeds one batch of selected rows — the batch counterpart of
    /// [`accumulate`](Self::accumulate). Stored columns are never NULL,
    /// so the row path's null-skip never fires and whole-batch counts are
    /// exact.
    pub fn accumulate_batch(&mut self, item: &BItem, b: &Batch, sel: &[u32]) -> Result<()> {
        match (self, item) {
            (
                ItemAcc::Agg {
                    count,
                    sum,
                    min,
                    max,
                    ..
                },
                BItem::Agg { func, arg },
            ) => {
                match (func, arg) {
                    (AggFunc::CountStar, _) => *count += sel.len() as u64,
                    // COUNT over a blob column counts non-null rows
                    // without reading the blobs, like the row path.
                    (AggFunc::Count, Some(BAggArg::Blob(pos))) => {
                        assert!(matches!(b.cols[*pos], ColVec::Blob { .. }));
                        *count += sel.len() as u64;
                    }
                    (func, Some(BAggArg::Scalar(e))) => {
                        // COUNT evaluates too, for error parity with the
                        // row path (a zero divisor in the argument must
                        // still fail).
                        let vals = crate::batch::eval(e, b, sel)?;
                        *count += vals.len() as u64;
                        match func {
                            // The exact accumulator keeps any summation
                            // order — and thus any batch/partition split
                            // — bit-identical.
                            AggFunc::Sum | AggFunc::Avg => {
                                sqlarray_core::batch::sum_f64(&vals.into_f64(), sum)
                            }
                            AggFunc::Min => {
                                for i in 0..vals.len() {
                                    let cand = vals.value_at(i);
                                    if beats(&cand, min, Ordering::Less)? {
                                        *min = Some(cand);
                                    }
                                }
                            }
                            AggFunc::Max => {
                                for i in 0..vals.len() {
                                    let cand = vals.value_at(i);
                                    if beats(&cand, max, Ordering::Greater)? {
                                        *max = Some(cand);
                                    }
                                }
                            }
                            AggFunc::Count | AggFunc::CountStar => {}
                        }
                    }
                    _ => {
                        return Err(EngineError::Type(
                            "batch plan error: aggregate shape mismatch".into(),
                        ))
                    }
                }
                Ok(())
            }
            (ItemAcc::Plain { value, .. }, BItem::Plain(e)) => {
                // The row path evaluates a plain item at the first passing
                // row and keeps that value; compiled plain items are
                // scalar, so no LOB materialization is needed.
                if value.is_none() && !sel.is_empty() {
                    let first = [sel[0]];
                    let v = crate::batch::eval(e, b, &first)?;
                    *value = Some(v.value_at(0));
                }
                Ok(())
            }
            _ => Err(EngineError::Type(
                "batch plan error: accumulator shape mismatch".into(),
            )),
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
