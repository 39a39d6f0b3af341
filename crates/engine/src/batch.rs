//! The vectorized execution plan: compiling scan expressions to batch
//! kernels, and evaluating them over columnar batches.
//!
//! [`plan_select`] is **the** fallback seam of the vectorized pipeline —
//! for a SELECT and for the match phase of an UPDATE/DELETE alike: it
//! returns a [`BatchPlan`] exactly when every expression a scan must
//! evaluate compiles to the batch kernel set — column references of scalar
//! type, literals and session variables of any non-LOB type, arithmetic,
//! comparisons, `AND`/`OR`/`NOT`, unary minus, scalar UDF calls (including
//! the `Subarray`/`Item` LOB pushdown), the built-in aggregates, `GROUP BY`
//! over scalar expressions and blob columns, and bare blob-column
//! projections. Anything else returns a typed [`Fallback`] — UDAs, missing
//! or LOB-valued variables, blob columns inside computed expressions, more
//! than one LOB-reading site — and the executor runs the row-at-a-time
//! interpreter instead. There is no third path.
//!
//! Compiled plans reproduce the row interpreter's semantics exactly:
//!
//! * integer × integer arithmetic wraps in `i64` and yields `BIGINT`;
//!   any float or boolean operand switches the operator to `f64`;
//! * comparisons coerce both sides to `f64`; a NaN operand raises the
//!   same typed error;
//! * `AND`/`OR`/`NOT` short-circuit *per row* in one place, [`refine`],
//!   which narrows the selection a conjunct at a time: `AND` refines by
//!   its right operand only the rows its left one kept, `OR` evaluates its
//!   right operand only over the rows its left one did not keep, so an
//!   error in the right operand surfaces for exactly the rows the row
//!   interpreter would have evaluated it on ([`eval`] asks `refine` for
//!   a boolean lane of these nodes);
//! * a comparison of a column with a numeric or boolean constant (on
//!   either side) is one fused pass, [`b::select_cmp`]: no gathered lane,
//!   no splat, no flag vector;
//! * projections and aggregate arguments are evaluated only over rows
//!   that passed the filter;
//! * unary minus preserves the operand's type, like the row path;
//! * a numeric or boolean constant is a typed splat; a string, bytes or
//!   NULL constant is a *dynamic* lane (one [`Value`] per row), and so is
//!   everything computed from one — string compares, NULL operands and
//!   their typed errors are the interpreter's own;
//! * a UDF call binds its callee, arity check and pushdown
//!   classification once per statement, then runs the callee's own body
//!   once per selected row, in row order, charging the hosting model per
//!   row — the paper's §7.1 cost model is untouched. Its result is a
//!   *dynamic* lane (one [`Value`] per row): operators over dynamic lanes
//!   apply the interpreter's own per-value functions.
//!
//! **One LOB site.** Evaluation is column-at-a-time, so a plan with one
//! site that can read a LOB (a blob column passed to a call, projected, or
//! grouped on) reads LOB pages in row order exactly like the interpreter.
//! With two or more such sites column order would interleave their page
//! reads differently — the sequential/random split, the seek position and
//! the pool's recency order would all diverge — so such a statement
//! returns [`Fallback::MultipleLobSites`] and the interpreter, which
//! evaluates a row's expressions strictly in list order, runs it.

use crate::expr::{AggFunc, BinOp, EvalEnv, Expr};
use crate::pushdown::Pushdown;
use crate::tsql::SelectItem;
use crate::udf::{Udf, UdfRegistry};
use crate::value::{Arg, EngineError, Result, Value};
use sqlarray_core::batch as b;
use sqlarray_core::batch::{ArithOp, Batch, CmpOp, ColVec};
use sqlarray_storage::{ColType, Schema};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Why a statement's scan ran the row-at-a-time interpreter instead of a
/// compiled batch plan — the typed answer the planner gives in place of a
/// plan, surfaced as [`crate::exec::QueryStats::fallback`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fallback {
    /// Batch execution is switched off (`SQLARRAY_BATCH_ROWS=0` /
    /// `Session::set_batch_rows(0)`): the reference interpreter.
    BatchDisabled,
    /// The select list calls a user-defined aggregate.
    Uda(String),
    /// A session variable with no binding: a per-row error in the
    /// interpreter (raised only when the table is non-empty).
    MissingVar(String),
    /// A variable bound to a lazy LOB reference.
    LobVar(String),
    /// A column the table does not have (a per-row error, like above).
    UnknownColumn(String),
    /// A blob column inside a computed expression or a `SUM`/`MIN`/`MAX`.
    BlobInScalarExpr,
    /// Unary minus over a boolean: a typed error in the interpreter.
    NegBool,
    /// A call to a function the registry does not know.
    UnknownFunction(String),
    /// A call whose argument count the callee rejects.
    CallArity(String),
    /// An aggregate nested inside another expression.
    NestedAggregate,
    /// More than one site of the statement can read a LOB (module docs,
    /// "One LOB site").
    MultipleLobSites,
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fallback::BatchDisabled => write!(f, "batch execution disabled"),
            Fallback::Uda(name) => write!(f, "user-defined aggregate `{name}`"),
            Fallback::MissingVar(name) => write!(f, "unbound variable `@{name}`"),
            Fallback::LobVar(name) => write!(f, "variable `@{name}` holds a LOB reference"),
            Fallback::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            Fallback::BlobInScalarExpr => write!(f, "blob column in a scalar expression"),
            Fallback::NegBool => write!(f, "negation of a boolean"),
            Fallback::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            Fallback::CallArity(name) => write!(f, "wrong argument count for `{name}`"),
            Fallback::NestedAggregate => write!(f, "aggregate nested in an expression"),
            Fallback::MultipleLobSites => write!(f, "more than one LOB-reading site"),
        }
    }
}

/// Static type of a compiled batch expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VKind {
    I64,
    I32,
    F64,
    F32,
    Bool,
    /// Typed per value at run time: a UDF result, a string, bytes or NULL
    /// constant, or an operator over one.
    Dyn,
}

impl VKind {
    fn is_int(self) -> bool {
        matches!(self, VKind::I64 | VKind::I32)
    }
}

/// A compiled scalar expression over batch columns.
#[derive(Debug, Clone)]
pub(crate) enum BExpr {
    /// Batch column `pos` (a position in [`BatchPlan::cols`], not a schema
    /// index) of the given scalar kind.
    Col {
        pos: usize,
        kind: VKind,
    },
    /// A literal or session-variable value, never a LOB reference.
    Const(Value),
    Neg(Box<BExpr>),
    Not(Box<BExpr>),
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Cmp {
        op: CmpOp,
        l: Box<BExpr>,
        r: Box<BExpr>,
    },
    /// Both operands integral: wrapping `i64` arithmetic yielding `BIGINT`.
    IntArith {
        op: ArithOp,
        l: Box<BExpr>,
        r: Box<BExpr>,
    },
    /// At least one non-integral operand: `f64` arithmetic yielding `FLOAT`.
    FloatArith {
        op: ArithOp,
        l: Box<BExpr>,
        r: Box<BExpr>,
    },
    /// Arithmetic or comparison with a dynamic operand: the interpreter's
    /// own operator, value by value.
    DynBin {
        op: BinOp,
        l: Box<BExpr>,
        r: Box<BExpr>,
    },
    /// Scalar UDF call.
    Call(Box<Call>),
}

impl BExpr {
    pub(crate) fn kind(&self) -> VKind {
        match self {
            BExpr::Col { kind, .. } => *kind,
            BExpr::Const(Value::I64(_)) => VKind::I64,
            BExpr::Const(Value::I32(_)) => VKind::I32,
            BExpr::Const(Value::F64(_)) => VKind::F64,
            BExpr::Const(Value::F32(_)) => VKind::F32,
            BExpr::Const(Value::Bool(_)) => VKind::Bool,
            BExpr::Const(_) => VKind::Dyn,
            BExpr::Neg(e) => e.kind(),
            BExpr::Not(_) | BExpr::And(..) | BExpr::Or(..) | BExpr::Cmp { .. } => VKind::Bool,
            BExpr::IntArith { .. } => VKind::I64,
            BExpr::FloatArith { .. } => VKind::F64,
            BExpr::DynBin { .. } | BExpr::Call(_) => VKind::Dyn,
        }
    }
}

/// A scalar UDF call with everything the interpreter re-derives per row
/// bound once per statement: the callee (arity already checked), and
/// whether the name is a `Subarray`/`Item` the LOB pushdown may serve.
#[derive(Clone)]
pub(crate) struct Call {
    /// The function name as written (error messages quote it).
    name: String,
    udf: Arc<Udf>,
    pushdown: Option<Pushdown>,
    args: Vec<CallArg>,
}

impl fmt::Debug for Call {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Call")
            .field("name", &self.name)
            .field("pushdown", &self.pushdown)
            .field("args", &self.args)
            .finish()
    }
}

/// One argument of a compiled [`Call`].
#[derive(Debug, Clone)]
pub(crate) enum CallArg {
    /// A literal or session-variable value of any type, passed as is.
    Const(Value),
    /// A bare blob column (batch position): inline bytes are copied into
    /// the reused argument slot, out-of-row cells go in as lazy LOB
    /// references for the pushdown or the full-read fallback.
    Blob(usize),
    /// Any other expression, evaluated as a lane before the calls.
    Lane(BExpr),
}

/// One compiled select-list item.
#[derive(Debug, Clone)]
pub(crate) enum BItem {
    /// Scalar projection.
    Proj(BExpr),
    /// Bare blob-column projection: materialized per selected row at the
    /// projection boundary (inline bytes copied, LOB references resolved
    /// through the worker's reader in row order).
    ProjBlob(usize),
    /// Built-in aggregate over a scalar argument. `None` counts rows
    /// without evaluating anything: `COUNT(*)`, and `COUNT(blob_col)` —
    /// only null-ness matters there and stored columns are never null
    /// (the column is still decoded, so the plan stays leaf-aligned).
    Agg(Option<BExpr>),
    /// Non-aggregate item inside an aggregate query: evaluated once per
    /// group, at the row that opened it (the row interpreter's semantics),
    /// unless it repeats a `GROUP BY` key, whose value it then takes.
    Plain(BExpr),
}

/// One compiled `GROUP BY` key.
#[derive(Debug, Clone)]
pub(crate) enum BKey {
    /// A scalar (or dynamic) expression.
    Scalar(BExpr),
    /// A bare blob column: groups by the cell's bytes, resolving
    /// out-of-row cells like any other binary value.
    Blob(usize),
}

/// A compiled vectorized scan: which schema columns to decode, the filter,
/// the grouping keys and the select-list items, all in terms of batch
/// column positions.
#[derive(Debug, Clone)]
pub(crate) struct BatchPlan {
    /// Schema column indices to decode, in batch-column order.
    pub cols: Vec<usize>,
    /// Compiled WHERE predicate.
    pub filter: Option<BExpr>,
    /// Compiled GROUP BY keys (empty: one global group, or a projection).
    pub group_by: Vec<BKey>,
    /// Compiled select-list items (aggregates iff the query aggregates).
    pub items: Vec<BItem>,
    /// Flush batches at every leaf boundary. Set when the plan touches a
    /// blob column, so per-batch LOB resolution interleaves page reads
    /// (leaf, then that leaf's LOB pages) exactly like the row-at-a-time
    /// scan — the IoStats/seek DOP-invariance machinery depends on it.
    pub leaf_aligned: bool,
}

struct Compiler<'a> {
    schema: &'a Schema,
    vars: &'a HashMap<String, Value>,
    udfs: &'a UdfRegistry,
    cols: Vec<usize>,
    /// Sites that hand a blob cell to something that may read its LOB.
    blob_sites: usize,
}

type Compiled<T> = std::result::Result<T, Fallback>;

impl<'a> Compiler<'a> {
    /// Batch column position for a schema index, registering it on first
    /// use. Linear scan: plans touch a handful of columns.
    fn col_pos(&mut self, idx: usize) -> usize {
        match self.cols.iter().position(|&c| c == idx) {
            Some(p) => p,
            None => {
                self.cols.push(idx);
                self.cols.len() - 1
            }
        }
    }

    /// A literal (`var` is `None`) or variable value as a plan constant.
    /// The interpreter re-resolves a LOB reference per row; it stays there.
    fn constant(v: &Value, var: Option<&str>) -> Compiled<Value> {
        match (v, var) {
            (Value::Lob { .. }, Some(name)) => Err(Fallback::LobVar(name.into())),
            (Value::Lob { .. }, None) => Err(Fallback::BlobInScalarExpr),
            _ => Ok(v.clone()),
        }
    }

    /// A missing variable is a per-row error in the interpreter
    /// (FROM-scans only raise it when the table is non-empty), so it must
    /// stay on the row path to error identically.
    fn var(&self, name: &str) -> Compiled<&'a Value> {
        crate::expr::lookup_var(self.vars, name).ok_or_else(|| Fallback::MissingVar(name.into()))
    }

    fn col_index(&self, name: &str) -> Compiled<usize> {
        self.schema
            .col_index(name)
            .ok_or_else(|| Fallback::UnknownColumn(name.into()))
    }

    fn compile(&mut self, e: &Expr) -> Compiled<BExpr> {
        match e {
            Expr::Lit(v) => Ok(BExpr::Const(Self::constant(v, None)?)),
            Expr::Var(name) => Ok(BExpr::Const(Self::constant(self.var(name)?, Some(name))?)),
            Expr::Col(name) => {
                let idx = self.col_index(name)?;
                let kind = match self.schema.columns[idx].ctype {
                    ColType::I64 => VKind::I64,
                    ColType::I32 => VKind::I32,
                    ColType::F64 => VKind::F64,
                    ColType::F32 => VKind::F32,
                    // Blob columns inside computed expressions (equality,
                    // truthiness, …) keep row semantics by falling back.
                    ColType::Blob => return Err(Fallback::BlobInScalarExpr),
                };
                Ok(BExpr::Col {
                    pos: self.col_pos(idx),
                    kind,
                })
            }
            Expr::Neg(inner) => {
                let c = self.compile(inner)?;
                if c.kind() == VKind::Bool {
                    // `-(bool)` is a typed error in the interpreter; the
                    // fallback raises it with the exact message.
                    return Err(Fallback::NegBool);
                }
                Ok(BExpr::Neg(Box::new(c)))
            }
            Expr::Not(inner) => Ok(BExpr::Not(Box::new(self.compile(inner)?))),
            Expr::Bin { op, left, right } => {
                let l = Box::new(self.compile(left)?);
                let r = Box::new(self.compile(right)?);
                let dynamic = l.kind() == VKind::Dyn || r.kind() == VKind::Dyn;
                Ok(match op {
                    BinOp::And => BExpr::And(l, r),
                    BinOp::Or => BExpr::Or(l, r),
                    _ if dynamic => BExpr::DynBin { op: *op, l, r },
                    BinOp::Eq => BExpr::Cmp {
                        op: CmpOp::Eq,
                        l,
                        r,
                    },
                    BinOp::Ne => BExpr::Cmp {
                        op: CmpOp::Ne,
                        l,
                        r,
                    },
                    BinOp::Lt => BExpr::Cmp {
                        op: CmpOp::Lt,
                        l,
                        r,
                    },
                    BinOp::Le => BExpr::Cmp {
                        op: CmpOp::Le,
                        l,
                        r,
                    },
                    BinOp::Gt => BExpr::Cmp {
                        op: CmpOp::Gt,
                        l,
                        r,
                    },
                    BinOp::Ge => BExpr::Cmp {
                        op: CmpOp::Ge,
                        l,
                        r,
                    },
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        let aop = match op {
                            BinOp::Add => ArithOp::Add,
                            BinOp::Sub => ArithOp::Sub,
                            BinOp::Mul => ArithOp::Mul,
                            BinOp::Div => ArithOp::Div,
                            BinOp::Mod => ArithOp::Mod,
                            _ => unreachable!(),
                        };
                        if l.kind().is_int() && r.kind().is_int() {
                            BExpr::IntArith { op: aop, l, r }
                        } else {
                            BExpr::FloatArith { op: aop, l, r }
                        }
                    }
                })
            }
            Expr::Func { name, args } => self.call(name, args),
            Expr::UdaCall { name, .. } => Err(Fallback::Uda(name.clone())),
            Expr::Agg { .. } => Err(Fallback::NestedAggregate),
        }
    }

    /// Binds one scalar call. An unknown name or a rejected argument
    /// count is a *per-row* error in the interpreter (an empty table
    /// raises nothing), so both fall back rather than fail the plan.
    fn call(&mut self, name: &str, args: &[Expr]) -> Compiled<BExpr> {
        let udf = self
            .udfs
            .resolve(name)
            .ok_or_else(|| Fallback::UnknownFunction(name.into()))?;
        if udf.check_arity(name, args.len()).is_err() {
            return Err(Fallback::CallArity(name.into()));
        }
        let args = args
            .iter()
            .map(|a| self.call_arg(a))
            .collect::<Compiled<Vec<CallArg>>>()?;
        Ok(BExpr::Call(Box::new(Call {
            name: name.to_string(),
            udf: Arc::clone(udf),
            pushdown: Pushdown::classify(name),
            args,
        })))
    }

    fn call_arg(&mut self, e: &Expr) -> Compiled<CallArg> {
        match e {
            Expr::Lit(v) => Ok(CallArg::Const(Self::constant(v, None)?)),
            Expr::Var(name) => Ok(CallArg::Const(Self::constant(self.var(name)?, Some(name))?)),
            _ => match self.blob_col(e) {
                Some(pos) => {
                    self.blob_sites += 1;
                    Ok(CallArg::Blob(pos))
                }
                None => Ok(CallArg::Lane(self.compile(e)?)),
            },
        }
    }

    /// A bare blob-column reference, as a batch position.
    fn blob_col(&mut self, e: &Expr) -> Option<usize> {
        let Expr::Col(name) = e else { return None };
        let idx = self.schema.col_index(name)?;
        if self.schema.columns[idx].ctype != ColType::Blob {
            return None;
        }
        Some(self.col_pos(idx))
    }
}

/// Compiles a SELECT scan to a [`BatchPlan`], or says why the
/// row-at-a-time interpreter must run it. This is the vectorized
/// pipeline's single fallback seam — see the module docs for what
/// compiles.
pub(crate) fn plan_select(
    schema: &Schema,
    items: &[SelectItem],
    where_clause: Option<&Expr>,
    group_by: &[Expr],
    has_aggregate: bool,
    vars: &HashMap<String, Value>,
    udfs: &UdfRegistry,
) -> Compiled<BatchPlan> {
    let mut c = Compiler {
        schema,
        vars,
        udfs,
        cols: Vec::new(),
        blob_sites: 0,
    };
    // Compile in the interpreter's per-row evaluation order (WHERE, keys,
    // items) so batch columns register in first-use order.
    let filter = match where_clause {
        Some(w) => Some(c.compile(w)?),
        None => None,
    };
    let mut keys = Vec::with_capacity(group_by.len());
    for g in group_by {
        keys.push(match c.blob_col(g) {
            Some(pos) => {
                c.blob_sites += 1;
                BKey::Blob(pos)
            }
            None => BKey::Scalar(c.compile(g)?),
        });
    }
    let mut plan_items = Vec::with_capacity(items.len());
    for it in items {
        let item = if has_aggregate {
            match &it.expr {
                Expr::Agg { func, arg } => BItem::Agg(match arg.as_deref() {
                    Some(e) if *func == AggFunc::Count && c.blob_col(e).is_some() => None,
                    Some(e) => Some(c.compile(e)?),
                    // Only COUNT(*) parses without an argument.
                    None => None,
                }),
                other => BItem::Plain(c.compile(other)?),
            }
        } else {
            match c.blob_col(&it.expr) {
                Some(pos) => {
                    c.blob_sites += 1;
                    BItem::ProjBlob(pos)
                }
                None => BItem::Proj(c.compile(&it.expr)?),
            }
        };
        plan_items.push(item);
    }
    let leaf_aligned = c
        .cols
        .iter()
        .any(|&i| schema.columns[i].ctype == ColType::Blob);
    if c.blob_sites > 1 {
        return Err(Fallback::MultipleLobSites);
    }
    Ok(BatchPlan {
        cols: c.cols,
        filter,
        group_by: keys,
        items: plan_items,
        leaf_aligned,
    })
}

/// A batch expression result: one value per *selected* row, dense.
#[derive(Debug, Clone)]
pub(crate) enum BVal {
    I64(Vec<i64>),
    I32(Vec<i32>),
    F64(Vec<f64>),
    F32(Vec<f32>),
    Bool(Vec<bool>),
    /// Values typed at run time (UDF results and operators over them).
    Dyn(Vec<Value>),
}

impl BVal {
    /// Moves the `i`-th value out as an engine [`Value`], preserving the
    /// lane type (an `INT` column stays `Value::I32`, like the row
    /// interpreter). Each lane position is consumed at most once — a
    /// dynamic lane leaves `NULL` behind instead of cloning a blob.
    pub(crate) fn take_at(&mut self, i: usize) -> Value {
        match self {
            BVal::I64(v) => Value::I64(v[i]),
            BVal::I32(v) => Value::I32(v[i]),
            BVal::F64(v) => Value::F64(v[i]),
            BVal::F32(v) => Value::F32(v[i]),
            BVal::Bool(v) => Value::Bool(v[i]),
            BVal::Dyn(v) => std::mem::replace(&mut v[i], Value::Null),
        }
    }

    /// The `i`-th value as a call argument, borrowed from the lane.
    fn arg_at(&self, i: usize) -> Arg<'_> {
        match self {
            BVal::I64(v) => Arg::I64(v[i]),
            BVal::I32(v) => Arg::I32(v[i]),
            BVal::F64(v) => Arg::F64(v[i]),
            BVal::F32(v) => Arg::F32(v[i]),
            BVal::Bool(v) => Arg::Bool(v[i]),
            BVal::Dyn(v) => Arg::from(&v[i]),
        }
    }

    /// Appends one call result to a lane of `cap` rows that started as an
    /// empty `Dyn`: the first result, a `FLOAT` or a `BIGINT`, makes the
    /// lane `F64` or `I64`, and it stays typed while the results agree.
    /// The first result of any other kind demotes it to `Dyn`, each value
    /// wrapped as the `Value` it was — so the lane holds exactly the
    /// values a `Dyn` lane would, typed where it can be.
    fn push(&mut self, v: Value, cap: usize) -> Result<()> {
        match (&mut *self, v) {
            (BVal::F64(xs), Value::F64(x)) => xs.push(x),
            (BVal::I64(xs), Value::I64(x)) => xs.push(x),
            (BVal::Dyn(xs), Value::F64(x)) if xs.is_empty() => {
                *self = BVal::F64(Vec::with_capacity(cap));
                return self.push(Value::F64(x), cap);
            }
            (BVal::Dyn(xs), Value::I64(x)) if xs.is_empty() => {
                *self = BVal::I64(Vec::with_capacity(cap));
                return self.push(Value::I64(x), cap);
            }
            (BVal::Dyn(xs), v) => {
                xs.reserve(cap.saturating_sub(xs.len()));
                xs.push(v);
            }
            (typed, v) => {
                let mut xs = Vec::with_capacity(cap);
                std::mem::replace(typed, BVal::Dyn(Vec::new())).drain(|_, y| {
                    xs.push(y);
                    Ok(())
                })?;
                xs.push(v);
                *self = BVal::Dyn(xs);
            }
        }
        Ok(())
    }

    /// Feeds every value, in lane order, to `f` together with its lane
    /// position: one dispatch on the lane type, then a typed walk.
    pub(crate) fn drain(self, mut f: impl FnMut(usize, Value) -> Result<()>) -> Result<()> {
        fn walk<T>(
            lane: Vec<T>,
            wrap: impl Fn(T) -> Value,
            f: &mut impl FnMut(usize, Value) -> Result<()>,
        ) -> Result<()> {
            for (i, x) in lane.into_iter().enumerate() {
                f(i, wrap(x))?;
            }
            Ok(())
        }
        match self {
            BVal::I64(v) => walk(v, Value::I64, &mut f),
            BVal::I32(v) => walk(v, Value::I32, &mut f),
            BVal::F64(v) => walk(v, Value::F64, &mut f),
            BVal::F32(v) => walk(v, Value::F32, &mut f),
            BVal::Bool(v) => walk(v, Value::Bool, &mut f),
            BVal::Dyn(v) => walk(v, |x| x, &mut f),
        }
    }

    /// Integral lanes widened to `i64` (only called on int-kind results).
    fn into_i64(self) -> Result<Vec<i64>> {
        match self {
            BVal::I64(v) => Ok(v),
            BVal::I32(v) => {
                let mut out = Vec::new();
                b::widen_i32(&v, &mut out);
                Ok(out)
            }
            other => Err(EngineError::Type(format!(
                "batch plan error: expected integral lanes, got {other:?}"
            ))),
        }
    }

    /// Typed lanes coerced to `f64` with the row path's `as_f64`
    /// semantics (`BIT` → 0/1).
    fn into_f64(self) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        match self {
            BVal::F64(v) => return Ok(v),
            BVal::I64(v) => b::f64_from(&v, &mut out),
            BVal::I32(v) => b::f64_from(&v, &mut out),
            BVal::F32(v) => b::f64_from(&v, &mut out),
            BVal::Bool(v) => b::f64_from(&v, &mut out),
            BVal::Dyn(_) => {
                return Err(EngineError::Type(
                    "batch plan error: dynamic lane in a typed kernel".into(),
                ))
            }
        }
        Ok(out)
    }

    /// Lanes as a DML predicate: a typed non-boolean lane is an error for
    /// its first row (so none for an empty selection — the interpreter
    /// over an empty table raises nothing either), a dynamic lane for its
    /// first non-boolean value.
    fn into_strict_bool(self, stmt: &str) -> Result<Vec<bool>> {
        if let BVal::Bool(v) = self {
            return Ok(v);
        }
        let mut flags = Vec::new();
        self.drain(|_, v| {
            flags.push(crate::expr::strict_bool(v, stmt)?);
            Ok(())
        })?;
        Ok(flags)
    }

    /// Lanes as row-path truthiness (nonzero → true).
    fn into_truthy(self) -> Vec<bool> {
        let mut out = Vec::new();
        match self {
            BVal::Bool(v) => return v,
            BVal::I64(v) => b::truthy_i64(&v, &mut out),
            BVal::I32(v) => b::truthy_i32(&v, &mut out),
            BVal::F64(v) => b::truthy_f64(&v, &mut out),
            BVal::F32(v) => b::truthy_f32(&v, &mut out),
            BVal::Dyn(v) => out.extend(v.iter().map(Value::is_true)),
        }
        out
    }
}

/// Narrows `sel` in place to the rows where the filter `f` holds
/// (`scratch` is the swap buffer, reused across batches). SELECT coerces
/// the filter to truthiness; the match phase of a DML statement (`strict`
/// names it) requires booleans, like [`crate::expr::strict_bool`] — at the
/// top only, where `AND`/`OR`/`NOT` are booleans anyway: their operands
/// are truthiness-coerced on both paths.
///
/// **The** short-circuit rule of the batch path. `AND` refines by its
/// left operand, then by its right over the survivors; `OR` keeps what its
/// left operand keeps plus what its right keeps of the rest; `NOT` keeps
/// what its operand drops. So an operand runs over exactly the rows the
/// interpreter evaluates it on, and no per-row flag vector is merged.
pub(crate) fn refine(
    f: &BExpr,
    batch: &Batch,
    sel: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
    env: &mut EvalEnv<'_>,
    strict: Option<&str>,
) -> Result<()> {
    if sel.is_empty() {
        return Ok(());
    }
    match f {
        BExpr::And(l, r) => {
            refine(l, batch, sel, scratch, env, None)?;
            return refine(r, batch, sel, scratch, env, None);
        }
        BExpr::Or(l, r) => {
            let mut kept = sel.clone();
            refine(l, batch, &mut kept, scratch, env, None)?;
            let mut rest = Vec::new();
            b::selection_minus(sel, &kept, &mut rest);
            refine(r, batch, &mut rest, scratch, env, None)?;
            b::selection_union(&kept, &rest, scratch);
        }
        BExpr::Not(e) => {
            let mut kept = sel.clone();
            refine(e, batch, &mut kept, scratch, env, None)?;
            b::selection_minus(sel, &kept, scratch);
        }
        _ => match col_vs_const(f) {
            Some((pos, op, k)) => {
                let ordered = match &batch.cols[pos] {
                    ColVec::I64(lane) => b::select_cmp(op, lane, k, sel, scratch),
                    ColVec::I32(lane) => b::select_cmp(op, lane, k, sel, scratch),
                    ColVec::F64(lane) => b::select_cmp(op, lane, k, sel, scratch),
                    ColVec::F32(lane) => b::select_cmp(op, lane, k, sel, scratch),
                    ColVec::Blob { .. } => return Err(blob_in_scalar_expr()),
                };
                if !ordered {
                    return Err(crate::expr::nan_comparison());
                }
            }
            None => {
                let lane = eval(f, batch, sel, env)?;
                let flags = match strict {
                    Some(stmt) => lane.into_strict_bool(stmt)?,
                    None => lane.into_truthy(),
                };
                b::refine_selection(&flags, sel, scratch);
            }
        },
    }
    std::mem::swap(sel, scratch);
    Ok(())
}

/// A comparison of a scalar column with a numeric or boolean constant, as
/// (batch column, operator with the column on its left, the constant's
/// `f64` view — what [`BVal::into_f64`] would splat).
fn col_vs_const(f: &BExpr) -> Option<(usize, CmpOp, f64)> {
    let BExpr::Cmp { op, l, r } = f else {
        return None;
    };
    match (&**l, &**r) {
        (BExpr::Col { pos, .. }, BExpr::Const(v)) => Some((*pos, *op, v.as_f64().ok()?)),
        (BExpr::Const(v), BExpr::Col { pos, .. }) => Some((*pos, op.flipped(), v.as_f64().ok()?)),
        _ => None,
    }
}

#[cold]
fn blob_in_scalar_expr() -> EngineError {
    EngineError::Type("batch plan error: blob column in scalar expression".into())
}

/// The blob cell of batch column `pos` at batch row `row`: a lazy LOB
/// reference for out-of-row cells, the inline bytes otherwise.
pub(crate) enum BlobCell<'a> {
    Inline(&'a [u8]),
    Lob { id: u64, len: u64 },
}

pub(crate) fn blob_cell(batch: &Batch, pos: usize, row: u32) -> Result<BlobCell<'_>> {
    let ColVec::Blob { bytes, lob } = &batch.cols[pos] else {
        return Err(EngineError::Type(
            "batch plan error: blob access over a scalar column".into(),
        ));
    };
    let i = row as usize;
    Ok(match lob[i] {
        Some((id, len)) => BlobCell::Lob { id, len },
        None => BlobCell::Inline(bytes.get(i)),
    })
}

/// Runs one compiled call over the selected rows, in row order.
///
/// Argument lanes are evaluated first; then each row fills the one
/// argument list, borrowed ([`Arg`]): an inline blob cell is its bytes in
/// the batch, a lane value and a constant are read in place, so nothing
/// is allocated or copied per row. A row whose first argument is an
/// out-of-row cell takes the LOB pushdown — so every LOB page is read in
/// the order the interpreter reads it — or else resolves its LOB
/// arguments; the hosting model is charged once per row either way. The
/// lifecycle is polled per row: a callee may spin arbitrarily long
/// between two page reads.
///
/// The results come back typed while they agree ([`BVal::push`]): a
/// callee answering `FLOAT` (or `BIGINT`) on every row fills an `F64`
/// (`I64`) lane, which folds without a `Value` per row.
fn eval_call(c: &Call, batch: &Batch, sel: &[u32], env: &mut EvalEnv<'_>) -> Result<BVal> {
    let lanes = c
        .args
        .iter()
        .map(|a| match a {
            CallArg::Lane(e) => eval(e, batch, sel, env).map(Some),
            _ => Ok(None),
        })
        .collect::<Result<Vec<Option<BVal>>>>()?;
    let mut argv: Vec<Arg<'_>> = c
        .args
        .iter()
        .map(|a| match a {
            CallArg::Const(v) => Arg::from(v),
            _ => Arg::Null,
        })
        .collect();
    let mut out = BVal::Dyn(Vec::new());
    for (i, &row) in sel.iter().enumerate() {
        env.check_interrupt()?;
        let mut lobs = false;
        for ((slot, a), lane) in argv.iter_mut().zip(&c.args).zip(&lanes) {
            match (a, lane) {
                (CallArg::Lane(_), Some(lane)) => *slot = lane.arg_at(i),
                (CallArg::Blob(pos), _) => {
                    *slot = match blob_cell(batch, *pos, row)? {
                        BlobCell::Lob { id, len } => {
                            lobs = true;
                            Arg::Lob { id, len }
                        }
                        BlobCell::Inline(cell) => Arg::Bytes(cell),
                    }
                }
                _ => {}
            }
        }
        let v = if lobs {
            call_over_lobs(c, &argv, env)?
        } else {
            c.udf.invoke(&argv, env.hosting)?
        };
        out.push(v, sel.len())?;
    }
    Ok(out)
}

/// One call whose arguments include an out-of-row cell: the pushdown
/// when it serves the call, otherwise the callee over the LOBs resolved,
/// each by one full ranged read in argument order.
fn call_over_lobs(c: &Call, argv: &[Arg<'_>], env: &mut EvalEnv<'_>) -> Result<Value> {
    if let Some(p) = &c.pushdown {
        if let Some(v) = p.apply(argv, env)? {
            return Ok(v);
        }
    }
    let mut resolved = Vec::with_capacity(argv.len());
    for a in argv {
        let mut v = match a {
            Arg::Lob { id, len } => Value::Lob { id: *id, len: *len },
            _ => Value::Null,
        };
        crate::pushdown::resolve_lob_in_place(&mut v, env)?;
        resolved.push(v);
    }
    let args: Vec<Arg<'_>> = argv
        .iter()
        .zip(&resolved)
        .map(|(a, r)| match a {
            Arg::Lob { .. } => Arg::from(r),
            other => *other,
        })
        .collect();
    c.udf.invoke(&args, env.hosting)
}

/// Evaluates a compiled expression over the selected rows of a batch,
/// returning one dense value per selected row.
pub(crate) fn eval(e: &BExpr, batch: &Batch, sel: &[u32], env: &mut EvalEnv<'_>) -> Result<BVal> {
    match e {
        BExpr::Col { pos, .. } => match &batch.cols[*pos] {
            ColVec::I64(src) => {
                let mut out = Vec::new();
                b::gather_i64(src, sel, &mut out);
                Ok(BVal::I64(out))
            }
            ColVec::I32(src) => {
                let mut out = Vec::new();
                b::gather_i32(src, sel, &mut out);
                Ok(BVal::I32(out))
            }
            ColVec::F64(src) => {
                let mut out = Vec::new();
                b::gather_f64(src, sel, &mut out);
                Ok(BVal::F64(out))
            }
            ColVec::F32(src) => {
                let mut out = Vec::new();
                b::gather_f32(src, sel, &mut out);
                Ok(BVal::F32(out))
            }
            ColVec::Blob { .. } => Err(blob_in_scalar_expr()),
        },
        BExpr::Const(v) => {
            fn splat<T: Copy>(x: T, n: usize) -> Vec<T> {
                let mut out = Vec::new();
                b::splat(x, n, &mut out);
                out
            }
            let n = sel.len();
            Ok(match v {
                Value::I64(x) => BVal::I64(splat(*x, n)),
                Value::I32(x) => BVal::I32(splat(*x, n)),
                Value::F64(x) => BVal::F64(splat(*x, n)),
                Value::F32(x) => BVal::F32(splat(*x, n)),
                Value::Bool(x) => BVal::Bool(splat(*x, n)),
                other => BVal::Dyn(vec![other.clone(); n]),
            })
        }
        BExpr::Neg(inner) => match eval(inner, batch, sel, env)? {
            BVal::I64(v) => {
                let mut out = Vec::new();
                b::neg_i64(&v, &mut out);
                Ok(BVal::I64(out))
            }
            BVal::I32(v) => {
                let mut out = Vec::new();
                b::neg_i32(&v, &mut out);
                Ok(BVal::I32(out))
            }
            BVal::F64(v) => {
                let mut out = Vec::new();
                b::neg_f64(&v, &mut out);
                Ok(BVal::F64(out))
            }
            BVal::F32(v) => {
                let mut out = Vec::new();
                b::neg_f32(&v, &mut out);
                Ok(BVal::F32(out))
            }
            BVal::Dyn(v) => Ok(BVal::Dyn(
                v.into_iter()
                    .map(crate::expr::negate)
                    .collect::<Result<_>>()?,
            )),
            BVal::Bool(_) => Err(EngineError::Type(
                "batch plan error: negation of a boolean".into(),
            )),
        },
        BExpr::Not(_) | BExpr::And(..) | BExpr::Or(..) => {
            // Short-circuiting is `refine`'s alone: the lane is which
            // selected rows it keeps.
            let mut kept = sel.to_vec();
            refine(e, batch, &mut kept, &mut Vec::new(), env, None)?;
            let mut out = Vec::new();
            b::selection_flags(sel, &kept, &mut out);
            Ok(BVal::Bool(out))
        }
        BExpr::Cmp { op, l, r } => {
            let a = eval(l, batch, sel, env)?.into_f64()?;
            let bv = eval(r, batch, sel, env)?.into_f64()?;
            let mut out = Vec::new();
            if !b::cmp_f64(*op, &a, &bv, &mut out) {
                return Err(crate::expr::nan_comparison());
            }
            Ok(BVal::Bool(out))
        }
        BExpr::IntArith { op, l, r } => {
            let a = eval(l, batch, sel, env)?.into_i64()?;
            let bv = eval(r, batch, sel, env)?.into_i64()?;
            let mut out = Vec::new();
            if !b::arith_i64(*op, &a, &bv, &mut out) {
                return Err(EngineError::Type(match op {
                    ArithOp::Div => "integer division by zero".into(),
                    ArithOp::Mod => "modulo by zero".into(),
                    _ => unreachable!("only Div/Mod report zero divisors"),
                }));
            }
            Ok(BVal::I64(out))
        }
        BExpr::FloatArith { op, l, r } => {
            let a = eval(l, batch, sel, env)?.into_f64()?;
            let bv = eval(r, batch, sel, env)?.into_f64()?;
            let mut out = Vec::new();
            b::arith_f64(*op, &a, &bv, &mut out);
            Ok(BVal::F64(out))
        }
        BExpr::DynBin { op, l, r } => {
            let mut a = eval(l, batch, sel, env)?;
            let mut bv = eval(r, batch, sel, env)?;
            let mut out = Vec::with_capacity(sel.len());
            for i in 0..sel.len() {
                out.push(crate::expr::apply_bin(*op, a.take_at(i), bv.take_at(i))?);
            }
            Ok(BVal::Dyn(out))
        }
        BExpr::Call(c) => eval_call(c, batch, sel, env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::HostingModel;
    use sqlarray_core::batch::BytesVec;

    /// Evaluates with the array library registered and no reader in scope.
    fn eval_free(e: &BExpr, batch: &Batch, sel: &[u32]) -> Result<BVal> {
        let (udfs, vars) = (registry(), no_vars());
        let mut env = EvalEnv {
            udfs: &udfs,
            hosting: &mut HostingModel::free(),
            vars: &vars,
            lobs: None,
        };
        eval(e, batch, sel, &mut env)
    }

    fn registry() -> UdfRegistry {
        let mut reg = UdfRegistry::new();
        crate::arraybind::register_all(&mut reg);
        reg
    }

    fn scalar_schema() -> Schema {
        Schema::new(&[
            ("id", ColType::I64),
            ("n", ColType::I32),
            ("x", ColType::F64),
            ("y", ColType::F32),
            ("v", ColType::Blob),
        ])
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn item(expr: Expr) -> SelectItem {
        SelectItem {
            expr,
            alias: None,
            assign: None,
        }
    }

    fn no_vars() -> HashMap<String, Value> {
        HashMap::new()
    }

    fn plan(
        items: &[SelectItem],
        where_clause: Option<&Expr>,
        has_aggregate: bool,
    ) -> Compiled<BatchPlan> {
        plan_grouped(items, where_clause, &[], has_aggregate)
    }

    fn plan_grouped(
        items: &[SelectItem],
        where_clause: Option<&Expr>,
        group_by: &[Expr],
        has_aggregate: bool,
    ) -> Compiled<BatchPlan> {
        plan_select(
            &scalar_schema(),
            items,
            where_clause,
            group_by,
            has_aggregate,
            &no_vars(),
            &registry(),
        )
    }

    fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Func {
            name: name.into(),
            args,
        }
    }

    #[test]
    fn compiles_scalar_filter_and_projection() {
        // SELECT id, x * 2.0 FROM T WHERE n % 2 = 0 AND x > 1.5
        let wh = bin(
            BinOp::And,
            bin(
                BinOp::Eq,
                bin(BinOp::Mod, Expr::Col("n".into()), Expr::Lit(Value::I64(2))),
                Expr::Lit(Value::I64(0)),
            ),
            bin(BinOp::Gt, Expr::Col("x".into()), Expr::Lit(Value::F64(1.5))),
        );
        let items = [
            item(Expr::Col("id".into())),
            item(bin(
                BinOp::Mul,
                Expr::Col("x".into()),
                Expr::Lit(Value::F64(2.0)),
            )),
        ];
        let p = plan(&items, Some(&wh), false).expect("should compile");
        // Columns registered in first-use order: n (filter), x, id.
        assert_eq!(p.cols, vec![1, 2, 0]);
        assert!(!p.leaf_aligned);
        assert!(p.filter.is_some());
        assert_eq!(p.items.len(), 2);
    }

    #[test]
    fn fallbacks_carry_their_reason() {
        let id = || item(Expr::Col("id".into()));
        let why = |items: &[SelectItem], wh: Option<&Expr>, agg: bool| {
            plan(items, wh, agg).expect_err("should fall back")
        };
        // Unknown function and wrong arity are per-row interpreter errors.
        let f = item(call("dbo.F", vec![Expr::Col("x".into())]));
        assert_eq!(
            why(&[f], None, false),
            Fallback::UnknownFunction("dbo.F".into())
        );
        let f = item(call("FloatArray.Item_1", vec![Expr::Col("v".into())]));
        assert_eq!(
            why(&[f], None, false),
            Fallback::CallArity("FloatArray.Item_1".into())
        );
        // UDA in the select list.
        let uda = item(Expr::UdaCall {
            name: "FloatArray.VectorAvg".into(),
            args: vec![Expr::Col("v".into())],
        });
        assert_eq!(
            why(&[uda], None, true),
            Fallback::Uda("FloatArray.VectorAvg".into())
        );
        // Missing session variable (error parity).
        let wh = bin(BinOp::Gt, Expr::Col("x".into()), Expr::Var("gone".into()));
        assert_eq!(
            why(&[id()], Some(&wh), false),
            Fallback::MissingVar("gone".into())
        );
        // Blob column inside a computed expression, or summed.
        let wh = bin(BinOp::Eq, Expr::Col("v".into()), Expr::Col("v".into()));
        assert_eq!(why(&[id()], Some(&wh), false), Fallback::BlobInScalarExpr);
        let sum_v = item(Expr::Agg {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::Col("v".into()))),
        });
        assert_eq!(why(&[sum_v], None, true), Fallback::BlobInScalarExpr);
        // Negated boolean, unknown column.
        let neg = item(Expr::Neg(Box::new(Expr::Lit(Value::Bool(true)))));
        assert_eq!(why(&[neg], None, false), Fallback::NegBool);
        let nope = item(Expr::Col("nope".into()));
        assert_eq!(
            why(&[nope], None, false),
            Fallback::UnknownColumn("nope".into())
        );
    }

    #[test]
    fn calls_bind_once_and_count_their_blob_sites() {
        // SELECT floatarray.Item_1(v, n % 5) FROM T: callee and pushdown
        // classification are in the plan; `v` is a blob site, `n % 5` a
        // lane: one LOB site, so the plan compiles.
        let q4 = item(call(
            "floatarray.Item_1",
            vec![
                Expr::Col("v".into()),
                bin(BinOp::Mod, Expr::Col("n".into()), Expr::Lit(Value::I64(5))),
            ],
        ));
        let p = plan(std::slice::from_ref(&q4), None, false).expect("should compile");
        assert!(p.leaf_aligned);
        let BItem::Proj(BExpr::Call(c)) = &p.items[0] else {
            panic!("expected a call, got {:?}", p.items[0]);
        };
        assert!(c.pushdown.is_some());
        assert!(matches!(c.args[0], CallArg::Blob(_)));
        assert!(matches!(c.args[1], CallArg::Lane(BExpr::IntArith { .. })));
        assert_eq!(BExpr::Call(c.clone()).kind(), VKind::Dyn);
        // Constants of any type are fine as call arguments.
        let conv = item(call(
            "FloatArray.ConvertTo",
            vec![Expr::Col("v".into()), Expr::Lit(Value::Str("int32".into()))],
        ));
        assert!(plan(&[conv], None, false).is_ok());
        // A second LOB site (projecting `v` beside the call) is the
        // interpreter's: column order would reorder the LOB reads.
        assert_eq!(
            plan(&[q4, item(Expr::Col("v".into()))], None, false).unwrap_err(),
            Fallback::MultipleLobSites
        );
    }

    #[test]
    fn group_by_compiles_scalar_and_blob_keys() {
        let count = item(Expr::Agg {
            func: AggFunc::CountStar,
            arg: None,
        });
        let p = plan_grouped(
            std::slice::from_ref(&count),
            None,
            &[Expr::Col("n".into()), Expr::Col("v".into())],
            true,
        )
        .expect("should compile");
        assert!(matches!(p.group_by[0], BKey::Scalar(_)));
        assert!(matches!(p.group_by[1], BKey::Blob(_)));
        assert!(p.leaf_aligned);
    }

    #[test]
    fn blob_projection_sets_leaf_aligned() {
        let p = plan(&[item(Expr::Col("v".into()))], None, false).expect("should compile");
        assert!(p.leaf_aligned);
        assert!(matches!(p.items[0], BItem::ProjBlob(0)));
        // COUNT(v) compiles too — null-ness only.
        let p = plan(
            &[item(Expr::Agg {
                func: AggFunc::Count,
                arg: Some(Box::new(Expr::Col("v".into()))),
            })],
            None,
            true,
        )
        .expect("should compile");
        assert!(p.leaf_aligned);
        assert!(matches!(p.items[0], BItem::Agg(None)));
    }

    fn test_batch() -> Batch {
        // Columns (batch order): I64 [1,2,3,4], F64 [0.5,1.5,-2.0,0.0]
        Batch {
            keys: vec![10, 11, 12, 13],
            cols: vec![
                ColVec::I64(vec![1, 2, 3, 4]),
                ColVec::F64(vec![0.5, 1.5, -2.0, 0.0]),
            ],
        }
    }

    fn all(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn eval_matches_row_semantics() {
        let batch = test_batch();
        let sel = all(4);
        let col0 = BExpr::Col {
            pos: 0,
            kind: VKind::I64,
        };
        let col1 = BExpr::Col {
            pos: 1,
            kind: VKind::F64,
        };
        // Int arithmetic stays integral and wraps.
        let e = BExpr::IntArith {
            op: ArithOp::Add,
            l: Box::new(col0.clone()),
            r: Box::new(BExpr::Const(Value::I64(i64::MAX))),
        };
        match eval_free(&e, &batch, &sel).unwrap() {
            BVal::I64(v) => assert_eq!(v, vec![i64::MIN, i64::MIN + 1, i64::MIN + 2, i64::MIN + 3]),
            other => panic!("expected I64, got {other:?}"),
        }
        // Mixed arithmetic is f64.
        let e = BExpr::FloatArith {
            op: ArithOp::Mul,
            l: Box::new(col0.clone()),
            r: Box::new(col1.clone()),
        };
        match eval_free(&e, &batch, &sel).unwrap() {
            BVal::F64(v) => assert_eq!(v, vec![0.5, 3.0, -6.0, 0.0]),
            other => panic!("expected F64, got {other:?}"),
        }
        // Comparison over a sub-selection gathers the right lanes.
        let e = BExpr::Cmp {
            op: CmpOp::Gt,
            l: Box::new(col1.clone()),
            r: Box::new(BExpr::Const(Value::F64(0.0))),
        };
        match eval_free(&e, &batch, &[1, 3]).unwrap() {
            BVal::Bool(v) => assert_eq!(v, vec![true, false]),
            other => panic!("expected Bool, got {other:?}"),
        }
        // Division by zero raises the row path's message.
        let e = BExpr::IntArith {
            op: ArithOp::Div,
            l: Box::new(col0.clone()),
            r: Box::new(BExpr::Const(Value::I64(0))),
        };
        let err = eval_free(&e, &batch, &sel).unwrap_err();
        assert!(err.to_string().contains("integer division by zero"));
    }

    #[test]
    fn and_or_short_circuit_skips_rhs_rows() {
        let batch = test_batch();
        let sel = all(4);
        let col0 = BExpr::Col {
            pos: 0,
            kind: VKind::I64,
        };
        // (c0 > 2) AND (1 / (c0 - 2) > 0): the rhs divides by zero at
        // lane 1 (value 2), but that lane fails the lhs — the row path
        // never evaluates it, so neither must the batch path.
        let lhs = BExpr::Cmp {
            op: CmpOp::Gt,
            l: Box::new(col0.clone()),
            r: Box::new(BExpr::Const(Value::I64(2))),
        };
        let rhs = BExpr::Cmp {
            op: CmpOp::Gt,
            l: Box::new(BExpr::IntArith {
                op: ArithOp::Div,
                l: Box::new(BExpr::Const(Value::I64(1))),
                r: Box::new(BExpr::IntArith {
                    op: ArithOp::Sub,
                    l: Box::new(col0.clone()),
                    r: Box::new(BExpr::Const(Value::I64(2))),
                }),
            }),
            r: Box::new(BExpr::Const(Value::I64(0))),
        };
        // Lanes passing lhs: values 3, 4 → rhs divisors 1, 2 → no error,
        // and 1/1 > 0 but 1/2 = 0 is not.
        let e = BExpr::And(Box::new(lhs.clone()), Box::new(rhs.clone()));
        match eval_free(&e, &batch, &sel).unwrap() {
            BVal::Bool(v) => assert_eq!(v, vec![false, false, true, false]),
            other => panic!("expected Bool, got {other:?}"),
        }
        // Flip to OR: now the rhs runs on lanes 1, 2 (divisors -1, 0) and
        // the zero divisor *is* evaluated → error, same as the row path.
        let e = BExpr::Or(Box::new(lhs), Box::new(rhs));
        assert!(eval_free(&e, &batch, &sel).is_err());
    }

    #[test]
    fn filter_refines_selection() {
        let batch = test_batch();
        let mut sel = all(4);
        let mut scratch = Vec::new();
        let (udfs, vars) = (registry(), no_vars());
        let mut env = EvalEnv {
            udfs: &udfs,
            hosting: &mut HostingModel::free(),
            vars: &vars,
            lobs: None,
        };
        // x > 0.0 keeps lanes 0, 1.
        let f = BExpr::Cmp {
            op: CmpOp::Gt,
            l: Box::new(BExpr::Col {
                pos: 1,
                kind: VKind::F64,
            }),
            r: Box::new(BExpr::Const(Value::F64(0.0))),
        };
        refine(&f, &batch, &mut sel, &mut scratch, &mut env, None).unwrap();
        assert_eq!(sel, vec![0, 1]);
        // A second filter composes over the refined selection.
        let f2 = BExpr::Cmp {
            op: CmpOp::Ge,
            l: Box::new(BExpr::Col {
                pos: 0,
                kind: VKind::I64,
            }),
            r: Box::new(BExpr::Const(Value::I64(2))),
        };
        refine(&f2, &batch, &mut sel, &mut scratch, &mut env, None).unwrap();
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn string_bytes_and_null_constants_compile_to_dynamic_lanes() {
        // `id = 'x'` used to fall back; it compiles to the interpreter's
        // own compare over a dynamic lane — and raises its error.
        let wh = bin(
            BinOp::Eq,
            Expr::Col("id".into()),
            Expr::Lit(Value::Str("x".into())),
        );
        let p = plan(&[item(Expr::Col("id".into()))], Some(&wh), false).expect("should compile");
        let filter = p.filter.expect("a filter");
        assert!(matches!(filter, BExpr::DynBin { .. }), "{filter:?}");
        let batch = test_batch();
        let err = eval_free(&filter, &batch, &all(4)).unwrap_err();
        assert!(err.to_string().contains("is not numeric"), "{err}");
        // No row selected, nothing evaluated: an empty table raises nothing.
        assert!(matches!(eval_free(&filter, &batch, &[]), Ok(BVal::Dyn(v)) if v.is_empty()));

        for v in [
            Value::Str("s".into()),
            Value::Bytes(vec![1, 2]),
            Value::Null,
        ] {
            let c = BExpr::Const(v.clone());
            assert_eq!(c.kind(), VKind::Dyn);
            match eval_free(&c, &batch, &[0, 2]).unwrap() {
                BVal::Dyn(lane) => assert_eq!(lane, vec![v.clone(), v]),
                other => panic!("expected Dyn, got {other:?}"),
            }
        }
        // Typed constants keep their typed splat.
        assert_eq!(BExpr::Const(Value::I32(3)).kind(), VKind::I32);
        assert!(matches!(
            eval_free(&BExpr::Const(Value::Bool(true)), &batch, &[1]).unwrap(),
            BVal::Bool(v) if v == [true]
        ));
        // A LOB reference is never a plan constant.
        let lob = item(Expr::Lit(Value::Lob { id: 1, len: 2 }));
        assert_eq!(
            plan(&[lob], None, false).unwrap_err(),
            Fallback::BlobInScalarExpr
        );
    }

    #[test]
    fn strict_filters_reject_non_boolean_lanes_of_selected_rows_only() {
        let batch = test_batch();
        let mut scratch = Vec::new();
        let (udfs, vars) = (registry(), no_vars());
        let mut env = EvalEnv {
            udfs: &udfs,
            hosting: &mut HostingModel::free(),
            vars: &vars,
            lobs: None,
        };
        let col0 = BExpr::Col {
            pos: 0,
            kind: VKind::I64,
        };
        let mut strict = |f: &BExpr, sel: &mut Vec<u32>| {
            refine(f, &batch, sel, &mut scratch, &mut env, Some("DELETE"))
        };
        // A typed non-boolean lane: an error as soon as a row is selected.
        let err = strict(&col0, &mut all(4)).unwrap_err();
        assert_eq!(
            err,
            EngineError::Type("DELETE WHERE clause must evaluate to a boolean, got BIGINT".into())
        );
        strict(&col0, &mut Vec::new()).expect("no row, no error");
        // A dynamic lane: per value.
        let err = strict(&BExpr::Const(Value::Null), &mut all(4)).unwrap_err();
        assert!(err.to_string().ends_with("got NULL"), "{err}");
        // Booleans filter as ever.
        let f = BExpr::Cmp {
            op: CmpOp::Ge,
            l: Box::new(col0),
            r: Box::new(BExpr::Const(Value::I64(3))),
        };
        let mut sel = all(4);
        strict(&f, &mut sel).unwrap();
        assert_eq!(sel, vec![2, 3]);
    }

    #[test]
    fn take_at_preserves_lane_types_and_moves_dynamic_values() {
        assert_eq!(BVal::I32(vec![7]).take_at(0), Value::I32(7));
        assert_eq!(BVal::F32(vec![1.5]).take_at(0), Value::F32(1.5));
        assert_eq!(BVal::Bool(vec![true]).take_at(0), Value::Bool(true));
        let mut v = BVal::Dyn(vec![Value::Bytes(vec![1, 2, 3])]);
        assert_eq!(v.take_at(0), Value::Bytes(vec![1, 2, 3]));
        assert_eq!(v.take_at(0), Value::Null);
    }

    /// One blob column of short float vectors `[k, k + 0.5]`, k = 0..n.
    fn vector_batch(n: usize) -> Batch {
        let mut bytes = BytesVec::new();
        for k in 0..n {
            let a = sqlarray_core::build::short_vector(&[k as f64, k as f64 + 0.5]).unwrap();
            bytes.push(a.as_blob());
        }
        Batch {
            keys: (0..n as i64).collect(),
            cols: vec![ColVec::Blob {
                bytes,
                lob: vec![None; n],
            }],
        }
    }

    #[test]
    fn call_lanes_run_the_callee_per_selected_row_and_charge_hosting() {
        let batch = vector_batch(4);
        let plan = plan_select(
            &Schema::new(&[("v", ColType::Blob)]),
            &[item(bin(
                BinOp::Add,
                call(
                    "FloatArray.Item_1",
                    vec![Expr::Col("v".into()), Expr::Lit(Value::I64(1))],
                ),
                Expr::Lit(Value::I64(1)),
            ))],
            None,
            &[],
            false,
            &no_vars(),
            &registry(),
        )
        .expect("should compile");
        let BItem::Proj(e) = &plan.items[0] else {
            panic!("expected a projection");
        };
        assert!(matches!(e, BExpr::DynBin { .. }));
        let (udfs, vars) = (registry(), no_vars());
        let mut hosting = HostingModel::free();
        let mut env = EvalEnv {
            udfs: &udfs,
            hosting: &mut hosting,
            vars: &vars,
            lobs: None,
        };
        // Rows 1 and 3 only: Item_1(v, 1) + 1 = k + 1.5.
        match eval(e, &batch, &[1, 3], &mut env).unwrap() {
            BVal::Dyn(v) => assert_eq!(v, vec![Value::F64(2.5), Value::F64(4.5)]),
            other => panic!("expected Dyn, got {other:?}"),
        }
        assert_eq!(hosting.calls(), 2, "one managed call per selected row");
    }

    #[test]
    fn call_errors_surface_from_the_callee() {
        // Index 2 is out of bounds for the 2-element vectors.
        let batch = vector_batch(2);
        let plan = plan_select(
            &Schema::new(&[("v", ColType::Blob)]),
            &[item(call(
                "FloatArray.Item_1",
                vec![Expr::Col("v".into()), Expr::Lit(Value::I64(2))],
            ))],
            None,
            &[],
            false,
            &no_vars(),
            &registry(),
        )
        .unwrap();
        let BItem::Proj(e) = &plan.items[0] else {
            panic!("expected a projection");
        };
        let err = eval_free(e, &batch, &[0, 1]).unwrap_err();
        assert!(matches!(err, EngineError::Array(_)), "{err:?}");
    }

    #[test]
    fn blob_columns_are_rejected_in_scalar_eval() {
        let batch = Batch {
            keys: vec![1],
            cols: vec![ColVec::Blob {
                bytes: {
                    let mut b = BytesVec::new();
                    b.push(b"xyz");
                    b
                },
                lob: vec![None],
            }],
        };
        let e = BExpr::Col {
            pos: 0,
            kind: VKind::I64,
        };
        assert!(eval_free(&e, &batch, &[0]).is_err());
    }
}
