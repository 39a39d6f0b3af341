//! Expression trees and their evaluation.

use crate::hosting::HostingModel;
use crate::udf::UdfRegistry;
use crate::value::{Arg, EngineError, Result, Value};
use sqlarray_storage::row::RowValueRef;
use sqlarray_storage::{row, ColType, RowValue, Schema};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(
    missing_docs,
    reason = "each operator is named by its symbol's meaning"
)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Aggregate functions recognized by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs, reason = "each variant is the SQL aggregate of its name")]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Column reference (resolved by name against the scan schema).
    Col(String),
    /// Session variable `@name`.
    Var(String),
    /// Scalar function call (schema-qualified names allowed).
    Func {
        /// Function name as written.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Built-in aggregate; only valid in a select list.
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// The aggregated expression (`None` for `COUNT(*)`).
        arg: Option<Box<Expr>>,
    },
    /// User-defined aggregate; only valid in a select list.
    UdaCall {
        /// Registered UDA name.
        name: String,
        /// Per-row argument expressions.
        args: Vec<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
}

impl Expr {
    /// True if the expression (transitively) references a session
    /// variable. The plan cache only reuses a *compiled* batch plan for
    /// var-free statements — `plan_select` folds variable values into the
    /// compiled constants, so a plan touching `@x` is only valid for the
    /// binding it was compiled under.
    pub(crate) fn contains_var(&self) -> bool {
        match self {
            Expr::Var(_) => true,
            Expr::Func { args, .. } | Expr::UdaCall { args, .. } => {
                args.iter().any(Expr::contains_var)
            }
            Expr::Agg { arg, .. } => arg.as_deref().is_some_and(Expr::contains_var),
            Expr::Neg(e) | Expr::Not(e) => e.contains_var(),
            Expr::Bin { left, right, .. } => left.contains_var() || right.contains_var(),
            Expr::Lit(_) | Expr::Col(_) => false,
        }
    }

    /// True if the expression (transitively) contains an aggregate.
    pub(crate) fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } | Expr::UdaCall { .. } => true,
            Expr::Func { args, .. } => args.iter().any(Expr::contains_aggregate),
            Expr::Neg(e) | Expr::Not(e) => e.contains_aggregate(),
            Expr::Bin { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            _ => false,
        }
    }
}

/// Everything an expression needs to evaluate against one row.
pub struct RowCtx<'a> {
    /// Schema of the scanned table.
    pub schema: &'a Schema,
    /// Encoded row bytes (columns decode lazily).
    pub bytes: &'a [u8],
    /// Clustered key of the row.
    pub key: i64,
}

/// The evaluation environment: UDF registry, hosting model, variables,
/// and (when evaluating against stored rows) a page reader for resolving
/// lazy LOB values.
pub struct EvalEnv<'a> {
    /// Registered scalar functions.
    pub udfs: &'a UdfRegistry,
    /// Hosting cost model (mutated by managed calls).
    pub hosting: &'a mut HostingModel,
    /// Session variables.
    pub vars: &'a std::collections::HashMap<String, Value>,
    /// Page-read access for lazy LOB values ([`Value::Lob`]): a scan
    /// worker's `PartitionReader` inside a query, the store itself on
    /// serial paths, `None` where no storage is in scope (LOB references
    /// then raise [`EngineError::UnresolvedLob`]).
    pub lobs: Option<&'a mut dyn sqlarray_storage::PageRead>,
}

impl EvalEnv<'_> {
    /// Polls the statement's lifecycle (cancel flag, deadline, kill-matrix
    /// trip point) through the reader in scope. Loops that do unbounded
    /// work *between* page reads — a UDF call per row of a decoded batch —
    /// call this per iteration, like the row scan does per row.
    pub(crate) fn check_interrupt(&self) -> Result<()> {
        match self.lobs.as_deref().and_then(|r| r.lifecycle()) {
            Some(q) => Ok(q.check()?),
            None => Ok(()),
        }
    }
}

/// Case-insensitive variable lookup against a map whose keys are stored
/// lowercase (normalized once at insert). Only a name that actually
/// contains uppercase letters pays the lowercase allocation — the common
/// already-lowercase case borrows straight from the map, which matters
/// because `Expr::Var` evaluates once per scanned row.
pub(crate) fn lookup_var<'a>(
    vars: &'a std::collections::HashMap<String, Value>,
    name: &str,
) -> Option<&'a Value> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        vars.get(&name.to_ascii_lowercase())
    } else {
        vars.get(name)
    }
}

/// Evaluates an expression against an optional row.
pub(crate) fn eval(expr: &Expr, row: Option<&RowCtx<'_>>, env: &mut EvalEnv<'_>) -> Result<Value> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Var(name) => lookup_var(env.vars, name)
            .cloned()
            .ok_or_else(|| EngineError::Unknown(format!("variable `@{name}`"))),
        Expr::Col(name) => {
            let row = row.ok_or_else(|| {
                EngineError::Unknown(format!("column `{name}` outside a FROM context"))
            })?;
            let idx = row
                .schema
                .col_index(name)
                .ok_or_else(|| EngineError::Unknown(format!("column `{name}`")))?;
            let v = row::decode_col(row.schema, row.bytes, idx)?;
            Ok(resolve_row_value(v))
        }
        Expr::Func { name, args } => call(name, args, row, env),
        Expr::Agg { .. } | Expr::UdaCall { .. } => Err(EngineError::Unsupported(
            "aggregate evaluated outside an aggregation context".into(),
        )),
        Expr::Neg(e) => negate(eval(e, row, env)?),
        Expr::Not(e) => {
            let v = eval(e, row, env)?;
            Ok(Value::Bool(!v.is_true()))
        }
        Expr::Bin { op, left, right } => {
            let mut l = eval(left, row, env)?;
            // Short-circuit logical operators (truthiness of a LOB is its
            // length — no resolution needed).
            match op {
                BinOp::And if !l.is_true() => return Ok(Value::Bool(false)),
                BinOp::Or if l.is_true() => return Ok(Value::Bool(true)),
                _ => {}
            }
            let mut r = eval(right, row, env)?;
            // Comparisons and arithmetic see the same value an inline
            // blob would present: materialize lazy LOB operands so
            // `WHERE v = @blob` behaves identically on either side of
            // the 8 kB in-row limit. AND/OR are excluded — they consume
            // only truthiness, which a LOB reference answers by length.
            if !matches!(op, BinOp::And | BinOp::Or) {
                crate::pushdown::resolve_lob_in_place(&mut l, env)?;
                crate::pushdown::resolve_lob_in_place(&mut r, env)?;
            }
            apply_bin(*op, l, r)
        }
    }
}

/// Up to this many call arguments are gathered on the stack, so a row's
/// call allocates nothing for its argument list (a longer list, like a
/// `Vector_N` constructor's, takes one `Vec` per call).
const STACK_ARGS: usize = 8;

/// One evaluated argument of a row-path call: an inline blob column
/// borrowed from the row image, or the value any other argument evaluated
/// to.
pub(crate) enum Slot<'r> {
    Row(&'r [u8]),
    Owned(Value),
}

impl Slot<'_> {
    fn arg(&self) -> Arg<'_> {
        match self {
            Slot::Row(b) => Arg::Bytes(b),
            Slot::Owned(v) => Arg::from(v),
        }
    }

    /// Materializes a lazy LOB reference with one full ranged read
    /// ([`crate::pushdown::resolve_lob_in_place`]).
    pub(crate) fn resolve_lob(&mut self, env: &mut EvalEnv<'_>) -> Result<()> {
        match self {
            Slot::Row(_) => Ok(()),
            Slot::Owned(v) => crate::pushdown::resolve_lob_in_place(v, env),
        }
    }
}

/// One argument against one row: a bare blob column whose value the row
/// holds is the row image's bytes, anything else is evaluated (a LOB
/// reference stays lazy).
fn row_arg<'r>(a: &Expr, row: Option<&RowCtx<'r>>, env: &mut EvalEnv<'_>) -> Result<Slot<'r>> {
    if let (Expr::Col(name), Some(r)) = (a, row) {
        if let Some(idx) = r.schema.col_index(name) {
            if r.schema.columns[idx].ctype == ColType::Blob {
                if let RowValueRef::Bytes(b) = row::decode_col_ref(r.schema, r.bytes, idx)? {
                    return Ok(Slot::Row(b));
                }
            }
        }
    }
    eval(a, row, env).map(Slot::Owned)
}

/// Evaluates a call's `args` against one row, in order ([`row_arg`]),
/// and runs `f` over them — on the stack for up to [`STACK_ARGS`].
pub(crate) fn with_row_args<'r, R>(
    args: &[Expr],
    row: Option<&RowCtx<'r>>,
    env: &mut EvalEnv<'_>,
    f: impl FnOnce(&mut [Slot<'r>], &mut EvalEnv<'_>) -> Result<R>,
) -> Result<R> {
    let mut stack: [Slot<'r>; STACK_ARGS] = std::array::from_fn(|_| Slot::Owned(Value::Null));
    let mut heap = Vec::new();
    let slots = if args.len() <= STACK_ARGS {
        &mut stack[..args.len()]
    } else {
        heap.resize_with(args.len(), || Slot::Owned(Value::Null));
        &mut heap[..]
    };
    for (slot, a) in slots.iter_mut().zip(args) {
        *slot = row_arg(a, row, env)?;
    }
    f(slots, env)
}

/// Runs `f` over `slots` as borrowed call arguments — on the stack for up
/// to [`STACK_ARGS`].
pub(crate) fn with_args<R>(slots: &[Slot<'_>], f: impl FnOnce(&[Arg<'_>]) -> R) -> R {
    if slots.len() <= STACK_ARGS {
        let mut buf = [Arg::Null; STACK_ARGS];
        for (a, slot) in buf.iter_mut().zip(slots) {
            *a = slot.arg();
        }
        f(&buf[..slots.len()])
    } else {
        f(&slots.iter().map(Slot::arg).collect::<Vec<_>>())
    }
}

/// A scalar function call against one row. Kept out of [`eval`]: its
/// stack-held argument lists would otherwise widen the frame of every
/// recursive `eval`, most of which call nothing.
#[inline(never)]
fn call(
    name: &str,
    args: &[Expr],
    row: Option<&RowCtx<'_>>,
    env: &mut EvalEnv<'_>,
) -> Result<Value> {
    with_row_args(args, row, env, |slots, env| {
        // `Subarray`/`Item` over a base LOB column read only the header
        // prefix plus the pages the region intersects.
        let pushed = with_args(slots, |argv| {
            crate::pushdown::try_lob_pushdown(name, argv, env)
        })?;
        if let Some(v) = pushed {
            return Ok(v);
        }
        // Every other call materializes lazy LOB arguments with one full
        // ranged read each — the blob-aware fallback.
        for slot in slots.iter_mut() {
            slot.resolve_lob(env)?;
        }
        with_args(slots, |argv| env.udfs.call(name, argv, env.hosting))
    })
}

/// In-row data passes through; out-of-row LOB references surface as lazy
/// [`Value::Lob`] values, resolved later by a blob-aware consumer (the
/// pushdown rewrite, the full-read fallback, or the projection boundary)
/// — never as placeholder strings.
fn resolve_row_value(v: RowValue) -> Value {
    Value::from(v)
}

/// A DML predicate's value: unlike SELECT's truthiness coercion, an
/// `UPDATE`/`DELETE` (`stmt`) WHERE clause that does not evaluate to a
/// boolean is a typed error — silently coercing would make `WHERE id`
/// delete every non-zero row.
pub(crate) fn strict_bool(v: Value, stmt: &str) -> Result<bool> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(EngineError::Type(format!(
            "{stmt} WHERE clause must evaluate to a boolean, got {}",
            other.kind_name()
        ))),
    }
}

/// Unary minus: preserves the operand's numeric type.
pub(crate) fn negate(v: Value) -> Result<Value> {
    Ok(match v {
        Value::I64(x) => Value::I64(x.wrapping_neg()),
        Value::I32(x) => Value::I32(x.wrapping_neg()),
        Value::F64(x) => Value::F64(-x),
        Value::F32(x) => Value::F32(-x),
        other => return Err(EngineError::Type(format!("cannot negate {other:?}"))),
    })
}

/// One binary operator over two evaluated (LOB-resolved) operands.
pub(crate) fn apply_bin(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        And => Ok(Value::Bool(l.is_true() && r.is_true())),
        Or => Ok(Value::Bool(l.is_true() || r.is_true())),
        Add | Sub | Mul | Div | Mod => {
            // Integer arithmetic stays integral when both sides are.
            let int_int = matches!(l, Value::I64(_) | Value::I32(_))
                && matches!(r, Value::I64(_) | Value::I32(_));
            if int_int {
                let a = l.as_i64()?;
                let b = r.as_i64()?;
                let v = match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => {
                        if b == 0 {
                            return Err(EngineError::Type("integer division by zero".into()));
                        }
                        a.wrapping_div(b)
                    }
                    Mod => {
                        if b == 0 {
                            return Err(EngineError::Type("modulo by zero".into()));
                        }
                        a.wrapping_rem(b)
                    }
                    _ => unreachable!(),
                };
                Ok(Value::I64(v))
            } else {
                let a = l.as_f64()?;
                let b = r.as_f64()?;
                let v = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Mod => a % b,
                    _ => unreachable!(),
                };
                Ok(Value::F64(v))
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let ord = compare(&l, &r)?;
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Ne => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
    }
}

/// SQL comparison: numerics compare numerically, strings lexically, bytes
/// bytewise.
pub(crate) fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
        (Value::Bytes(a), Value::Bytes(b)) => Ok(a.cmp(b)),
        _ => {
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            a.partial_cmp(&b).ok_or_else(nan_comparison)
        }
    }
}

/// The typed error of a numeric comparison with a NaN operand — on every
/// path that compares: `compare`, the batch kernels and the MIN/MAX folds.
#[cold]
pub(crate) fn nan_comparison() -> EngineError {
    EngineError::Type("NaN comparison".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env_fixture() -> (UdfRegistry, HostingModel, HashMap<String, Value>) {
        let mut reg = UdfRegistry::new();
        reg.register("dbo.Twice", Some(1..=1), |a| {
            Ok(Value::F64(a[0].as_f64()? * 2.0))
        });
        let mut vars = HashMap::new();
        vars.insert("x".to_string(), Value::I64(21));
        (reg, HostingModel::free(), vars)
    }

    fn eval_free(expr: &Expr) -> Result<Value> {
        let (reg, mut h, vars) = env_fixture();
        let mut env = EvalEnv {
            udfs: &reg,
            hosting: &mut h,
            vars: &vars,
            lobs: None,
        };
        eval(expr, None, &mut env)
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic() {
        let e = bin(
            BinOp::Add,
            Expr::Lit(Value::I64(2)),
            bin(
                BinOp::Mul,
                Expr::Lit(Value::I64(3)),
                Expr::Lit(Value::I64(4)),
            ),
        );
        assert_eq!(eval_free(&e).unwrap(), Value::I64(14));
        let f = bin(
            BinOp::Div,
            Expr::Lit(Value::F64(1.0)),
            Expr::Lit(Value::I64(4)),
        );
        assert_eq!(eval_free(&f).unwrap(), Value::F64(0.25));
        let z = bin(
            BinOp::Div,
            Expr::Lit(Value::I64(1)),
            Expr::Lit(Value::I64(0)),
        );
        assert!(eval_free(&z).is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        let lt = bin(
            BinOp::Lt,
            Expr::Lit(Value::I64(1)),
            Expr::Lit(Value::F64(1.5)),
        );
        assert_eq!(eval_free(&lt).unwrap(), Value::Bool(true));
        let and = bin(
            BinOp::And,
            Expr::Lit(Value::Bool(true)),
            Expr::Lit(Value::Bool(false)),
        );
        assert_eq!(eval_free(&and).unwrap(), Value::Bool(false));
        let not = Expr::Not(Box::new(Expr::Lit(Value::I64(0))));
        assert_eq!(eval_free(&not).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // RHS would fail (unknown variable), but the AND short-circuits.
        let e = bin(
            BinOp::And,
            Expr::Lit(Value::Bool(false)),
            Expr::Var("missing".into()),
        );
        assert_eq!(eval_free(&e).unwrap(), Value::Bool(false));
    }

    #[test]
    fn variables_and_functions() {
        let e = Expr::Func {
            name: "dbo.Twice".into(),
            args: vec![Expr::Var("x".into())],
        };
        assert_eq!(eval_free(&e).unwrap(), Value::F64(42.0));
        assert!(eval_free(&Expr::Var("nope".into())).is_err());
    }

    #[test]
    fn column_eval_against_row() {
        use sqlarray_storage::{ColType, PageStore};
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let mut store = PageStore::new();
        let bytes = sqlarray_storage::row::encode_row(
            &mut store,
            &schema,
            &[RowValue::I64(7), RowValue::F64(1.25)],
        )
        .unwrap();
        let row = RowCtx {
            schema: &schema,
            bytes: &bytes,
            key: 7,
        };
        let (reg, mut h, vars) = env_fixture();
        let mut env = EvalEnv {
            udfs: &reg,
            hosting: &mut h,
            vars: &vars,
            lobs: None,
        };
        assert_eq!(
            eval(&Expr::Col("x".into()), Some(&row), &mut env).unwrap(),
            Value::F64(1.25)
        );
        assert!(eval(&Expr::Col("x".into()), None, &mut env).is_err());
        assert!(eval(&Expr::Col("nope".into()), Some(&row), &mut env).is_err());
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Agg {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::Col("x".into()))),
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::Func {
            name: "f".into(),
            args: vec![agg],
        };
        assert!(nested.contains_aggregate());
        assert!(!Expr::Col("x".into()).contains_aggregate());
    }

    #[test]
    fn negation_types() {
        assert_eq!(
            eval_free(&Expr::Neg(Box::new(Expr::Lit(Value::I32(5))))).unwrap(),
            Value::I32(-5)
        );
        assert!(eval_free(&Expr::Neg(Box::new(Expr::Lit(Value::Str("s".into()))))).is_err());
    }
}
