//! Keyed access paths: the interval of the clustered index a WHERE clause
//! confines its scan to.
//!
//! Every table is clustered on an `i64` key that its column 0 repeats
//! ([`crate::database::clustered_key_column`]), so `WHERE id = k` can seek
//! and `id >= a AND id < b` can read a leaf range. The interval only
//! decides which leaves and slots the scan *visits*; the WHERE clause
//! stays the filter on both scan bodies, unchanged. A keyed scan must
//! therefore be indistinguishable from the full scan except in what it
//! skips, which fixes what may narrow the interval:
//!
//! * **Error visibility.** A row outside the interval is never evaluated,
//!   so nothing the full scan would have evaluated on it — the conjuncts
//!   left of the key conjunct that rejects it — may be able to raise, call
//!   a UDF or read a page. Conjuncts are taken in evaluation order and
//!   the walk stops at the first that is neither a key conjunct nor
//!   [`total`]: `WHERE 10 / tag > 0 AND id = 1` scans fully (another
//!   row's `tag = 0` must still raise), `WHERE id = 1 AND 10 / tag > 0`
//!   seeks.
//! * **Comparisons go through `f64`** on both scan bodies
//!   ([`crate::expr::compare`]), so `id = 9007199254740993` matches keys
//!   2⁵³ and 2⁵³+1. Only a constant with `|c| < 2⁵³` is a key bound: below
//!   that the one key whose `f64` image equals `c` is `c` and `k as f64`
//!   is monotone, so each comparison selects exactly an integer interval.

use crate::database::clustered_key_column;
use crate::expr::{lookup_var, negate, BinOp, Expr};
use crate::value::Value;
use sqlarray_storage::{ColType, Schema};
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// How a statement's table scan found its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// One clustered key: a root-to-leaf descent and at most one row.
    Seek,
    /// A key interval: the leaves it covers, clipped at both ends.
    Range,
    /// Every leaf — no usable predicate on the clustered key (or a
    /// FROM-less statement, which scans nothing).
    Full,
}

type Vars = HashMap<String, Value>;

/// The inclusive clustered-key interval a WHERE clause admits.
pub(super) struct KeyRange {
    lo: i64,
    hi: i64,
}

impl KeyRange {
    /// The interval `where_clause` confines the clustered key of `schema`
    /// to, under the current variable bindings. Recomputed per execution —
    /// a walk over a handful of nodes — so a prepared `WHERE id = @row`
    /// follows its variable.
    pub(crate) fn of(schema: &Schema, where_clause: Option<&Expr>, vars: &Vars) -> KeyRange {
        let mut range = KeyRange {
            lo: i64::MIN,
            hi: i64::MAX,
        };
        if let (Some(w), Some(_)) = (where_clause, clustered_key_column(schema)) {
            range.narrow(w, schema, vars);
        }
        range
    }

    /// Intersects the bounds of `e`'s key conjuncts, in evaluation order;
    /// `false` once a conjunct is reached that later ones may not be
    /// skipped past.
    fn narrow(&mut self, e: &Expr, schema: &Schema, vars: &Vars) -> bool {
        if let Expr::Bin {
            op: BinOp::And,
            left,
            right,
        } = e
        {
            return self.narrow(left, schema, vars) && self.narrow(right, schema, vars);
        }
        // A total conjunct bounds nothing and may be skipped past.
        let open = || total(e, schema, vars).then_some((i64::MIN, i64::MAX));
        let Some((lo, hi)) = key_bounds(e, schema, vars).or_else(open) else {
            return false;
        };
        self.lo = self.lo.max(lo);
        self.hi = self.hi.min(hi);
        true
    }

    /// The interval, as storage takes it (`lo > hi`: no key at all).
    pub(crate) fn keys(&self) -> RangeInclusive<i64> {
        self.lo..=self.hi
    }

    /// Which access path the interval amounts to.
    pub(crate) fn access(&self) -> Access {
        match (self.lo, self.hi) {
            (i64::MIN, i64::MAX) => Access::Full,
            (lo, hi) if lo == hi => Access::Seek,
            _ => Access::Range,
        }
    }
}

/// The value of an integer constant: a literal, a bound variable, or
/// either negated — exactly as the evaluator would compute it.
fn const_int(e: &Expr, vars: &Vars) -> Option<i64> {
    fn value(e: &Expr, vars: &Vars) -> Option<Value> {
        match e {
            Expr::Lit(v) => Some(v.clone()),
            Expr::Var(name) => lookup_var(vars, name).cloned(),
            Expr::Neg(inner) => negate(value(inner, vars)?).ok(),
            _ => None,
        }
        .filter(|v| matches!(v, Value::I64(_) | Value::I32(_)))
    }
    value(e, vars)?.as_i64().ok()
}

/// The key interval of a key conjunct: `col ⋈ c` or `c ⋈ col` with `col`
/// the clustered key column, `⋈` one of `= < <= > >=` and `|c| < 2⁵³`.
fn key_bounds(e: &Expr, schema: &Schema, vars: &Vars) -> Option<(i64, i64)> {
    use BinOp::{Eq, Ge, Gt, Le, Lt};
    let Expr::Bin { op, left, right } = e else {
        return None;
    };
    let is_key = |e: &Expr| matches!(e, Expr::Col(name) if schema.col_index(name) == Some(0));
    let (key_on_left, c) = match (is_key(left), is_key(right)) {
        (true, false) => (true, const_int(right, vars)?),
        (false, true) => (false, const_int(left, vars)?),
        _ => return None,
    };
    if c.unsigned_abs() >= 1 << 53 {
        return None;
    }
    // `|c| < 2⁵³`, so `c ± 1` cannot overflow.
    match (op, key_on_left) {
        (Eq, _) => Some((c, c)),
        (Lt, true) | (Gt, false) => Some((i64::MIN, c - 1)),
        (Le, true) | (Ge, false) => Some((i64::MIN, c)),
        (Gt, true) | (Lt, false) => Some((c + 1, i64::MAX)),
        (Ge, true) | (Le, false) => Some((c, i64::MAX)),
        _ => None,
    }
}

/// True when `e` evaluates on every row of `schema` without raising,
/// calling a function or reading a page: a [`total_int`] expression, or
/// comparisons, `AND`, `OR` and `NOT` over total ones (they read numbers
/// and truth values alike, and integers never compare as NaN).
fn total(e: &Expr, schema: &Schema, vars: &Vars) -> bool {
    use BinOp::{Add, Div, Mod, Mul, Sub};
    match e {
        Expr::Not(inner) => total(inner, schema, vars),
        Expr::Bin { op, left, right } if !matches!(op, Add | Sub | Mul | Div | Mod) => {
            total(left, schema, vars) && total(right, schema, vars)
        }
        _ => total_int(e, schema, vars),
    }
}

/// The integer-valued total expressions: integer columns and constants
/// under wrapping `+ - *` and unary minus, and `/` and `%` by a non-zero
/// constant — integer arithmetic wraps, so nothing else can raise. (A
/// truth value is not one: `-(a = b)` raises, `(a = b) / (c = d)` is
/// float arithmetic and can yield NaN.)
fn total_int(e: &Expr, schema: &Schema, vars: &Vars) -> bool {
    use BinOp::{Add, Div, Mod, Mul, Sub};
    let int = |e: &Expr| total_int(e, schema, vars);
    match e {
        Expr::Lit(_) | Expr::Var(_) => const_int(e, vars).is_some(),
        Expr::Col(name) => schema
            .col_index(name)
            .is_some_and(|i| matches!(schema.columns[i].ctype, ColType::I64 | ColType::I32)),
        Expr::Neg(inner) => int(inner),
        Expr::Bin { op, left, right } => match op {
            Add | Sub | Mul => int(left) && int(right),
            Div | Mod => int(left) && const_int(right, vars).is_some_and(|c| c != 0),
            _ => false,
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsql::parse_expr;

    fn schema() -> Schema {
        Schema::new(&[
            ("id", ColType::I64),
            ("tag", ColType::I32),
            ("x", ColType::F64),
            ("v", ColType::Blob),
        ])
    }

    fn of(where_clause: &str, vars: &[(&str, Value)]) -> (RangeInclusive<i64>, Access) {
        let vars: Vars = vars
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        let e = parse_expr(where_clause).unwrap();
        let r = KeyRange::of(&schema(), Some(&e), &vars);
        (r.keys(), r.access())
    }

    const FULL: (RangeInclusive<i64>, Access) = (i64::MIN..=i64::MAX, Access::Full);

    #[test]
    fn every_comparison_in_either_operand_order() {
        assert_eq!(of("id = 7", &[]), (7..=7, Access::Seek));
        assert_eq!(of("7 = ID", &[]), (7..=7, Access::Seek));
        assert_eq!(of("id < 7", &[]), (i64::MIN..=6, Access::Range));
        assert_eq!(of("7 > id", &[]), (i64::MIN..=6, Access::Range));
        assert_eq!(of("id <= 7", &[]), (i64::MIN..=7, Access::Range));
        assert_eq!(of("7 >= id", &[]), (i64::MIN..=7, Access::Range));
        assert_eq!(of("id > 7", &[]), (8..=i64::MAX, Access::Range));
        assert_eq!(of("7 < id", &[]), (8..=i64::MAX, Access::Range));
        assert_eq!(of("id >= 7", &[]), (7..=i64::MAX, Access::Range));
        assert_eq!(of("7 <= id", &[]), (7..=i64::MAX, Access::Range));
        assert_eq!(of("id <> 7", &[]), FULL);
        assert_eq!(of("tag = 7", &[]), FULL);
        assert_eq!(of("id = tag", &[]), FULL);
    }

    #[test]
    fn constants_are_literals_negated_literals_and_bound_variables() {
        assert_eq!(of("id = -3", &[]), (-3..=-3, Access::Seek));
        assert_eq!(of("id = - -3", &[]), (3..=3, Access::Seek));
        assert_eq!(
            of("id = @k", &[("k", Value::I64(9))]),
            (9..=9, Access::Seek)
        );
        assert_eq!(
            of("id = -@K", &[("k", Value::I32(9))]),
            (-9..=-9, Access::Seek)
        );
        // An unbound variable keeps its per-row `Unknown` error (and its
        // silence over an empty table); other types keep their answer.
        assert_eq!(of("id = @k", &[]), FULL);
        assert_eq!(of("id = @k", &[("k", Value::F64(9.0))]), FULL);
        assert_eq!(of("id = @k", &[("k", Value::Bytes(vec![9]))]), FULL);
        assert_eq!(of("id = 1.5", &[]), FULL);
        assert_eq!(of("id = '1'", &[]), FULL);
        assert_eq!(of("id = 2 + 1", &[]), FULL);
    }

    #[test]
    fn conjuncts_intersect_and_may_come_out_empty() {
        assert_eq!(of("id >= 10 AND id < 20", &[]), (10..=19, Access::Range));
        assert_eq!(
            of("id >= 10 AND (id < 20 AND id > 12)", &[]),
            (13..=19, Access::Range)
        );
        assert_eq!(of("id >= 10 AND id <= 10", &[]), (10..=10, Access::Seek));
        let (keys, access) = of("id > 20 AND id < 10", &[]);
        assert!(keys.is_empty());
        assert_eq!(access, Access::Range);
        // OR is not flattened: no interval sets.
        assert_eq!(of("id = 1 OR id = 2", &[]), FULL);
    }

    #[test]
    fn a_key_conjunct_narrows_only_past_total_conjuncts() {
        let dml_mix = "id % 2 = 1 AND id >= 10 AND id < 20";
        assert_eq!(of(dml_mix, &[]), (10..=19, Access::Range));
        assert_eq!(
            of("NOT (tag * -id > 3 OR tag) AND id = 5", &[]),
            (5..=5, Access::Seek)
        );
        assert_eq!(
            of("tag / @d > 0 AND id = 5", &[("d", Value::I64(2))]),
            (5..=5, Access::Seek)
        );
        // May raise: division by a column, by zero, by an unbound variable.
        assert_eq!(of("10 / tag > 0 AND id = 5", &[]), FULL);
        assert_eq!(of("tag % 0 = 0 AND id = 5", &[]), FULL);
        assert_eq!(of("tag / @d > 0 AND id = 5", &[]), FULL);
        // May call, read a page, or leave integer arithmetic (NaN, type
        // errors): functions, blob and float columns, unknown columns,
        // booleans used as numbers.
        assert_eq!(of("dbo.F(tag) = 1 AND id = 5", &[]), FULL);
        assert_eq!(of("v = 0x00 AND id = 5", &[]), FULL);
        assert_eq!(of("x > 0 AND id = 5", &[]), FULL);
        assert_eq!(of("nope = 1 AND id = 5", &[]), FULL);
        assert_eq!(of("-(tag = 1) = 0 AND id = 5", &[]), FULL);
        assert_eq!(of("(tag = 1) + 1 = 2 AND id = 5", &[]), FULL);
        // What was narrowed before the walk stopped stays narrowed.
        assert_eq!(
            of("id >= 3 AND x > 0 AND id < 9", &[]),
            (3..=i64::MAX, Access::Range)
        );
        assert_eq!(of("id = 5 AND 10 / tag > 0", &[]), (5..=5, Access::Seek));
    }

    #[test]
    fn only_constants_the_f64_comparison_resolves_exactly_are_bounds() {
        let exact = (1i64 << 53) - 1;
        assert_eq!(
            of("id = 9007199254740991", &[]),
            (exact..=exact, Access::Seek)
        );
        assert_eq!(
            of("id >= -9007199254740991", &[]),
            (-exact..=i64::MAX, Access::Range)
        );
        assert_eq!(of("id = 9007199254740992", &[]), FULL);
        assert_eq!(of("id = 9007199254740993", &[]), FULL);
        assert_eq!(of("id > -9007199254740992", &[]), FULL);
        for v in [i64::MIN, i64::MAX] {
            for cmp in ["=", "<", "<=", ">", ">="] {
                assert_eq!(of(&format!("id {cmp} @k"), &[("k", Value::I64(v))]), FULL);
                assert_eq!(of(&format!("id {cmp} -@k"), &[("k", Value::I64(v))]), FULL);
            }
        }
        // Too large to bound, but total: the walk goes on past it.
        assert_eq!(
            of("id < 9007199254740993 AND id = 4", &[]),
            (4..=4, Access::Seek)
        );
    }

    #[test]
    fn a_table_without_an_integer_first_column_is_never_keyed() {
        let schema = Schema::new(&[("x", ColType::F64), ("id", ColType::I64)]);
        let e = parse_expr("x = 1 AND id = 1").unwrap();
        let r = KeyRange::of(&schema, Some(&e), &Vars::new());
        assert_eq!((r.keys(), r.access()), FULL);
        let r = KeyRange::of(&self::schema(), None, &Vars::new());
        assert_eq!((r.keys(), r.access()), FULL);
    }
}
