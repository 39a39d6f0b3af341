//! Scalar UDF registry.
//!
//! The original library exposes its whole surface as schema-qualified
//! scalar functions (`FloatArray.Item_1`, `IntArrayMax.Subarray`, ...,
//! §5.1). Because T-SQL lacks variadic UDFs, the numbered suffix encodes
//! the arity; this registry accepts variadic implementations and resolves
//! `Name_N` to `Name` automatically, so the paper's exact spellings work.

use crate::hosting::{CostClass, HostingModel};
use crate::value::{Arg, EngineError, Result, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Strips the T-SQL numbered-arity suffix (`Item_3` → `Item`), the one
/// definition of the convention — shared by [`UdfRegistry::resolve`] and
/// the LOB pushdown rewrite so both always agree on which spellings name
/// the same function. Returns the input unchanged when no suffix exists.
pub(crate) fn strip_numbered_suffix(name: &str) -> &str {
    if let Some(pos) = name.rfind('_') {
        let digits = &name[pos + 1..];
        if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()) {
            return &name[..pos];
        }
    }
    name
}

/// The implementation of a scalar function: its arguments borrowed
/// ([`Arg`]), its result owned.
///
/// A body reads each argument where the caller holds it — an array as
/// the bytes of the batch cell, row image, constant or variable it came
/// from — and copies only what it keeps (`Arg::to_value`,
/// `ArrayView::into_array`). The batch path's scalar arguments arrive by
/// value, so nothing is allocated to call a function per row.
pub(crate) type UdfFn = Box<dyn Fn(&[Arg<'_>]) -> Result<Value> + Send + Sync>;

/// A registered scalar function.
pub struct Udf {
    /// Implementation.
    pub func: UdfFn,
    /// Managed functions pay the hosting overhead per call; native ones
    /// do not.
    pub cost: CostClass,
    /// Allowed argument counts (`None` = variadic).
    pub arity: Option<std::ops::RangeInclusive<usize>>,
}

impl Udf {
    /// The arity check of one call site spelled `name` with `argc`
    /// arguments — per call on the row path, once per statement when the
    /// batch planner binds the callee.
    pub(crate) fn check_arity(&self, name: &str, argc: usize) -> Result<()> {
        match &self.arity {
            Some(arity) if !arity.contains(&argc) => Err(EngineError::Arity {
                func: name.to_string(),
                got: argc,
                want: format!("{}..={}", arity.start(), arity.end()),
            }),
            _ => Ok(()),
        }
    }

    /// Runs the body over borrowed arguments, charging the hosting model
    /// for managed calls.
    #[inline]
    pub(crate) fn invoke(&self, args: &[Arg<'_>], hosting: &mut HostingModel) -> Result<Value> {
        if self.cost == CostClass::Managed {
            hosting.charge_call();
        }
        (self.func)(args)
    }
}

/// Bytes of a function name [`UdfRegistry::resolve`] lowercases without
/// a heap allocation; longer names take one.
const NAME_BUF: usize = 64;

/// Name → function registry, case-insensitive. Entries are shared
/// (`Arc`) so a compiled plan can hold its callees past the lookup.
#[derive(Default)]
pub struct UdfRegistry {
    funcs: HashMap<String, Arc<Udf>>,
}

impl UdfRegistry {
    /// An empty registry.
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Registers a managed (CLR-cost) function.
    pub fn register(
        &mut self,
        name: &str,
        arity: Option<std::ops::RangeInclusive<usize>>,
        func: impl Fn(&[Arg<'_>]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.insert(name, arity, CostClass::Managed, Box::new(func));
    }

    /// Registers a native (no hosting charge) function.
    pub(crate) fn register_native(
        &mut self,
        name: &str,
        arity: Option<std::ops::RangeInclusive<usize>>,
        func: impl Fn(&[Arg<'_>]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.insert(name, arity, CostClass::Native, Box::new(func));
    }

    fn insert(
        &mut self,
        name: &str,
        arity: Option<std::ops::RangeInclusive<usize>>,
        cost: CostClass,
        func: UdfFn,
    ) {
        self.funcs.insert(
            name.to_ascii_lowercase(),
            Arc::new(Udf { func, cost, arity }),
        );
    }

    /// Looks a function up, resolving `Name_N` numbered variants to their
    /// variadic base registration. A row-path call resolves once per row,
    /// so a name of up to `NAME_BUF` (64) bytes is lowercased on the stack.
    pub fn resolve(&self, name: &str) -> Option<&Arc<Udf>> {
        let mut buf = [0u8; NAME_BUF];
        let owned;
        let lower = match buf.get_mut(..name.len()) {
            Some(bytes) => {
                bytes.copy_from_slice(name.as_bytes());
                bytes.make_ascii_lowercase();
                // Lowercasing ASCII bytes keeps the name UTF-8.
                std::str::from_utf8(bytes).ok()?
            }
            None => {
                owned = name.to_ascii_lowercase();
                owned.as_str()
            }
        };
        let numbered = || self.funcs.get(strip_numbered_suffix(lower));
        self.funcs.get(lower).or_else(numbered)
    }

    /// Invokes a function by name over borrowed arguments, charging the
    /// hosting model for managed calls.
    pub fn call(&self, name: &str, args: &[Arg<'_>], hosting: &mut HostingModel) -> Result<Value> {
        let udf = self
            .resolve(name)
            .ok_or_else(|| EngineError::Unknown(format!("function `{name}`")))?;
        udf.check_arity(name, args.len())?;
        udf.invoke(args, hosting)
    }

    /// All registered names, sorted (for documentation/tests).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.funcs.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_fn(args: &[Arg<'_>]) -> Result<Value> {
        Ok(Value::F64(args[0].as_f64()? + args[1].as_f64()?))
    }

    #[test]
    fn register_and_call() {
        let mut reg = UdfRegistry::new();
        reg.register("dbo.Add", Some(2..=2), add_fn);
        let mut h = HostingModel::free();
        let v = reg
            .call("dbo.add", &[Arg::F64(1.0), Arg::F64(2.0)], &mut h)
            .unwrap();
        assert_eq!(v, Value::F64(3.0));
        assert_eq!(h.calls(), 1);
    }

    #[test]
    fn numbered_suffix_resolves() {
        let mut reg = UdfRegistry::new();
        reg.register("FloatArray.Vector", None, |args| {
            Ok(Value::I64(args.len() as i64))
        });
        let mut h = HostingModel::free();
        let v = reg
            .call(
                "FloatArray.Vector_3",
                &[Arg::F64(1.0), Arg::F64(2.0), Arg::F64(3.0)],
                &mut h,
            )
            .unwrap();
        assert_eq!(v, Value::I64(3));
        // But a name whose suffix is not numeric does not resolve.
        assert!(reg.resolve("FloatArray.Vector_x").is_none());
    }

    #[test]
    fn arity_enforced() {
        let mut reg = UdfRegistry::new();
        reg.register("f", Some(2..=2), add_fn);
        let mut h = HostingModel::free();
        assert!(matches!(
            reg.call("f", &[Arg::F64(1.0)], &mut h),
            Err(EngineError::Arity { .. })
        ));
    }

    #[test]
    fn unknown_function() {
        let reg = UdfRegistry::new();
        let mut h = HostingModel::free();
        assert!(matches!(
            reg.call("nope", &[], &mut h),
            Err(EngineError::Unknown(_))
        ));
    }

    #[test]
    fn native_functions_skip_hosting_charge() {
        let mut reg = UdfRegistry::new();
        reg.register_native("native.id", Some(1..=1), |args| Ok(args[0].to_value()));
        reg.register("managed.id", Some(1..=1), |args| Ok(args[0].to_value()));
        let mut h = HostingModel::new(100);
        reg.call("native.id", &[Arg::I64(1)], &mut h).unwrap();
        assert_eq!(h.calls(), 0);
        reg.call("managed.id", &[Arg::I64(1)], &mut h).unwrap();
        assert_eq!(h.calls(), 1);
        assert_eq!(h.charged_ns(), 100);
    }
}
