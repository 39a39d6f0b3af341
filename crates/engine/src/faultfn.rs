//! Deterministic fault-injection scalar functions.
//!
//! Test instruments, not library: a standard engine
//! ([`crate::Engine::new`]) does not serve them, so no SQL text can panic
//! a worker or pin a core. The robustness suites register them on top of
//! [`crate::Engine::standard_registries`] and build their engine with
//! [`crate::Engine::with_registries`], which lets them drive misbehaving
//! workloads through the ordinary SQL surface instead of private hooks:
//!
//! * `dbo.PanicIf(x, trigger)` — returns `x`, but **panics** when
//!   `x = trigger`. This is the reproducible "buggy UDF" the worker-panic
//!   containment tests scan over: the row that trips is a property of the
//!   data, so the panic fires at the same logical point at any DOP.
//! * `dbo.SpinUs(x, us)` — returns `x` after spinning for `us`
//!   microseconds of wall clock. This is how timeout and admission tests
//!   make a statement reliably *slow* without sleeping the whole test
//!   (the spin is per-row, so cancellation checks interleave with it).
//!
//! Both are registered as native-cost functions: they model engine-side
//! fault conditions, not CLR user code, so they must not perturb the
//! paper's hosting-overhead accounting.

use crate::udf::UdfRegistry;
use crate::value::Value;
use std::time::{Duration, Instant};

/// Registers the fault-injection functions into `reg`.
pub fn register_faults(reg: &mut UdfRegistry) {
    reg.register_native("dbo.PanicIf", Some(2..=2), |args| {
        let x = args[0].as_i64()?;
        let trigger = args[1].as_i64()?;
        if x == trigger {
            panic!("dbo.PanicIf: injected panic on value {x}");
        }
        Ok(Value::I64(x))
    });
    reg.register_native("dbo.SpinUs", Some(2..=2), |args| {
        let x = args[0].as_i64()?;
        let us = args[1].as_i64()?.max(0) as u64;
        let until = Instant::now() + Duration::from_micros(us);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        Ok(Value::I64(x))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Arg;

    #[test]
    fn panic_if_passes_through_until_triggered() {
        let mut reg = UdfRegistry::new();
        register_faults(&mut reg);
        let mut h = crate::hosting::HostingModel::free();
        let v = reg
            .call("dbo.PanicIf", &[Arg::I64(3), Arg::I64(9)], &mut h)
            .unwrap();
        assert_eq!(v, Value::I64(3));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = reg.call("dbo.PanicIf", &[Arg::I64(9), Arg::I64(9)], &mut h);
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn spin_us_returns_input_and_takes_time() {
        let mut reg = UdfRegistry::new();
        register_faults(&mut reg);
        let mut h = crate::hosting::HostingModel::free();
        let t0 = Instant::now();
        let v = reg
            .call("dbo.SpinUs", &[Arg::I64(7), Arg::I64(500)], &mut h)
            .unwrap();
        assert_eq!(v, Value::I64(7));
        assert!(t0.elapsed() >= Duration::from_micros(500));
    }
}
