//! The CLR hosting-cost model.
//!
//! Table 1's central result is that per-row UDF calls dominate: "the cost
//! of calling a CLR function for every row of the data table [...] yields a
//! cost of about 2 µs per CLR function call. A detailed performance
//! analysis revealed that at least 38 % of the CPU time went for the UDF
//! calls even when the UDF was empty." (§7.1)
//!
//! In-process Rust calls cost nanoseconds, so to reproduce the *shape* of
//! Table 1 the engine charges every managed-UDF invocation a calibrated
//! busy-wait standing in for the managed/native transition (argument
//! marshaling, security context, GC-safe frame setup). The overhead is a
//! first-class, configurable parameter — set it to zero to see what a
//! native array type would have done, which is exactly the ablation the
//! paper wished SQL Server had offered.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Which cost class a registered function belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Built-in engine function (no hosting charge) — e.g. `SUM` over a
    /// native column.
    Native,
    /// CLR/managed UDF: each call pays the hosting overhead.
    Managed,
}

/// The per-call overhead model plus its invocation counters.
#[derive(Debug)]
pub struct HostingModel {
    /// Charged per managed call, in nanoseconds.
    pub overhead_ns: u64,
    calls: u64,
    charged_ns: u64,
}

/// The paper's measured cost: ~2 µs per CLR call.
pub const PAPER_CLR_CALL_NS: u64 = 2_000;

/// Busy-wait iterations per nanosecond, measured against the host clock
/// once per process — by the first managed call that actually has to
/// spin, so free models never pay for it.
static ITERS_PER_NS: OnceLock<f64> = OnceLock::new();

/// How many times the calibration loop has run in this process.
static CALIBRATIONS: AtomicU64 = AtomicU64::new(0);

impl HostingModel {
    /// Builds a model charging `overhead_ns` per managed call.
    pub fn new(overhead_ns: u64) -> HostingModel {
        HostingModel {
            overhead_ns,
            calls: 0,
            charged_ns: 0,
        }
    }

    /// A model with the paper's 2 µs CLR call cost.
    pub fn paper_clr() -> HostingModel {
        HostingModel::new(PAPER_CLR_CALL_NS)
    }

    /// A free model (native code path / the counterfactual).
    pub fn free() -> HostingModel {
        HostingModel::new(0)
    }

    /// Runs of the busy-wait calibration so far in this process: 0 until
    /// a nonzero overhead is first charged, 1 ever after.
    pub fn calibrations() -> u64 {
        CALIBRATIONS.load(Ordering::Relaxed)
    }

    /// Measures how many spin iterations one nanosecond buys.
    fn calibrate() -> f64 {
        CALIBRATIONS.fetch_add(1, Ordering::Relaxed);
        let iters: u64 = 4_000_000;
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..iters {
            acc = black_box(acc.wrapping_add(i ^ (acc >> 3)));
        }
        black_box(acc);
        let ns = start.elapsed().as_nanos().max(1) as f64;
        (iters as f64 / ns).max(1e-3)
    }

    /// Charges one managed call: spins for `overhead_ns` and bumps the
    /// counters. Native calls must not route through here.
    #[inline]
    pub fn charge_call(&mut self) {
        self.calls += 1;
        self.charged_ns += self.overhead_ns;
        if self.overhead_ns == 0 {
            return;
        }
        let iters_per_ns = *ITERS_PER_NS.get_or_init(Self::calibrate);
        let iters = (self.overhead_ns as f64 * iters_per_ns) as u64;
        let mut acc = 0u64;
        for i in 0..iters {
            acc = black_box(acc.wrapping_add(i ^ (acc >> 3)));
        }
        black_box(acc);
    }

    /// A fresh model with this model's overhead but zeroed counters — one
    /// per parallel scan worker, so each thread spins and counts
    /// independently without sharing mutable state.
    pub fn fork(&self) -> HostingModel {
        HostingModel::new(self.overhead_ns)
    }

    /// Folds a worker fork's counters back into this model (the combine
    /// half of [`fork`](Self::fork); no spinning happens here).
    pub fn absorb(&mut self, calls: u64, charged_ns: u64) {
        self.calls += calls;
        self.charged_ns += charged_ns;
    }

    /// Managed calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Total nanoseconds charged so far.
    pub fn charged_ns(&self) -> u64 {
        self.charged_ns
    }

    /// Resets the counters.
    pub fn reset(&mut self) {
        self.calls = 0;
        self.charged_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_calls() {
        let mut m = HostingModel::new(0);
        assert_eq!(m.calls(), 0);
        m.charge_call();
        m.charge_call();
        assert_eq!(m.calls(), 2);
        assert_eq!(m.charged_ns(), 0);
        m.reset();
        assert_eq!(m.calls(), 0);
    }

    #[test]
    fn charged_ns_accumulates() {
        let mut m = HostingModel::new(500);
        for _ in 0..4 {
            m.charge_call();
        }
        assert_eq!(m.charged_ns(), 2000);
    }

    #[test]
    fn overhead_costs_real_time() {
        // 2 µs × 5000 calls ≈ 10 ms of busy-wait; the wall clock must show
        // a clear difference against the free model.
        let mut slow = HostingModel::paper_clr();
        let t0 = Instant::now();
        for _ in 0..5000 {
            slow.charge_call();
        }
        let slow_elapsed = t0.elapsed();

        let mut fast = HostingModel::free();
        let t0 = Instant::now();
        for _ in 0..5000 {
            fast.charge_call();
        }
        let fast_elapsed = t0.elapsed();

        assert!(
            slow_elapsed > fast_elapsed * 5,
            "slow {slow_elapsed:?} vs fast {fast_elapsed:?}"
        );
        // The busy-wait should be within an order of magnitude of the
        // target even when the test harness runs dozens of threads
        // (calibration is coarse under load).
        let per_call_ns = slow_elapsed.as_nanos() as f64 / 5000.0;
        assert!(
            (300.0..20_000.0).contains(&per_call_ns),
            "per-call spin {per_call_ns} ns"
        );
    }

    #[test]
    fn calibration_runs_at_most_once_per_process() {
        // Free models never spin, so they never calibrate either; every
        // spinning model — fresh, forked, or made costly after the fact —
        // shares the one measurement.
        for _ in 0..64 {
            let mut free = HostingModel::free();
            free.charge_call();
            let mut slow = HostingModel::new(50);
            slow.charge_call();
            slow.fork().charge_call();
            free.overhead_ns = 50;
            free.charge_call();
        }
        assert_eq!(HostingModel::calibrations(), 1);
    }

    #[test]
    fn cost_class_is_plain_data() {
        assert_ne!(CostClass::Native, CostClass::Managed);
    }
}
