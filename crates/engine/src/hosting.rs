//! The CLR hosting-cost model.
//!
//! Table 1's central result is that per-row UDF calls dominate: "the cost
//! of calling a CLR function for every row of the data table [...] yields a
//! cost of about 2 µs per CLR function call. A detailed performance
//! analysis revealed that at least 38 % of the CPU time went for the UDF
//! calls even when the UDF was empty." (§7.1)
//!
//! In-process Rust calls cost nanoseconds, so the managed/native
//! transition (argument marshaling, security context, GC-safe frame setup)
//! is an *input* of the reproduction, exactly like the testbed's disk: the
//! engine **counts** every managed-UDF invocation and charges it
//! `overhead_ns` of modelled time, the way [`sqlarray_storage::DiskProfile`]
//! charges pages. Nothing is executed for the charge, so a statement's
//! measured `wall_seconds`/`cpu_seconds` contain no simulated time and
//! `udf_overhead_ns` is bit-reproducible. The overhead is a first-class
//! parameter — zero is what a native array type would have paid, the
//! ablation the paper wished SQL Server had offered.

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

    /// Charges one managed call: bumps the call count and the modelled
    /// nanoseconds. Native calls must not route through here.
    #[inline]
    pub fn charge_call(&mut self) {
        self.calls += 1;
        self.charged_ns += self.overhead_ns;
    }

    /// A fresh model with this model's overhead but zeroed counters — one
    /// per parallel scan worker, so each thread counts independently
    /// without sharing mutable state.
    pub fn fork(&self) -> HostingModel {
        HostingModel::new(self.overhead_ns)
    }

    /// Folds a worker fork's counters back into this model (the combine
    /// half of [`fork`](Self::fork)).
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
    fn cost_class_is_plain_data() {
        assert_ne!(CostClass::Native, CostClass::Managed);
    }
}
