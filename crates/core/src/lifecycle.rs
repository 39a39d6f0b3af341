//! Per-statement lifecycle control: cancellation, deadlines, memory
//! budgets.
//!
//! A [`QueryCtx`] is minted once per statement by the session layer and
//! stamped down through the executor and the storage scan context, so a
//! single cheap [`QueryCtx::check`] call at every batch flush, leaf-walk
//! step, row-interpreter iteration and worker start can abort a runaway
//! statement within one batch worth of work. Three independent triggers
//! share the one check:
//!
//! * **cancellation** — a [`CancelHandle`] (an `Arc<AtomicBool>` shared
//!   with the owning session) flipped from any thread;
//! * **deadline** — a wall-clock instant computed from the statement
//!   timeout at mint time;
//! * **memory budget** — a cumulative allocation accountant charged by
//!   [`QueryCtx::charge`] for batch lane growth, aggregation state and
//!   LOB materialization.
//!
//! The context is also a *fault-injection* site for the query
//! kill-matrix tests: a [`Fault::Cancel`] plan in [`QueryLimits::fault`]
//! makes the `at`-th `check` anywhere in the pipeline, and every later
//! one, report [`Interrupt::Cancelled`]. A count-only plan
//! ([`FaultPlan::count`]) enumerates a statement's cancellation points in
//! a dry run, the way the WAL crash matrix enumerates its cut points — the
//! same [`crate::fault`] plan, at another site.
//!
//! The happy-path cost is one `Option` test and one relaxed atomic load
//! per check (plus an `Instant::now()` only when a deadline is armed), so
//! checks can sit in per-row loops without showing up in profiles.

use crate::fault::{Fault, FaultPlan};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a statement was interrupted. Carried inside typed storage/engine
/// errors; never stringly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The session's cancel handle was flipped.
    Cancelled,
    /// The statement ran past its deadline.
    Timeout {
        /// The statement timeout that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// The statement's cumulative memory charges exceeded its budget.
    MemExceeded {
        /// Bytes charged so far (including the charge that tripped).
        used: u64,
        /// The configured budget in bytes.
        limit: u64,
    },
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "statement cancelled"),
            Interrupt::Timeout { timeout_ms } => {
                write!(f, "statement timeout ({timeout_ms} ms) exceeded")
            }
            Interrupt::MemExceeded { used, limit } => write!(
                f,
                "query memory budget exceeded: {used} bytes charged, limit {limit}"
            ),
        }
    }
}

/// A cloneable cancellation token for one session. Flipping it aborts the
/// statement currently running (or the next one to start) on that
/// session; the session clears the flag once a statement has consumed it.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// A fresh, unset handle.
    pub fn new() -> CancelHandle {
        CancelHandle::default()
    }

    /// Requests cancellation. Sticky until a statement consumes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation is currently requested.
    fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Clears the request (the session does this after a statement
    /// reports [`Interrupt::Cancelled`], so the *next* statement runs).
    pub fn clear(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

/// Mint-time limits for a [`QueryCtx`].
#[derive(Debug, Default)]
pub struct QueryLimits {
    /// Statement timeout; `None` = no deadline.
    pub timeout_ms: Option<u64>,
    /// Memory budget in bytes; `0` = unlimited.
    pub mem_limit_bytes: u64,
    /// A [`Fault::Cancel`] plan for kill-matrix tests, counted over every
    /// `check` of the statement on every thread; `None` = no fault.
    pub fault: Option<FaultPlan>,
}

#[derive(Debug)]
struct QueryInner {
    cancel: CancelHandle,
    deadline: Option<Instant>,
    timeout_ms: u64,
    mem_limit: u64,
    mem_used: AtomicU64,
    fault: Option<FaultPlan>,
}

/// The per-statement lifecycle context. Cheap to clone (one `Arc`); every
/// layer of a statement's pipeline holds the same underlying state.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    inner: Arc<QueryInner>,
}

impl QueryCtx {
    /// A context with no cancellation source, no deadline and no budget —
    /// `check` always passes. Used by internal scans (catalog walks,
    /// recovery) and as the default for [`crate::batch`]-free serial
    /// paths.
    pub fn unbounded() -> QueryCtx {
        QueryCtx::with_limits(CancelHandle::new(), QueryLimits::default())
    }

    /// A context wired to `cancel` with `limits` applied. The deadline is
    /// computed *now*, so mint the context when the statement starts.
    pub fn with_limits(cancel: CancelHandle, limits: QueryLimits) -> QueryCtx {
        QueryCtx {
            inner: Arc::new(QueryInner {
                cancel,
                deadline: limits
                    .timeout_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms)),
                timeout_ms: limits.timeout_ms.unwrap_or(0),
                mem_limit: limits.mem_limit_bytes,
                mem_used: AtomicU64::new(0),
                fault: limits.fault,
            }),
        }
    }

    /// The one cancellation poll. Called at every batch flush, leaf-walk
    /// step, row-interpreter iteration and worker start. Relaxed-atomic
    /// cheap when nothing is armed.
    pub fn check(&self) -> Result<(), Interrupt> {
        let i = &*self.inner;
        if let Some(plan) = &i.fault {
            if plan.fault == Fault::Cancel && plan.tick().is_ge() {
                return Err(Interrupt::Cancelled);
            }
        }
        if i.cancel.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if let Some(d) = i.deadline {
            if Instant::now() >= d {
                return Err(Interrupt::Timeout {
                    timeout_ms: i.timeout_ms,
                });
            }
        }
        Ok(())
    }

    /// Charges `bytes` against the memory budget (cumulative, monotonic:
    /// the accountant tracks total allocation pressure, not live bytes,
    /// so charging is a single `fetch_add` with no free-side bookkeeping).
    pub fn charge(&self, bytes: u64) -> Result<(), Interrupt> {
        let used = self.inner.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if self.inner.mem_limit != 0 && used > self.inner.mem_limit {
            return Err(Interrupt::MemExceeded {
                used,
                limit: self.inner.mem_limit,
            });
        }
        Ok(())
    }

    /// Bytes charged so far.
    pub fn mem_used(&self) -> u64 {
        self.inner.mem_used.load(Ordering::Relaxed)
    }

    /// The statement's fault plan, if one was armed: the kill matrix reads
    /// a count-only plan's [`seen`](FaultPlan::seen) off a dry run to
    /// enumerate trip points.
    pub fn fault(&self) -> Option<&FaultPlan> {
        self.inner.fault.as_ref()
    }

    /// The armed deadline, if any (the scheduler bounds its admission
    /// wait against it).
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for QueryCtx {
    fn default() -> Self {
        QueryCtx::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_always_passes() {
        let q = QueryCtx::unbounded();
        for _ in 0..1000 {
            assert_eq!(q.check(), Ok(()));
        }
        assert!(q.fault().is_none(), "unarmed checks are not counted");
    }

    #[test]
    fn cancel_handle_trips_check() {
        let h = CancelHandle::new();
        let q = QueryCtx::with_limits(h.clone(), QueryLimits::default());
        assert_eq!(q.check(), Ok(()));
        h.cancel();
        assert_eq!(q.check(), Err(Interrupt::Cancelled));
        // Sticky until cleared.
        assert_eq!(q.check(), Err(Interrupt::Cancelled));
        h.clear();
        assert_eq!(q.check(), Ok(()));
    }

    #[test]
    fn deadline_trips_with_timeout_payload() {
        let q = QueryCtx::with_limits(
            CancelHandle::new(),
            QueryLimits {
                timeout_ms: Some(0),
                ..QueryLimits::default()
            },
        );
        assert_eq!(q.check(), Err(Interrupt::Timeout { timeout_ms: 0 }));
    }

    #[test]
    fn budget_charges_cumulatively() {
        let q = QueryCtx::with_limits(
            CancelHandle::new(),
            QueryLimits {
                mem_limit_bytes: 100,
                ..QueryLimits::default()
            },
        );
        assert_eq!(q.charge(60), Ok(()));
        assert_eq!(q.charge(40), Ok(()));
        assert_eq!(
            q.charge(1),
            Err(Interrupt::MemExceeded {
                used: 101,
                limit: 100
            })
        );
        assert_eq!(q.mem_used(), 101);
    }

    /// A context whose cancel plan fires at its `at`-th check.
    fn cancel_at(at: u64) -> QueryCtx {
        QueryCtx::with_limits(
            CancelHandle::new(),
            QueryLimits {
                fault: Some(FaultPlan::new(Fault::Cancel, at)),
                ..QueryLimits::default()
            },
        )
    }

    #[test]
    fn trip_point_fires_on_exact_check() {
        let q = cancel_at(3);
        assert_eq!(q.check(), Ok(()));
        assert_eq!(q.check(), Ok(()));
        assert_eq!(q.check(), Err(Interrupt::Cancelled));
        assert_eq!(q.check(), Err(Interrupt::Cancelled), "and every later one");
        assert_eq!(q.fault().map(FaultPlan::seen), Some(4));
    }

    #[test]
    fn count_only_mode_never_trips() {
        let q = cancel_at(u64::MAX);
        for _ in 0..100 {
            assert_eq!(q.check(), Ok(()));
        }
        assert_eq!(q.fault().map(FaultPlan::seen), Some(100));
    }

    #[test]
    fn a_plan_for_another_site_neither_fires_nor_counts() {
        let q = QueryCtx::with_limits(
            CancelHandle::new(),
            QueryLimits {
                fault: Some(FaultPlan::new(Fault::ReadFault { times: 1 }, 1)),
                ..QueryLimits::default()
            },
        );
        assert_eq!(q.check(), Ok(()));
        assert_eq!(q.fault().map(FaultPlan::seen), Some(0));
    }
}
