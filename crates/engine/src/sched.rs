//! Admission control: DOP tickets from a global worker budget.
//!
//! Every statement that fans out asks the engine's [`DopScheduler`] for a
//! ticket before touching the database. The scheduler arbitrates a global
//! **worker budget** (how many scan workers the whole engine may run at
//! once) between however many queries are in flight:
//!
//! * a **lone** query is granted its full request, even past the budget —
//!   single-session behavior is exactly what it was before admission
//!   control existed (the scan is the parallel unit, and oversubscribing
//!   an idle engine is the session's choice);
//! * **concurrent** queries share the budget fairly: each is granted at
//!   most `max(1, budget / active_queries)` workers, further clamped to
//!   the workers still unclaimed — but never below 1, so read-only
//!   queries always make progress;
//! * when every budgeted worker is claimed, new arrivals **queue** on a
//!   condvar — but never unboundedly. Waits are sliced with
//!   `wait_timeout` so a queued statement keeps polling its
//!   [`QueryCtx`]: cancellation surfaces as a typed
//!   [`EngineError::Cancelled`], an expired deadline as
//!   [`EngineError::AdmissionTimeout`] (the statement never ran). And the
//!   queue itself has a depth cap: when `queue_cap` statements are
//!   already waiting, further arrivals are refused immediately with
//!   [`EngineError::Overloaded`] — graceful degradation instead of an
//!   ever-growing convoy.
//!
//! The granted width only changes *how many partitions* a scan fans out
//! over — results are bit-identical at any width, so admission decisions
//! can never change what a query returns, only when it runs and how wide.

use crate::value::EngineError;
use sqlarray_core::lifecycle::{Interrupt, QueryCtx};
use sqlarray_core::sync::{lock_unpoisoned, wait_timeout_unpoisoned};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default admission queue depth when neither `SQLARRAY_ADMISSION_QUEUE`
/// ([`crate::config`]) nor [`crate::engine::EngineConfig`] says otherwise:
/// deep enough that only pathological convoys hit it.
pub(crate) const DEFAULT_ADMISSION_QUEUE_CAP: usize = 64;

/// Wait slice for queued statements: how often a waiter re-polls its
/// cancellation token and deadline while blocked on the condvar. Grants
/// don't wait for the slice — a release notifies immediately.
const ADMISSION_POLL: Duration = Duration::from_millis(10);

/// Observable scheduler counters (snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tickets granted so far.
    pub admitted: u64,
    /// Times an acquire had to wait for a release.
    pub queued: u64,
    /// High-water mark of simultaneously granted workers. Can exceed the
    /// budget only through lone-query full grants.
    pub peak_in_flight: usize,
    /// Statements refused because the wait queue was at its depth cap.
    pub rejected_overload: u64,
    /// Statements whose deadline expired while queued (never ran).
    pub admission_timeouts: u64,
    /// Statements cancelled while queued (never ran).
    pub admission_cancelled: u64,
    /// Total time statements spent queued before a grant, in nanoseconds
    /// (timed-out/cancelled waits included).
    pub wait_nanos: u64,
}

#[derive(Debug, Default)]
struct SchedState {
    /// Workers currently granted to live tickets.
    in_flight: usize,
    /// Queries holding or waiting for a ticket.
    active: usize,
    /// Queries currently blocked in `acquire` (subset of `active`).
    waiting: usize,
    stats: SchedStats,
}

/// The admission-control scheduler. One per engine.
#[derive(Debug)]
pub struct DopScheduler {
    budget: usize,
    queue_cap: usize,
    state: Mutex<SchedState>,
    released: Condvar,
}

impl DopScheduler {
    /// A scheduler over a worker budget of `budget` and a queue-depth
    /// cap of `queue_cap` (both clamped to ≥ 1).
    pub(crate) fn with_queue_cap(budget: usize, queue_cap: usize) -> DopScheduler {
        DopScheduler {
            budget: budget.max(1),
            queue_cap: queue_cap.max(1),
            state: Mutex::new(SchedState::default()),
            released: Condvar::new(),
        }
    }

    /// The global worker budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The admission queue-depth cap.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    fn state(&self) -> MutexGuard<'_, SchedState> {
        // Counter arithmetic only inside the critical sections; the
        // repo-wide recover-on-poison policy applies trivially.
        lock_unpoisoned(&self.state)
    }

    /// Acquires a DOP ticket for a statement requesting `requested`
    /// workers (clamped to ≥ 1), polling `query` while queued. Returns
    /// a typed error — never blocks unboundedly — when:
    ///
    /// * the wait queue is already `queue_cap` deep
    ///   ([`EngineError::Overloaded`], immediate);
    /// * the statement's deadline expires while queued
    ///   ([`EngineError::AdmissionTimeout`]);
    /// * the statement is cancelled while queued
    ///   ([`EngineError::Cancelled`]).
    ///
    /// The ticket releases its grant on drop.
    pub fn acquire(
        &self,
        requested: usize,
        query: &QueryCtx,
    ) -> Result<DopTicket<'_>, EngineError> {
        let requested = requested.max(1);
        let mut st = self.state();
        st.active += 1;
        let mut wait_started: Option<Instant> = None;
        let granted = loop {
            if st.in_flight == 0 {
                // Nothing else is running: a lone query keeps its full
                // request (pre-admission-control behavior); with waiters
                // racing in, the first grant still respects fair share.
                break if st.active == 1 {
                    requested
                } else {
                    requested.min((self.budget / st.active).max(1))
                };
            }
            let free = self.budget.saturating_sub(st.in_flight);
            if free > 0 {
                let fair = (self.budget / st.active).max(1);
                break requested.min(fair).min(free);
            }
            if wait_started.is_none() {
                // About to queue for the first time: refuse instead if
                // the queue is already at its cap.
                if st.waiting >= self.queue_cap {
                    st.stats.rejected_overload += 1;
                    let waiting = st.waiting;
                    st.active -= 1;
                    return Err(EngineError::Overloaded {
                        waiting,
                        cap: self.queue_cap,
                    });
                }
                st.waiting += 1;
                st.stats.queued += 1;
                wait_started = Some(Instant::now());
            }
            // Bounded wait: poll the lifecycle context between slices so
            // a queued statement honors cancellation and its deadline.
            if let Err(i) = query.check() {
                st.waiting -= 1;
                st.active -= 1;
                st.stats.wait_nanos += elapsed_nanos(wait_started);
                return Err(match i {
                    Interrupt::Timeout { timeout_ms } => {
                        st.stats.admission_timeouts += 1;
                        EngineError::AdmissionTimeout { timeout_ms }
                    }
                    other => {
                        st.stats.admission_cancelled += 1;
                        other.into()
                    }
                });
            }
            let slice = match query.deadline() {
                Some(d) => d
                    .saturating_duration_since(Instant::now())
                    .min(ADMISSION_POLL),
                None => ADMISSION_POLL,
            };
            (st, _) = wait_timeout_unpoisoned(&self.released, st, slice);
        };
        if wait_started.is_some() {
            st.waiting -= 1;
            st.stats.wait_nanos += elapsed_nanos(wait_started);
        }
        st.in_flight += granted;
        st.stats.admitted += 1;
        st.stats.peak_in_flight = st.stats.peak_in_flight.max(st.in_flight);
        Ok(DopTicket {
            sched: self,
            granted,
        })
    }

    /// Current counters.
    pub fn stats(&self) -> SchedStats {
        self.state().stats
    }

    /// Workers currently granted to live tickets — 0 on an idle engine,
    /// which is what the lifecycle tests assert when proving aborted
    /// statements leak no tickets.
    pub fn in_flight(&self) -> usize {
        self.state().in_flight
    }

    /// Queries holding or waiting for a ticket right now.
    pub fn active(&self) -> usize {
        self.state().active
    }
}

fn elapsed_nanos(since: Option<Instant>) -> u64 {
    since
        .map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// A granted degree-of-parallelism ticket. Holds `granted` workers out of
/// the engine budget until dropped.
#[derive(Debug)]
pub struct DopTicket<'a> {
    sched: &'a DopScheduler,
    granted: usize,
}

impl DopTicket<'_> {
    /// Workers this statement may fan out over.
    pub(crate) fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for DopTicket<'_> {
    fn drop(&mut self) {
        let mut st = self.sched.state();
        st.in_flight -= self.granted;
        st.active -= 1;
        drop(st);
        self.sched.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlarray_core::lifecycle::{CancelHandle, QueryLimits};
    use std::sync::Arc;

    fn unbounded() -> QueryCtx {
        QueryCtx::unbounded()
    }

    fn sched(budget: usize) -> DopScheduler {
        DopScheduler::with_queue_cap(budget, DEFAULT_ADMISSION_QUEUE_CAP)
    }

    #[test]
    fn lone_query_gets_full_request_even_past_budget() {
        let s = sched(2);
        let t = s.acquire(8, &unbounded()).unwrap();
        assert_eq!(t.granted(), 8);
        drop(t);
        assert_eq!(s.stats().admitted, 1);
        assert_eq!(s.stats().peak_in_flight, 8);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn concurrent_queries_share_the_budget_fairly() {
        let s = sched(8);
        let a = s.acquire(8, &unbounded()).unwrap();
        assert_eq!(a.granted(), 8);
        drop(a);
        // With one ticket live, a second request is clamped to fair share
        // of the remainder.
        let a = s.acquire(4, &unbounded()).unwrap();
        let b = s.acquire(8, &unbounded()).unwrap();
        assert_eq!(a.granted(), 4);
        // active = 2 → fair share 4, free 4.
        assert_eq!(b.granted(), 4);
        drop(a);
        drop(b);
        assert_eq!(s.stats().admitted, 3);
        assert_eq!(s.stats().peak_in_flight, 8);
    }

    #[test]
    fn exhausted_budget_queues_until_release() {
        let s = Arc::new(sched(2));
        let a = s.acquire(2, &unbounded()).unwrap();
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.acquire(2, &unbounded()).unwrap().granted());
        // Give the waiter time to block, then release.
        while s.stats().queued == 0 {
            std::thread::yield_now();
        }
        drop(a);
        let granted = waiter.join().expect("waiter panicked");
        assert!(granted >= 1);
        assert!(s.stats().queued >= 1);
        assert!(s.stats().wait_nanos > 0, "queued time is surfaced");
    }

    #[test]
    fn every_grant_is_at_least_one() {
        let s = sched(1);
        let a = s.acquire(1, &unbounded()).unwrap();
        // in_flight == budget, but free == 0 → would queue; release first.
        drop(a);
        let b = s.acquire(4, &unbounded()).unwrap();
        assert!(b.granted() >= 1);
    }

    #[test]
    fn queued_statement_times_out_with_typed_error() {
        let s = sched(1);
        let _hold = s.acquire(1, &unbounded()).unwrap();
        let q = QueryCtx::with_limits(
            CancelHandle::new(),
            QueryLimits {
                timeout_ms: Some(20),
                ..QueryLimits::default()
            },
        );
        let err = s.acquire(1, &q).unwrap_err();
        assert_eq!(err, EngineError::AdmissionTimeout { timeout_ms: 20 });
        let st = s.stats();
        assert_eq!(st.admission_timeouts, 1);
        assert!(st.wait_nanos > 0);
        // The failed waiter left no residue.
        assert_eq!(s.active(), 1);
    }

    #[test]
    fn queued_statement_honors_cancellation() {
        let s = Arc::new(sched(1));
        let hold = s.acquire(1, &unbounded()).unwrap();
        let h = CancelHandle::new();
        let q = QueryCtx::with_limits(h.clone(), QueryLimits::default());
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.acquire(1, &q).unwrap_err());
        while s.stats().queued == 0 {
            std::thread::yield_now();
        }
        h.cancel();
        assert_eq!(waiter.join().unwrap(), EngineError::Cancelled);
        assert_eq!(s.stats().admission_cancelled, 1);
        drop(hold);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn full_queue_rejects_immediately_with_overloaded() {
        let s = Arc::new(DopScheduler::with_queue_cap(1, 1));
        let _hold = s.acquire(1, &unbounded()).unwrap();
        // One statement parks in the queue…
        let s2 = Arc::clone(&s);
        let _parked = std::thread::spawn(move || {
            let q = QueryCtx::with_limits(
                CancelHandle::new(),
                QueryLimits {
                    timeout_ms: Some(60_000),
                    ..QueryLimits::default()
                },
            );
            let _ = s2.acquire(1, &q);
        });
        while s.stats().queued == 0 {
            std::thread::yield_now();
        }
        // …so the next arrival is refused without blocking.
        let err = s.acquire(1, &unbounded()).unwrap_err();
        assert_eq!(err, EngineError::Overloaded { waiting: 1, cap: 1 });
        assert_eq!(s.stats().rejected_overload, 1);
        assert!(err.is_retryable());
    }
}
