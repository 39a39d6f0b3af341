//! One fault plan for every deterministic failure a test injects.
//!
//! A [`FaultPlan`] is a [`Fault`] plus a 1-based ordinal `at`: the `at`-th
//! event at the fault's *site* fires it. Each fault names its site:
//!
//! * [`Fault::PowerLoss`] — WAL appends. The `at`-th append is the first
//!   one lost (optionally left as a torn prefix) and every later one is
//!   dropped; the store keeps mutating in memory, like a process whose
//!   kernel buffered writes the platter never saw. Once the power is lost
//!   a checkpoint changes nothing in the base image.
//! * [`Fault::ReadFault`] — cold page reads: a serial access's pool miss
//!   (a B-tree descent, a DML's apply phase, a blob patch or free)
//!   and a scan worker's snapshot-cold read alike, since both end in the
//!   store's one page-in step. The `at`-th one fails `times` times through
//!   the bounded retry; more failures than the retry budget surface as a
//!   typed read fault.
//! * [`Fault::Cancel`] —
//!   [`QueryCtx::check`](crate::lifecycle::QueryCtx::check) polls. The
//!   `at`-th poll and every later one report cancellation.
//!
//! A plan is armed where its site lives — a page store for power loss and
//! read faults, a session (and from it each statement's `QueryCtx`) for
//! cancellation — and a plan armed anywhere else never fires. The one
//! counter behind a plan is atomic, so events on concurrent scan workers
//! are counted once each: *which* worker meets the `at`-th event may vary
//! with DOP, how many events there are does not.
//!
//! `at = u64::MAX` ([`FaultPlan::count`]) counts events and never fires:
//! a dry run's [`seen`](FaultPlan::seen) is the number of injection points
//! a harness then trips one ordinal at a time.

use std::cmp::Ordering as Cmp;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a [`FaultPlan`] does when it fires; the variant names its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// At WAL appends: the store loses power at the plan's ordinal.
    PowerLoss {
        /// Bytes of the first lost frame that still reach the log (0 = a
        /// clean cut at a frame boundary); always kept strictly shorter
        /// than the frame, so a torn frame never verifies.
        torn_bytes: usize,
    },
    /// At cold page reads: the read at the plan's ordinal fails
    /// `times` times before it succeeds.
    ReadFault {
        /// Consecutive failures of that one read.
        times: u32,
    },
    /// At lifecycle polls: the poll at the plan's ordinal, and every later
    /// one, reports cancellation.
    Cancel,
}

/// A [`Fault`] armed at the `at`-th event of its site (1-based).
#[derive(Debug)]
pub struct FaultPlan {
    /// What fires.
    pub fault: Fault,
    /// The 1-based ordinal of the event that fires it; `u64::MAX` never
    /// fires.
    pub at: u64,
    seen: AtomicU64,
}

impl FaultPlan {
    /// `fault` armed at the `at`-th event of its site.
    pub fn new(fault: Fault, at: u64) -> FaultPlan {
        FaultPlan {
            fault,
            at,
            seen: AtomicU64::new(0),
        }
    }

    /// A dry run: counts `fault`'s site events and never fires.
    pub fn count(fault: Fault) -> FaultPlan {
        FaultPlan::new(fault, u64::MAX)
    }

    /// The same plan with its count back at zero — what each statement of
    /// a session is handed.
    pub fn rearmed(&self) -> FaultPlan {
        FaultPlan::new(self.fault, self.at)
    }

    /// Counts one event at the plan's site and places it against `at`:
    /// `Less` before the fault, `Equal` the event that fires it, `Greater`
    /// after it.
    pub fn tick(&self) -> Cmp {
        // Relaxed: the count orders nothing but itself.
        (self.seen.fetch_add(1, Ordering::Relaxed) + 1).cmp(&self.at)
    }

    /// Events counted so far.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Whether the plan has fired: its `at`-th event has been counted.
    pub fn fired(&self) -> bool {
        self.seen() >= self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_at_th_event_fires_and_later_ones_follow_it() {
        let plan = FaultPlan::new(Fault::Cancel, 3);
        let order: Vec<Cmp> = (0..5).map(|_| plan.tick()).collect();
        assert_eq!(
            order,
            [Cmp::Less, Cmp::Less, Cmp::Equal, Cmp::Greater, Cmp::Greater]
        );
        assert_eq!(plan.seen(), 5);
        assert!(plan.fired());
    }

    #[test]
    fn a_count_only_plan_never_fires() {
        let plan = FaultPlan::count(Fault::ReadFault { times: 1 });
        assert!((0..100).all(|_| plan.tick() == Cmp::Less));
        assert_eq!(plan.seen(), 100);
        assert!(!plan.fired());
    }

    #[test]
    fn a_rearmed_copy_counts_from_zero() {
        let plan = FaultPlan::new(Fault::PowerLoss { torn_bytes: 3 }, 2);
        plan.tick();
        plan.tick();
        let again = plan.rearmed();
        assert_eq!((again.fault, again.at, again.seen()), (plan.fault, 2, 0));
        assert!(plan.fired() && !again.fired());
    }
}
