//! The repo's one poison-handling policy for shared locks.
//!
//! Every `Mutex`/`RwLock` guard acquisition in the engine and storage
//! crates funnels through these helpers instead of ad-hoc
//! `unwrap_or_else(|e| e.into_inner())` at each site. The policy is
//! *recover*: a poisoned lock means some thread panicked while holding
//! the guard, and in this codebase that is always sound to continue from,
//! because no guarded structure is left half-mutated across a panic edge:
//!
//! * the **database lock** guards state whose durability semantics belong
//!   to the WAL, not the lock — readers only ever observe committed
//!   snapshots, and writers commit-or-discard through
//!   statement-autocommit (a panicked writer's work is bounded by the
//!   next recovery replay, exactly like a crash);
//! * **scheduler / plan-cache / accounting mutexes** guard counter
//!   arithmetic and map insert/evict operations that are individually
//!   complete before any fallible call runs;
//! * **scan-worker panics never reach a lock at all** — the executor
//!   catches them at the fan-out boundary (`catch_unwind` around the
//!   worker body) and converts them into typed errors, so poisoning via
//!   the parallel path is already structurally excluded. These helpers
//!   are the second layer for panics on serial paths.
//!
//! Centralizing the recovery makes the policy auditable: grep for
//! `lock_unpoisoned|get_mut_unpoisoned|read_unpoisoned|write_unpoisoned`
//! and you have the complete list of places a poisoned lock's contents can
//! be revived. If a future
//! structure ever needs propagate-on-poison semantics, it must NOT use
//! these helpers — take the `LockResult` explicitly and justify it at the
//! site.

use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Locks `m`, recovering from poison per the module policy.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The contents of `m` through an exclusive borrow — no lock taken, since
/// `&mut` already proves no other thread holds a guard — recovering from
/// poison per the module policy.
pub fn get_mut_unpoisoned<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(|e| e.into_inner())
}

/// Read-locks `l`, recovering from poison per the module policy.
pub fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks `l`, recovering from poison per the module policy.
pub fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// `Condvar::wait_timeout`, recovering from poison per the module policy.
/// Returns the re-acquired guard and whether the wait timed out.
pub fn wait_timeout_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, bool) {
    match cv.wait_timeout(guard, dur) {
        Ok((g, t)) => (g, t.timed_out()),
        Err(e) => {
            let (g, t) = e.into_inner();
            (g, t.timed_out())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(41));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 42);
        let mut m = Arc::into_inner(m).unwrap();
        assert!(m.is_poisoned());
        *get_mut_unpoisoned(&mut m) += 1;
        assert_eq!(*get_mut_unpoisoned(&mut m), 43);
    }

    #[test]
    fn rwlock_recovers_from_poison() {
        let l = Arc::new(RwLock::new(1));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(l.is_poisoned());
        assert_eq!(*read_unpoisoned(&l), 1);
        *write_unpoisoned(&l) = 2;
        assert_eq!(*read_unpoisoned(&l), 2);
    }

    #[test]
    fn wait_timeout_reports_timeout() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock().unwrap();
        let (_g, timed_out) = wait_timeout_unpoisoned(&cv, g, Duration::from_millis(1));
        assert!(timed_out);
    }
}
