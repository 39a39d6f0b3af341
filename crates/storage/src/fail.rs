//! Deterministic fault injection for crash-recovery testing.
//!
//! The crash lifecycle the crash-matrix suites drive, on a plain
//! [`PageStore`](crate::store::PageStore):
//!
//! 1. **Arm** a
//!    [`Fault::PowerLoss`](sqlarray_core::fault::Fault::PowerLoss) plan
//!    with [`arm`](crate::store::PageStore::arm) — the plan's `at`-th WAL
//!    append is where the store silently "loses power" (that append can
//!    leave a torn prefix, every later one is dropped). The in-process
//!    state keeps mutating, so the victim operation succeeds from the
//!    caller's point of view — exactly like an OS that buffered the writes
//!    the platter never saw. Arming changes nothing before the cut: a
//!    commit whose log passed the trigger still auto-checkpoints. After
//!    the cut no checkpoint, explicit or automatic, touches the base
//!    image.
//! 2. **Crash** — [`crash_image`](crate::store::PageStore::crash_image)
//!    takes the [`DiskImage`] that survived: checkpoint base pages + the
//!    cut log.
//! 3. Optionally **corrupt** the image like failing media would:
//!    [`tear_final_page`] (a partial sector write), [`corrupt_image_byte`]
//!    (a silent bit flip), [`tear_wal`] (an arbitrary mid-record cut).
//!    An image's pages are shared with the store it came from, so these
//!    helpers replace or copy a page before they damage it: the store,
//!    and every other image, keep their bytes.
//! 4. **Reboot** via [`open`](crate::store::PageStore::open) and assert the recovered state
//!    is byte-for-byte the last committed snapshot.
//!
//! Injection points are enumerated from a clean run: every WAL append is
//! counted in [`crate::stats::IoStats::wal_records`] whether or not it
//! reaches the durable log, so `stats().wal_records` after an unfailed
//! victim run is the exact number of distinct crash points to test —
//! `n` appends are `at = 1..=n`, plus `at = n + 1`, the cut past the end.
//!
//! The same [`FaultPlan`](sqlarray_core::fault::FaultPlan) armed with a
//! [`Fault::ReadFault`](sqlarray_core::fault::Fault::ReadFault) fails a
//! cold page read instead — a serial one as well as a scan worker's;
//! [`PageStore::armed`](crate::store::PageStore::armed) hands the plan
//! back for a dry run's count, and [`sqlarray_core::fault`] lists every
//! site. A statement that fails after it began to write is undone by
//! [`rollback`](crate::store::PageStore::rollback), which returns the live
//! store to its last commit.

use crate::page::PageId;
use crate::store::DiskImage;
use std::sync::Arc;

/// Truncates the image's final page to `keep` bytes — a torn (partial)
/// page write. Recovery refuses the image with
/// [`crate::errors::StorageError::PageCorrupt`] for that page.
pub fn tear_final_page(image: &mut DiskImage, keep: usize) {
    if let Some(last) = image.pages.last_mut() {
        let keep = keep.min(last.len().saturating_sub(1));
        *last = Arc::from(&last[..keep]);
    }
}

/// Flips one bit of a base page without fixing its checksum — silent
/// media corruption recovery must detect.
pub fn corrupt_image_byte(image: &mut DiskImage, page: PageId, off: usize) {
    Arc::make_mut(&mut image.pages[page as usize])[off] ^= 0x01;
}

/// Cuts the image's log to its first `keep` bytes — an arbitrary
/// (possibly mid-record) tail loss beyond what the armed plan produced.
pub fn tear_wal(image: &mut DiskImage, keep: usize) {
    image.wal.truncate(keep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::StorageError;
    use crate::store::PageStore;
    use sqlarray_core::fault::{Fault, FaultPlan};

    /// A tiny scripted workload: two committed pages, then a victim write.
    fn committed_store() -> PageStore {
        let mut s = PageStore::new();
        let a = s.allocate();
        let b = s.allocate();
        s.write(a, |p| p[0..4].copy_from_slice(b"AAAA")).unwrap();
        s.write(b, |p| p[0..4].copy_from_slice(b"BBBB")).unwrap();
        s.commit(b"catalog-v1");
        s
    }

    #[test]
    fn crash_before_any_victim_write_recovers_the_commit() {
        let mut s = committed_store();
        s.arm(Some(FaultPlan::new(Fault::PowerLoss { torn_bytes: 0 }, 1)));
        s.write(0, |p| p[0..4].copy_from_slice(b"XXXX")).unwrap();
        let image = s.crash_image();
        let rec = PageStore::open(&image).unwrap();
        assert_eq!(&rec.store.raw_page(0).unwrap()[0..4], b"AAAA");
        assert_eq!(rec.catalog.as_deref(), Some(&b"catalog-v1"[..]));
    }

    #[test]
    fn torn_page_is_refused() {
        let s = committed_store();
        let mut image = s.crash_image();
        // Materialize a base image so there is a final page to tear.
        let rec = PageStore::open(&image).unwrap();
        image = rec.store.crash_image();
        tear_final_page(&mut image, 100);
        assert!(matches!(
            PageStore::open(&image),
            Err(StorageError::PageCorrupt { page: 1, .. })
        ));
    }

    #[test]
    fn flipped_bit_in_base_image_is_refused() {
        let s = committed_store();
        let rec = PageStore::open(&s.crash_image()).unwrap();
        let mut image = rec.store.crash_image();
        corrupt_image_byte(&mut image, 0, 3);
        assert!(matches!(
            PageStore::open(&image),
            Err(StorageError::PageCorrupt { page: 0, .. })
        ));
    }

    #[test]
    fn wal_cut_past_last_commit_only_loses_uncommitted_work() {
        let mut s = committed_store();
        s.write(1, |p| p[0..4].copy_from_slice(b"CCCC")).unwrap(); // uncommitted
        let mut image = s.crash_image();
        let cut = image.wal.len() - 3;
        tear_wal(&mut image, cut);
        let rec = PageStore::open(&image).unwrap();
        assert_eq!(&rec.store.raw_page(1).unwrap()[0..4], b"BBBB");
        assert!(rec.discarded_bytes > 0);
    }
}
