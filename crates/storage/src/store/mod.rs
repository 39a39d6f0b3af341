//! The page store: an in-memory "disk" of 8 kB pages fronted by a live,
//! concurrent buffer pool with sharded-LRU replacement and full I/O
//! accounting.
//!
//! All structures (B-trees, blob streams, tables) read and write through
//! [`PageStore`], so the counters in [`IoStats`]
//! capture exactly the page traffic a SQL Server clustered-index scan or
//! LOB fetch would generate, and the
//! [`DiskProfile`] converts them into simulated
//! disk seconds.
//!
//! The store is three files, each keeping one invariant:
//!
//! * `store/mod.rs`, the live store — allocate, free, read, write,
//!   commit, the pool and the accounting: **a page write is logged before
//!   it is visible.** Every change to the file — an allocation, a free, a
//!   page write, a commit — appends its log frame inside the `&mut self`
//!   call that makes it, so no reader, checkpoint or crash image sees a
//!   change the log does not hold. Past replay's reset to a base image,
//!   the allocation state (the file's length and the free list) changes
//!   through two transitions only, one per logged record kind, which the
//!   live calls run before they log and replay runs for each logged
//!   record: live and recovered allocation cannot drift apart.
//! * `store/image.rs`, the durable image — [`DiskImage`], checkpoint,
//!   crash image, open, replay and rollback: **an image opens to its last
//!   commit.**
//! * `store/scan.rs`, the scan reader — [`PageRead`], [`ScanCtx`],
//!   [`PartitionReader`] and the one page-in step every read ends in:
//!   **simulated I/O is the same at every DOP.**
//!
//! The two child files are private parts of this module: they see
//! `PageStore`'s private fields, take this file's imports whole
//! (`use super::*`), and their public items are re-exported here, so each
//! has one `store::…` path.

use crate::errors::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use crate::pool::{pool_stamp, PageBits, PoolStamp, ShardedLruPool};
use crate::stats::{DiskProfile, IoStats};
use crate::wal::{self, WalRecord};
use sqlarray_core::fault::{Fault, FaultPlan};
use sqlarray_core::sync::{get_mut_unpoisoned, lock_unpoisoned};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

mod image;
mod scan;

pub use image::{DiskImage, Recovery};
pub use scan::{PageRead, PartitionReader, ScanCtx, ScanIo, MAX_READ_RETRIES};

/// Default buffer-pool capacity (pages). 4096 pages = 32 MiB, small enough
/// that the Table 1 scans (hundreds of MB) are disk-bound after a cache
/// clear, as in the paper.
pub const DEFAULT_POOL_PAGES: usize = 4096;

/// Auto-checkpoint threshold: a commit whose log has grown past this many
/// bytes folds the log into a fresh base image and truncates it.
pub const AUTO_CHECKPOINT_BYTES: usize = 8 * 1024 * 1024;

/// The image of a store that has not checkpointed yet: no base pages and
/// an empty log.
const GENESIS: DiskImage = DiskImage {
    pages: Vec::new(),
    sums: Vec::new(),
    free: Vec::new(),
    catalog: None,
    wal: Vec::new(),
};

/// The page file plus its buffer pool.
///
/// Page buffers are shared: the live file, the base image and every
/// [`DiskImage`] taken from it hold the same `Arc` until a write installs
/// a new buffer for the one page it changes. So a live page that is not
/// the very buffer of its base-image slot is exactly a page written since
/// the last checkpoint.
pub struct PageStore {
    pages: Vec<Arc<[u8]>>,
    /// Per-page checksum (`wal::block_sum`) of the current contents,
    /// restamped by every write over the blocks it changed and verified
    /// on every cold (pool-miss) read.
    sums: Vec<u64>,
    /// Freed page ids available for reuse, LIFO.
    free: Vec<PageId>,
    /// The pages of `free`, as a set over the file: whether a page is
    /// free is one bit test, for a free, a copy run's source check and
    /// replay alike.
    free_bits: PageBits,
    /// The durable image: the last checkpoint's base pages, checksums,
    /// free list and catalog (empty = genesis: an empty file, with the
    /// whole history in the log) plus the log since that checkpoint.
    image: DiskImage,
    next_lsn: u64,
    /// The one zero page every fresh or reclaimed page starts out sharing.
    zero: Arc<[u8]>,
    /// Catalog of the latest [`commit`](Self::commit); the next checkpoint
    /// makes it the base image's, because truncating the log drops the
    /// commit record that carried it.
    last_catalog: Option<Vec<u8>>,
    /// The armed fault plan ([`arm`](Self::arm)): a [`Fault::PowerLoss`]
    /// cuts the log, a [`Fault::ReadFault`] fails a cold page read.
    fault: Option<FaultPlan>,
    /// A page buffer no one else holds — the before-image of an earlier
    /// write, once the image it was installed over let go of it — that
    /// the next private copy or blank page is made in.
    spare: Option<Arc<[u8]>>,
    pool: ShardedLruPool,
    /// Logical clock behind every pool stamp: serial touches take a fresh
    /// epoch each, a parallel scan takes one epoch for all its workers.
    clock: AtomicU64,
    /// Commit epoch: bumped by every [`commit`](Self::commit). Scans record
    /// it at [`begin_scan`](Self::begin_scan) so a reader can name the
    /// committed state its snapshot was taken against.
    committed: AtomicU64,
    /// I/O accounting shared by the serial path and concurrent scan
    /// merges; its last physical read is the simulated disk head. Behind
    /// one short-lived mutex — never held across a page access or a scan
    /// fan-out — so read-only consumers ([`stats`](Self::stats),
    /// [`finish_scan`](Self::finish_scan),
    /// [`io_seconds_since`](Self::io_seconds_since)) work through `&self`,
    /// which is what lets many sessions scan one shared store under a read
    /// lock. The `&mut self` paths reach it without locking.
    acct: Mutex<ScanIo>,
    profile: DiskProfile,
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStore")
            .field("pages", &self.pages.len())
            .field("pool_resident", &self.pool.len())
            .field("wal_bytes", &self.image.wal.len())
            .field("free_pages", &self.free.len())
            .field("stats", &self.acct().io)
            .finish()
    }
}

impl PageStore {
    /// Creates an empty store with the default pool size and disk profile.
    pub fn new() -> PageStore {
        PageStore::with_pool(DEFAULT_POOL_PAGES, DiskProfile::default())
    }

    /// Creates an empty store with an explicit pool capacity (in pages) and
    /// disk profile.
    pub fn with_pool(pool_pages: usize, profile: DiskProfile) -> PageStore {
        PageStore {
            pages: Vec::new(),
            sums: Vec::new(),
            free: Vec::new(),
            free_bits: PageBits::new(0),
            image: GENESIS,
            next_lsn: 1,
            zero: Arc::from(vec![0u8; PAGE_SIZE]),
            last_catalog: None,
            fault: None,
            spare: None,
            pool: ShardedLruPool::new(pool_pages),
            clock: AtomicU64::new(1),
            committed: AtomicU64::new(0),
            acct: Mutex::new(ScanIo::default()),
            profile,
        }
    }

    /// The accounting guard, for the `&self` paths. The critical sections
    /// are counter arithmetic only, so the repo-wide recover-on-poison
    /// policy ([`sqlarray_core::sync`]) applies trivially.
    fn acct(&self) -> MutexGuard<'_, ScanIo> {
        lock_unpoisoned(&self.acct)
    }

    /// The accounting state through `&mut self`: the borrow already rules
    /// out every other holder, so no lock is taken.
    fn acct_mut(&mut self) -> &mut ScanIo {
        get_mut_unpoisoned(&mut self.acct)
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    /// The live buffer pool (resident-set inspection for tests/tools).
    pub fn pool(&self) -> &ShardedLruPool {
        &self.pool
    }

    /// A fresh serial stamp: a new epoch, higher than every stamp issued
    /// before it. Serial accesses hold `&mut self`, so the clock is bumped
    /// in place rather than by an atomic read-modify-write.
    fn serial_stamp(&mut self) -> PoolStamp {
        let clock = self.clock.get_mut();
        let epoch = *clock;
        *clock += 1;
        pool_stamp(epoch, 0, 0)
    }

    /// Touches `id` in the pool under a fresh serial stamp, inserting it
    /// when absent; `true` on a hit.
    fn touch_serial(&mut self, id: PageId) -> bool {
        let stamp = self.serial_stamp();
        self.pool.touch_or_insert_mut(id, stamp)
    }

    /// Appends one record to the write-ahead log under the next LSN.
    fn append_wal(&mut self, rec: &WalRecord<'_>) {
        let start = self.image.wal.len();
        wal::append_record(&mut self.image.wal, self.next_lsn, rec);
        self.settle_append(start);
    }

    /// Accounts for the frame just appended at `start` under `next_lsn`,
    /// honoring an armed [`Fault::PowerLoss`]: the plan's `at`-th append
    /// and every later one are truncated away again (the first one
    /// optionally down to a torn prefix). The attempt is always counted in
    /// [`IoStats`], which is how crash harnesses enumerate injection
    /// points from a clean run.
    fn settle_append(&mut self, start: usize) {
        let frame_len = self.image.wal.len() - start;
        self.next_lsn += 1;
        if let Some(plan) = &self.fault {
            if let Fault::PowerLoss { torn_bytes } = plan.fault {
                let keep = match plan.tick() {
                    std::cmp::Ordering::Less => frame_len,
                    // A torn write is strictly shorter than the frame, so
                    // it can never verify as complete.
                    std::cmp::Ordering::Equal => torn_bytes.min(frame_len.saturating_sub(1)),
                    std::cmp::Ordering::Greater => 0,
                };
                self.image.wal.truncate(start + keep);
            }
        }
        let acct = self.acct_mut();
        acct.io.wal_records += 1;
        acct.io.wal_bytes += frame_len as u64;
    }

    /// Allocates a zeroed page **at the end of the file** and returns its
    /// id: a share of the store's zero page, copied at its first write.
    /// The fresh page is resident in the pool (it was just produced in
    /// memory). Bulk builds rely on consecutive calls returning
    /// consecutive ids, and B-tree splits and root growth take their new
    /// pages here too; the LOB writer wants
    /// [`allocate_reuse`](Self::allocate_reuse) instead.
    pub fn allocate(&mut self) -> PageId {
        self.allocate_page(self.page_count())
    }

    /// Allocates a zeroed page, preferring to reclaim the most recently
    /// freed page over growing the file — the path the LOB writer's root,
    /// index and chunk pages take, so blob UPDATE/DELETE churn does not
    /// leak pages. B-tree pages are never freed, so the tree allocates
    /// with [`allocate`](Self::allocate).
    pub fn allocate_reuse(&mut self) -> PageId {
        let top = self.free.last().copied();
        self.allocate_page(top.unwrap_or(self.page_count()))
    }

    /// Takes `page` — the file end or the free-list top — logs the
    /// allocation and makes the page resident.
    fn allocate_page(&mut self, page: PageId) -> PageId {
        let taken = self.take_page(page);
        assert!(taken, "page {page}: not the file end or free-list top");
        self.pool.set_page_count(self.page_count());
        self.append_wal(&WalRecord::Alloc { page });
        self.touch_serial(page);
        page
    }

    /// The allocation state change of a [`WalRecord::Alloc`] of `page`,
    /// for the live store and replay alike: the page at the file end
    /// joins the file, the page on top of the free list leaves the list,
    /// and either way it becomes a share of the zero page. Any other page
    /// is refused (`false`) and nothing changes.
    fn take_page(&mut self, page: PageId) -> bool {
        let p = page as usize;
        if p == self.pages.len() {
            self.pages.push(Arc::clone(&self.zero));
            self.sums.push(wal::ZERO_PAGE_SUM);
            self.free_bits.grow(self.page_count());
        } else if self.free.last() == Some(&page) {
            self.free.pop();
            self.free_bits.remove(page);
            self.pages[p] = Arc::clone(&self.zero);
            self.sums[p] = wal::ZERO_PAGE_SUM;
        } else {
            return false;
        }
        true
    }

    /// Returns a page to the free list for later reuse. The bytes are left
    /// in place (reallocation swaps in the zero page); only the allocation state
    /// changes, and the transition is WAL-logged. A page already on the
    /// free list is refused as [`StorageError::PageAlreadyFree`] before
    /// anything is logged — replay refuses such a log, and two later
    /// allocations would hand the page to two owners.
    pub fn free_page(&mut self, id: PageId) -> Result<()> {
        self.release_page(id)?;
        self.append_wal(&WalRecord::Free { page: id });
        Ok(())
    }

    /// The allocation state change of a [`WalRecord::Free`] of `page`, for
    /// the live store and replay alike: a page of the file joins the free
    /// list. A page past the file is refused as
    /// [`StorageError::PageOutOfRange`], one already on the list as
    /// [`StorageError::PageAlreadyFree`], and either way nothing changes.
    fn release_page(&mut self, page: PageId) -> Result<()> {
        page_of(&self.pages, page)?;
        if !self.free_bits.insert(page) {
            return Err(StorageError::PageAlreadyFree { page });
        }
        self.free.push(page);
        Ok(())
    }

    /// The free list, most recently freed last (inspection for tests).
    pub fn free_pages(&self) -> &[PageId] {
        &self.free
    }

    /// Reads a page, going through the buffer pool.
    pub fn read(&mut self, id: PageId) -> Result<&[u8]> {
        self.fault_in(id)?;
        Ok(&self.pages[id as usize])
    }

    /// Writes a page through a closure: the store's private copy of the
    /// page (`copy_page`), `f` on the copy, then `install` without claims.
    /// A closure that changes nothing logs nothing.
    pub fn write(&mut self, id: PageId, f: impl FnOnce(&mut [u8])) -> Result<()> {
        let mut page = self.copy_page(id)?;
        f(&mut page);
        self.install(id, page, &[])
    }

    /// A private copy of page `id`'s live image, to edit and hand back to
    /// [`install`](Self::install). This is the one place a live page is
    /// copied for a write (counted in [`IoStats::page_copies`]); the copy
    /// is made in the spare buffer when there is one. No pool access and
    /// no I/O is counted: the install is the page's write.
    pub(crate) fn copy_page(&mut self, id: PageId) -> Result<PageBuf> {
        let live = page_of(&self.pages, id)?;
        let copy = match self.spare.take() {
            Some(mut spare) => {
                Arc::make_mut(&mut spare).copy_from_slice(live);
                spare
            }
            None => Arc::from(live),
        };
        self.acct_mut().io.page_copies += 1;
        Ok(PageBuf(copy))
    }

    /// A zeroed page buffer for an image built from nothing — a fresh
    /// page's — made in the spare buffer when there is one. It copies no
    /// page.
    pub(crate) fn blank_page(&mut self) -> PageBuf {
        match self.spare.take() {
            Some(mut spare) => {
                Arc::make_mut(&mut spare).fill(0);
                PageBuf(spare)
            }
            None => PageBuf::zeroed(),
        }
    }

    /// Makes `page` the live image of page `id`, going through the buffer
    /// pool and counting one page write. The buffer is installed as it
    /// is, no byte copied: the image it replaces is the before-image the
    /// write frame is found against (the byte runs that changed, see
    /// [`wal::append_write`]), and the same pass restamps the page's
    /// checksum over the 64-byte blocks those runs touch. An image equal
    /// to the one it replaces logs nothing. The replaced buffer becomes
    /// the store's spare when nothing else holds it — a base image, a
    /// crash image or the zero page keeps its own.
    ///
    /// `claims` say which of the image's bytes were copied from other
    /// pages, or from elsewhere on `id` itself (`&[]`: none). Changed
    /// bytes a claim covers are logged as a copy run — a reference to the
    /// source page's bytes — when those bytes are on the source as it
    /// stood before this write (for another page: as the log leaves it, a
    /// page of the file not on the free list; for `id`: its
    /// before-image), and the run shortens the frame; anything else is
    /// logged literally, so a wrong claim costs log bytes, never a wrong
    /// replay. Claims change nothing else: the page, its checksum, the
    /// counters and the frame count are the same with or without them.
    /// The source pages are read as they are, without touching the pool.
    pub(crate) fn install(
        &mut self,
        id: PageId,
        page: PageBuf,
        claims: &[wal::MoveClaim],
    ) -> Result<()> {
        self.fault_in(id)?;
        self.acct_mut().io.pages_written += 1;
        let mut before = std::mem::replace(&mut self.pages[id as usize], page.0);
        let (pages, free) = (&self.pages, &self.free_bits);
        // Another page's live bytes, unless it is past the file or free.
        let source = |src: PageId| {
            let live = pages.get(src as usize).filter(|_| !free.contains(src));
            live.map(|p| &p[..])
        };
        let moves = wal::Moves {
            claims,
            source: &source,
        };
        let (start, lsn) = (self.image.wal.len(), self.next_lsn);
        let (after, sum) = (&pages[id as usize], &mut self.sums[id as usize]);
        let logged = wal::append_write(&mut self.image.wal, lsn, id, &before, after, sum, &moves);
        if Arc::get_mut(&mut before).is_some() {
            self.spare = Some(before);
        }
        if logged > 0 {
            self.settle_append(start);
        }
        Ok(())
    }

    /// The serial path's page-in of `id`: the live pool decides hit or
    /// miss (a miss inserts the page) and [`ScanIo::page_in`] does the
    /// rest, so a pool miss is verified before the bytes are handed out —
    /// exactly like a real buffer pool only checksums on page-in.
    fn fault_in(&mut self, id: PageId) -> Result<()> {
        page_of(&self.pages, id)?;
        let cold = !self.touch_serial(id);
        let (page, stored) = (&self.pages[id as usize], self.sums[id as usize]);
        let fault = self.fault.as_ref();
        get_mut_unpoisoned(&mut self.acct).page_in(id, page, stored, cold, fault, || None)
    }

    /// Empties the buffer pool — the cache clear the paper performs before
    /// every measured run ("the database server cache was explicitly
    /// cleared before each performance test run", §6.3).
    pub fn clear_cache(&self) {
        self.pool.clear();
        self.acct().last_physical_read = None;
    }

    /// Current I/O counters.
    pub fn stats(&self) -> IoStats {
        self.acct().io
    }

    /// Resets the I/O counters (the cache contents are unaffected).
    pub fn reset_stats(&self) {
        *self.acct() = ScanIo::default();
    }

    /// The simulated disk head: the last page physically read. Cache hits
    /// never move it — only actual (simulated) platter traffic does.
    pub fn seek_position(&self) -> Option<PageId> {
        self.acct().last_physical_read
    }

    /// The disk cost model in effect.
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }

    /// Simulated disk seconds for the I/O performed since `before`.
    pub fn io_seconds_since(&self, before: &IoStats) -> f64 {
        self.profile.io_seconds(&self.acct().io.since(before))
    }

    /// The current commit epoch: how many [`commit`](Self::commit)s this
    /// store has accepted. A scan's snapshot names the epoch it read
    /// against (see [`ScanCtx::snapshot_epoch`]).
    pub fn committed_epoch(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Appends a commit marker carrying `catalog` (the engine's serialized
    /// table directory) to the write-ahead log. Everything logged since
    /// the previous commit becomes durable with this record; recovery
    /// never applies past the last complete commit.
    ///
    /// When the log has grown past [`AUTO_CHECKPOINT_BYTES`] the commit
    /// also checkpoints.
    pub fn commit(&mut self, catalog: &[u8]) {
        self.append_wal(&WalRecord::Commit { catalog });
        self.last_catalog = Some(catalog.to_owned());
        self.committed.fetch_add(1, Ordering::AcqRel);
        if self.image.wal.len() >= AUTO_CHECKPOINT_BYTES {
            self.checkpoint();
        }
    }

    /// Bytes currently in the write-ahead log (since the last checkpoint).
    pub fn wal_len(&self) -> usize {
        self.image.wal.len()
    }

    /// Arms `plan` on this store (`None` disarms): a [`Fault::PowerLoss`]
    /// counts WAL appends, a [`Fault::ReadFault`] every cold page read —
    /// a serial access's pool miss (a B-tree descent, a DML's resolve and
    /// apply, a blob patch or free) and a scan worker's snapshot-cold read
    /// alike. Past a power loss the in-memory state
    /// keeps mutating, so the victim operation "succeeds" in-process,
    /// exactly like a process whose kernel buffered writes the platter
    /// never saw; [`crash_image`](Self::crash_image) is what the disk kept.
    pub fn arm(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The armed plan, if any: a dry run ([`FaultPlan::count`]) reads its
    /// [`seen`](FaultPlan::seen) back through it.
    pub fn armed(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Test support: flips one bit of a page **without** restamping its
    /// checksum or logging anything — simulating silent media corruption
    /// that the next cold read of the page must surface as
    /// [`StorageError::PageCorrupt`].
    pub fn corrupt_byte(&mut self, id: PageId, off: usize) {
        Arc::make_mut(&mut self.pages[id as usize])[off] ^= 0x01;
    }

    /// Direct page-image access without pool or I/O accounting — for
    /// byte-for-byte comparisons in tests and recovery assertions.
    pub fn raw_page(&self, id: PageId) -> Option<&[u8]> {
        self.pages.get(id as usize).map(|b| &b[..])
    }
}

/// Page `id` of `pages`, or [`StorageError::PageOutOfRange`].
fn page_of(pages: &[Arc<[u8]>], id: PageId) -> Result<&[u8]> {
    let max = pages.len() as u64;
    pages
        .get(id as usize)
        .map(|p| &p[..])
        .ok_or(StorageError::PageOutOfRange { page: id, max })
}

/// A page image only its holder can see: a private copy of a live page
/// ([`PageStore::copy_page`]) or a blank one ([`PageStore::blank_page`]),
/// edited in place and made live by [`PageStore::install`] without a copy.
pub(crate) struct PageBuf(Arc<[u8]>);

impl PageBuf {
    /// A zeroed buffer, made without a store — for page images built away
    /// from it, as a bulk build's workers do.
    pub(crate) fn zeroed() -> PageBuf {
        PageBuf(std::iter::repeat(0).take(PAGE_SIZE).collect())
    }
}

impl std::ops::Deref for PageBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        // The buffer is never shared, so this copies nothing.
        Arc::make_mut(&mut self.0)
    }
}

impl Default for PageStore {
    fn default() -> Self {
        PageStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_round_trip() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, |bytes| bytes[0] = 0xAB).unwrap();
        assert_eq!(s.read(p).unwrap()[0], 0xAB);
        assert_eq!(s.page_count(), 1);
        assert_eq!(s.file_bytes(), 8192);
    }

    #[test]
    fn out_of_range_read_fails() {
        let mut s = PageStore::new();
        assert!(matches!(
            s.read(0),
            Err(StorageError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn fresh_pages_are_cached() {
        let mut s = PageStore::new();
        let p = s.allocate();
        let before = s.stats();
        s.read(p).unwrap();
        let d = s.stats().since(&before);
        assert_eq!(d.cache_hits, 1);
        assert_eq!(d.pages_read, 0);
    }

    #[test]
    fn cache_clear_forces_physical_reads() {
        let mut s = PageStore::new();
        let pages: Vec<_> = (0..8).map(|_| s.allocate()).collect();
        s.clear_cache();
        let before = s.stats();
        for &p in &pages {
            s.read(p).unwrap();
        }
        let d = s.stats().since(&before);
        assert_eq!(d.pages_read, 8);
        assert_eq!(d.cache_hits, 0);
        // Second pass is fully cached.
        let before = s.stats();
        for &p in &pages {
            s.read(p).unwrap();
        }
        let d = s.stats().since(&before);
        assert_eq!(d.cache_hits, 8);
    }

    #[test]
    fn sequential_vs_random_classification() {
        let mut s = PageStore::new();
        for _ in 0..10 {
            s.allocate();
        }
        s.clear_cache();
        s.reset_stats();
        // Ascending scan: first read is a seek, the rest are sequential.
        for p in 0..10 {
            s.read(p).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.random_reads, 1);
        assert_eq!(st.sequential_reads, 9);

        s.clear_cache();
        s.reset_stats();
        // Stride-2 scan: every read seeks.
        for p in (0..10).step_by(2) {
            s.read(p).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.random_reads, 5);
        assert_eq!(st.sequential_reads, 0);
    }

    #[test]
    fn pool_eviction_causes_rereads() {
        let mut s = PageStore::with_pool(4, DiskProfile::default());
        let pages: Vec<_> = (0..8).map(|_| s.allocate()).collect();
        s.clear_cache();
        s.reset_stats();
        // Two passes over 8 pages with a 4-page pool: nothing survives
        // between passes.
        for _ in 0..2 {
            for &p in &pages {
                s.read(p).unwrap();
            }
        }
        assert_eq!(s.stats().pages_read, 16);
        assert_eq!(s.stats().cache_hits, 0);
    }

    #[test]
    fn writes_are_counted() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, |b| b[1] = 1).unwrap();
        s.write(p, |b| b[2] = 2).unwrap();
        assert_eq!(s.stats().pages_written, 2);
    }

    #[test]
    fn io_seconds_depend_on_access_pattern() {
        let profile = DiskProfile {
            seq_read_bytes_per_sec: 8192.0 * 1000.0, // 1000 seq pages/s
            random_read_iops: 100.0,                 // 100 random pages/s
            write_bytes_per_sec: f64::INFINITY,
        };
        let mut s = PageStore::with_pool(16, profile);
        for _ in 0..10 {
            s.allocate();
        }
        s.clear_cache();
        let before = s.stats();
        for p in 0..10 {
            s.read(p).unwrap();
        }
        let seq_time = s.io_seconds_since(&before);

        s.clear_cache();
        let before = s.stats();
        for p in [0u64, 9, 1, 8, 2, 7, 3, 6, 4, 5] {
            s.read(p).unwrap();
        }
        let rnd_time = s.io_seconds_since(&before);
        assert!(
            rnd_time > 4.0 * seq_time,
            "random {rnd_time} should dwarf sequential {seq_time}"
        );
    }

    #[test]
    fn cold_read_verifies_checksum_both_ways() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, |b| b[100] = 7).unwrap();
        // Positive: clean page survives a cold read.
        s.clear_cache();
        assert!(s.read(p).is_ok());
        // Negative: corruption behind the pool's back is caught on the
        // next cold read (a warm read cannot see it).
        s.corrupt_byte(p, 200);
        assert!(s.read(p).is_ok(), "warm read skips the check");
        s.clear_cache();
        assert!(matches!(
            s.read(p),
            Err(StorageError::PageCorrupt { page, .. }) if page == p
        ));
    }

    /// A byte that goes bad in a resident page, behind the log's back, is
    /// not laundered by later writes of that page: a write restamps the
    /// blocks it changed by their old and new terms, so the mismatch the
    /// corruption made is still there at the next cold read — whether the
    /// write lands in another block or in the damaged one.
    #[test]
    fn restamp_keeps_a_resident_corruption_visible() {
        for other in [200, 4001] {
            let mut s = PageStore::new();
            let p = s.allocate();
            s.write(p, |b| b[100] = 7).unwrap();
            s.corrupt_byte(p, 4000);
            s.write(p, |b| b[other] ^= 0x5A).unwrap();
            s.clear_cache();
            assert!(
                matches!(s.read(p), Err(StorageError::PageCorrupt { page, .. }) if page == p),
                "write at {other}"
            );
        }
    }

    proptest::proptest! {
        /// Random writes — single bytes, several scattered runs, whole-page
        /// images onto fresh zero pages and over written ones, rewrites
        /// back to zeros, pages freed and reallocated in between — leave
        /// every page's stored checksum equal to a full recompute of its
        /// bytes.
        #[test]
        fn restamp_is_a_full_recompute_after_every_write(
            ops in proptest::collection::vec(
                (0u8..7, proptest::prelude::any::<u16>(), 0usize..PAGE_SIZE, proptest::prelude::any::<u64>()),
                1..60,
            ),
        ) {
            let byte = |seed: u64, i: usize| {
                (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32 % 61) >> 7) as u8
            };
            let mut s = PageStore::new();
            s.allocate();
            for (kind, pick, at, seed) in ops {
                let live: Vec<PageId> = (0..s.page_count()).filter(|p| !s.free.contains(p)).collect();
                let p = live[usize::from(pick) % live.len()];
                match kind {
                    0 => {
                        let fresh = s.allocate();
                        s.write(fresh, |b| {
                            // A leaf-like image: data at the front, zero
                            // blocks in the middle, a directory at the back.
                            for (i, x) in b.iter_mut().enumerate() {
                                if i < at / 2 || i >= PAGE_SIZE - 64 {
                                    *x = byte(seed, i);
                                }
                            }
                        })
                        .unwrap();
                    }
                    1 => s.write(p, |b| b[at] = byte(seed, at)).unwrap(),
                    2 => s
                        .write(p, |b| {
                            for r in 0..1 + seed % 8 {
                                let from = (at + r as usize * 997) % PAGE_SIZE;
                                let to = (from + 1 + (seed >> (8 * r)) as usize % 40).min(PAGE_SIZE);
                                for (i, x) in b.iter_mut().enumerate().take(to).skip(from) {
                                    *x = byte(seed, i);
                                }
                            }
                        })
                        .unwrap(),
                    3 => s
                        .write(p, |b| b.iter_mut().enumerate().for_each(|(i, x)| *x = byte(seed, i)))
                        .unwrap(),
                    4 => s.write(p, |b| b.fill(0)).unwrap(),
                    5 if live.len() > 1 => {
                        s.free_page(p).unwrap();
                        let again = s.allocate_reuse();
                        s.write(again, |b| b[at] = byte(seed, at) | 1).unwrap();
                    }
                    _ => s.clear_cache(),
                }
                for (p, page) in s.pages.iter().enumerate() {
                    proptest::prop_assert_eq!((p, s.sums[p]), (p, wal::block_sum(page)));
                }
            }
        }
    }

    /// A store of `pages` pages, each written with its own bytes, the
    /// pages in `warm` resident, everything else cold.
    pub(super) fn distinct_pages(pages: u64, warm: &[PageId]) -> PageStore {
        let mut s = PageStore::with_pool(64, DiskProfile::default());
        for i in 0..pages {
            let p = s.allocate();
            s.write(p, |b| {
                b[(i as usize * 40) % (PAGE_SIZE - 8)..][..8]
                    .copy_from_slice(&(i | 1).to_le_bytes())
            })
            .unwrap();
        }
        s.clear_cache();
        for &p in warm {
            s.read(p).unwrap();
        }
        s
    }

    /// Runs `f` on a private copy of page `id` and installs it under
    /// `claims`.
    fn write_claimed(
        s: &mut PageStore,
        id: PageId,
        claims: &[wal::MoveClaim],
        f: impl FnOnce(&mut [u8]),
    ) {
        let mut page = s.copy_page(id).unwrap();
        f(&mut page);
        s.install(id, page, claims).unwrap();
    }

    /// Copies bytes 50..350 of page 0 to 100..400 of page 1 under `claims`,
    /// on a store whose page 2 is free, commits, and returns the store,
    /// the copy runs its write frame holds, and the frame's byte length.
    fn claimed_copy(claims: &[wal::MoveClaim]) -> (PageStore, usize, u64) {
        let mut s = PageStore::new();
        let (a, b, c) = (s.allocate(), s.allocate(), s.allocate());
        for p in [a, c] {
            s.write(p, |bytes| {
                for (i, x) in bytes.iter_mut().enumerate() {
                    *x = (i * 7 + p as usize * 13) as u8 | 1;
                }
            })
            .unwrap();
        }
        s.free_page(c).unwrap();
        s.commit(b"before");
        let source = s.raw_page(a).unwrap()[50..350].to_vec();
        let (wal_at, stats) = (s.wal_len(), s.stats());
        write_claimed(&mut s, b, claims, |bytes| {
            bytes[100..400].copy_from_slice(&source)
        });
        let d = s.stats().since(&stats);
        assert_eq!((d.pages_written, d.wal_records), (1, 1), "{claims:?}");
        let copies = wal::scan_strict(&s.image.wal[wal_at..])
            .unwrap()
            .iter()
            .filter(|(_, r)| matches!(r, WalRecord::Copy { .. }))
            .count();
        s.commit(b"after");
        (s, copies, d.wal_bytes)
    }

    /// A claim whose bytes do not match its source — the written page as
    /// it stood before the write included, which held zeros there — or
    /// that names a free page or a page past the file logs the literal
    /// bytes a write without claims logs; a claim that holds logs a copy
    /// run. Either way the page, its checksum and the counters are the
    /// same, and a reboot and a rollback replay the page to its bytes.
    #[test]
    fn a_claim_that_does_not_hold_logs_literal_bytes_and_replays_alike() {
        let claim = |src, src_off| wal::MoveClaim {
            src,
            src_off,
            dst_off: 100,
            len: 300,
        };
        let (plain, none, plain_bytes) = claimed_copy(&[]);
        assert_eq!(none, 0);
        for (claims, holds) in [
            ([claim(0, 50)], true),
            ([claim(0, 51)], false),
            ([claim(1, 50)], false),
            ([claim(2, 50)], false),
            ([claim(9, 50)], false),
        ] {
            let (mut s, copies, bytes) = claimed_copy(&claims);
            assert_eq!((copies, bytes < plain_bytes), (usize::from(holds), holds));
            if !holds {
                assert_eq!(bytes, plain_bytes, "{claims:?}");
            }
            for p in 0..3 {
                assert_eq!(s.raw_page(p), plain.raw_page(p), "page {p}");
                assert_eq!(s.sums[p as usize], plain.sums[p as usize]);
            }
            let rec = PageStore::open(&s.crash_image()).unwrap();
            assert_eq!(rec.store.raw_page(1), plain.raw_page(1), "{claims:?}");
            s.write(1, |b| b.fill(0)).unwrap();
            s.rollback().unwrap();
            assert_eq!(s.raw_page(1), plain.raw_page(1), "{claims:?}");
        }
    }

    /// Bytes moved within their own page are logged as a copy of the page
    /// before the write — read off the page before the frame's runs are
    /// applied, however they overlap the bytes the frame writes — and a
    /// reboot and a rollback replay the page to its bytes. A rewrite of a
    /// free page may still claim its own bytes.
    #[test]
    fn an_own_page_claim_replays_from_the_page_before_its_frame() {
        let mut s = PageStore::new();
        let p = s.allocate();
        let q = s.allocate();
        let fill = |bytes: &mut [u8]| {
            for (i, x) in bytes.iter_mut().enumerate() {
                *x = (i * 13 % 251) as u8 | 1;
            }
        };
        s.write(p, fill).unwrap();
        s.write(q, fill).unwrap();
        s.free_page(q).unwrap();
        s.commit(b"filled");
        let claim = |src_off, dst_off, len| wal::MoveClaim {
            src: p,
            src_off,
            dst_off,
            len,
        };
        // 1000..1400 move up by 100 over their own tail, and the bytes
        // they came from take new values a run ahead of the copy.
        let shift = |b: &mut [u8]| {
            b.copy_within(1000..1400, 1100);
            b[1000..1100].fill(0xEE);
        };
        let wal_at = s.wal_len();
        write_claimed(&mut s, p, &[claim(1000, 1100, 400)], shift);
        // The same claim on a free page's rewrite.
        let free_claim = wal::MoveClaim {
            src: q,
            ..claim(1000, 1100, 400)
        };
        write_claimed(&mut s, q, &[free_claim], shift);
        let own = |r: &WalRecord<'_>| matches!(r, WalRecord::Copy { page, src, len: 400, .. } if page == src);
        let frames = wal::scan_strict(&s.image.wal[wal_at..]).unwrap();
        assert_eq!(frames.iter().filter(|(_, r)| own(r)).count(), 2);
        s.commit(b"shifted");
        let want: Vec<Vec<u8>> = [p, q].map(|id| s.raw_page(id).unwrap().to_vec()).into();
        let rec = PageStore::open(&s.crash_image()).unwrap();
        for (id, page) in [p, q].into_iter().zip(&want) {
            assert_eq!(
                rec.store.raw_page(id).unwrap(),
                &page[..],
                "reboot, page {id}"
            );
        }
        s.write(p, |b| b.fill(0)).unwrap();
        s.rollback().unwrap();
        assert_eq!(s.raw_page(p).unwrap(), &want[0][..], "rollback");
    }

    /// A fresh page and a reclaimed one are shares of the store's zero
    /// page; the first write copies it, so it stays zero.
    #[test]
    fn fresh_and_reclaimed_pages_share_the_zero_page() {
        let mut s = PageStore::new();
        let a = s.allocate();
        let b = s.allocate();
        s.write(a, |p| p[0] = 1).unwrap();
        s.free_page(a).unwrap();
        assert_eq!(s.allocate_reuse(), a);
        for p in [a, b] {
            assert!(Arc::ptr_eq(&s.pages[p as usize], &s.zero), "page {p}");
        }
        s.write(b, |p| p[0] = 2).unwrap();
        assert!(!Arc::ptr_eq(&s.pages[b as usize], &s.zero));
        assert!(s.zero.iter().all(|&x| x == 0));
        assert_eq!(s.raw_page(a).unwrap(), &[0u8; PAGE_SIZE][..]);
    }

    #[test]
    fn identical_rewrite_logs_nothing() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, |p| p[0] = 5).unwrap();
        let before = s.stats();
        s.write(a, |p| p[0] = 5).unwrap(); // no byte changes
        let d = s.stats().since(&before);
        assert_eq!(d.pages_written, 1, "the write is still counted");
        assert_eq!(d.wal_records, 0, "but nothing needs logging");
    }
}
