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
//! ## One page-in, two ways to decide hit or miss
//!
//! Every page read ends in one step, `ScanIo::page_in`: a hit is counted;
//! a cold read is counted, classified sequential or random against the
//! last physical read, ticks an armed [`Fault::ReadFault`] through the
//! bounded retry and has its checksum compared. The two read paths differ
//! only in who decides hit or miss:
//!
//! * Serial accesses (`read`/`write`/`allocate`, `&mut self`) ask the live
//!   pool — and, holding the store exclusively, reach the pool shard, the
//!   stamp clock and the I/O counters without taking a lock.
//! * Each parallel-scan worker holds a [`PartitionReader`] that touches
//!   the **live pool as it reads** (so concurrent readers and writers
//!   observe true residency immediately) but decides hit or miss for the
//!   *cost model* against the start-of-scan residency snapshot in
//!   [`ScanCtx`] and its own earlier reads — which keeps the simulated
//!   [`IoStats`] deterministic and DOP-invariant even though the pool
//!   itself is shared live. [`PageStore::finish_scan`] folds the
//!   per-worker counters back in partition order, fixing up the
//!   sequential/random classification across partition boundaries so the
//!   merged counters equal a serial scan's exactly.
//!
//! Only a worker polls its statement's lifecycle and sums cold pages ahead
//! of their reads. The serial path does neither, on purpose: DML resolve
//! and apply run to their commit once they start writing, and a `&mut`
//! store may rewrite a page between a sum taken ahead and that page's read.

use crate::errors::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use crate::pool::{pool_stamp, PageBits, PoolStamp, ShardedLruPool};
use crate::stats::{DiskProfile, IoStats};
use crate::wal::{self, WalRecord};
use sqlarray_core::fault::{Fault, FaultPlan};
use sqlarray_core::lifecycle::QueryCtx;
use sqlarray_core::sync::{get_mut_unpoisoned, lock_unpoisoned};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default buffer-pool capacity (pages). 4096 pages = 32 MiB, small enough
/// that the Table 1 scans (hundreds of MB) are disk-bound after a cache
/// clear, as in the paper.
pub const DEFAULT_POOL_PAGES: usize = 4096;

/// Auto-checkpoint threshold: a commit whose log has grown past this many
/// bytes folds the log into a fresh base image and truncates it.
pub const AUTO_CHECKPOINT_BYTES: usize = 8 * 1024 * 1024;

/// How many times a cold page read — serial or a scan worker's —
/// re-attempts a physical read that hit a (simulated) transient fault — a
/// [`Fault::ReadFault`] — before surfacing [`StorageError::ReadFaulted`].
/// The bound keeps a persistently failing device from wedging a statement;
/// the retries themselves are counted in [`IoStats::transient_retries`].
pub const MAX_READ_RETRIES: u32 = 3;

/// The durable state of a store at a crash point: the last checkpoint's
/// base image plus whatever log bytes survived. This is everything
/// [`PageStore::open`] needs — and everything a crash can preserve.
///
/// The fields are public so fault-injection harnesses can corrupt the
/// "disk" between crash and reboot (tear the final page, flip a byte)
/// and assert the typed errors recovery raises.
///
/// The page buffers are shared, copy-on-write, with the store that took
/// the image and with any store [`PageStore::open`] boots from it: a
/// caller changes one only through `Arc::make_mut` (as the [`crate::fail`]
/// helpers do), which copies it first.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskImage {
    /// Base page images from the last checkpoint.
    pub pages: Vec<Arc<[u8]>>,
    /// Per-page checksums of `pages`, verified on reboot.
    pub sums: Vec<u64>,
    /// Free-list state at the last checkpoint (LIFO order).
    pub free: Vec<PageId>,
    /// Catalog of the last commit the checkpoint folded in (`None` before
    /// the first one) — what recovery falls back to when no commit record
    /// survives in `wal`.
    pub catalog: Option<Vec<u8>>,
    /// Write-ahead log bytes appended since the checkpoint (possibly torn).
    pub wal: Vec<u8>,
}

/// What [`PageStore::open`] hands back after replaying a [`DiskImage`].
#[derive(Debug)]
pub struct Recovery {
    /// The recovered store, checkpointed at the last complete commit
    /// (its log is empty and its base image is the recovered state).
    pub store: PageStore,
    /// The catalog payload of the last complete commit record — or, when
    /// the surviving log holds none, the one the checkpoint carried. The
    /// engine rebuilds its tables from this.
    pub catalog: Option<Vec<u8>>,
    /// WAL records replayed (everything up to and including the last
    /// complete commit).
    pub applied_records: usize,
    /// Log bytes discarded past the last complete commit (uncommitted
    /// records plus any torn tail).
    pub discarded_bytes: usize,
}

/// The page file plus its buffer pool.
///
/// Page buffers are shared and copy-on-write: the live file, the base
/// image and every [`DiskImage`] taken from it hold the same `Arc` until a
/// write copies the one page it changes. So a live page that is not the
/// very buffer of its base-image slot is exactly a page written since the
/// last checkpoint.
pub struct PageStore {
    pages: Vec<Arc<[u8]>>,
    /// Per-page checksum (`wal::block_sum`) of the current contents,
    /// restamped by every write over the blocks it changed and verified
    /// on every cold (pool-miss) read.
    sums: Vec<u64>,
    /// Freed page ids available for reuse, LIFO.
    free: Vec<PageId>,
    /// Write-ahead log since the last checkpoint.
    wal_buf: Vec<u8>,
    next_lsn: u64,
    /// Base image from the last checkpoint (empty = genesis: an empty
    /// file, with the whole history in `wal_buf`).
    base_pages: Vec<Arc<[u8]>>,
    base_sums: Vec<u64>,
    base_free: Vec<PageId>,
    base_catalog: Option<Vec<u8>>,
    /// The one zero page every fresh or reclaimed page starts out sharing.
    zero: Arc<[u8]>,
    /// Catalog of the latest [`commit`](Self::commit); the next checkpoint
    /// makes it the base image's, because truncating the log drops the
    /// commit record that carried it.
    last_catalog: Option<Vec<u8>>,
    /// The armed fault plan ([`arm`](Self::arm)): a [`Fault::PowerLoss`]
    /// cuts the log, a [`Fault::ReadFault`] fails a cold page read.
    fault: Option<FaultPlan>,
    /// Before-image scratch for computing physiological write diffs of an
    /// unshared page (a shared one is its own before-image).
    scratch: Vec<u8>,
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
            .field("wal_bytes", &self.wal_buf.len())
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
            wal_buf: Vec::new(),
            next_lsn: 1,
            base_pages: Vec::new(),
            base_sums: Vec::new(),
            base_free: Vec::new(),
            base_catalog: None,
            zero: Arc::from(vec![0u8; PAGE_SIZE]),
            last_catalog: None,
            fault: None,
            scratch: vec![0u8; PAGE_SIZE],
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
        let start = self.wal_buf.len();
        wal::append_record(&mut self.wal_buf, self.next_lsn, rec);
        self.settle_append(start);
    }

    /// Accounts for the frame just appended at `start` under `next_lsn`,
    /// honoring an armed [`Fault::PowerLoss`]: the plan's `at`-th append
    /// and every later one are truncated away again (the first one
    /// optionally down to a torn prefix). The attempt is always counted in
    /// [`IoStats`], which is how crash harnesses enumerate injection
    /// points from a clean run.
    fn settle_append(&mut self, start: usize) {
        let frame_len = self.wal_buf.len() - start;
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
                self.wal_buf.truncate(start + keep);
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
        let id = self.pages.len() as PageId;
        self.pages.push(Arc::clone(&self.zero));
        self.sums.push(wal::ZERO_PAGE_SUM);
        self.pool.set_page_count(self.pages.len() as u64);
        self.append_wal(&WalRecord::Alloc { page: id });
        self.touch_serial(id);
        id
    }

    /// Allocates a zeroed page, preferring to reclaim the most recently
    /// freed page over growing the file — the path the LOB writer's root,
    /// index and chunk pages take, so blob UPDATE/DELETE churn does not
    /// leak pages. B-tree pages are never freed, so the tree allocates
    /// with [`allocate`](Self::allocate).
    pub fn allocate_reuse(&mut self) -> PageId {
        let Some(id) = self.free.pop() else {
            return self.allocate();
        };
        self.pages[id as usize] = Arc::clone(&self.zero);
        self.sums[id as usize] = wal::ZERO_PAGE_SUM;
        self.append_wal(&WalRecord::Alloc { page: id });
        self.touch_serial(id);
        id
    }

    /// Returns a page to the free list for later reuse. The bytes are left
    /// in place (reallocation swaps in the zero page); only the allocation state
    /// changes, and the transition is WAL-logged.
    pub fn free_page(&mut self, id: PageId) -> Result<()> {
        page_of(&self.pages, id)?;
        self.free.push(id);
        self.append_wal(&WalRecord::Free { page: id });
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

    /// Writes a page through a closure, going through the buffer pool and
    /// counting one page write. The byte runs the closure changed — found
    /// against a before-image, see [`wal::append_write`] — are appended to
    /// the write-ahead log as one physiological frame, the same pass
    /// restamps the page's checksum over the 64-byte blocks those runs
    /// touch. A closure that changes nothing logs nothing.
    ///
    /// `claims` say which of the bytes the closure writes it copied from
    /// other pages (`&[]`: none). Changed bytes a claim covers are logged
    /// as a copy run — a reference to the source page's bytes — when those
    /// bytes are still on the source as the log leaves it, the source is
    /// another page of the file not on the free list, and the run shortens
    /// the frame; anything else is logged literally, so a wrong claim
    /// costs log bytes, never a wrong replay. Claims change nothing else:
    /// the page, its checksum, the counters and the frame count are the
    /// same with or without them. The source pages are read as they are,
    /// without touching the pool.
    ///
    /// Outside recovery's replay, this is the one place a page is copied:
    /// an unshared page copies its before-image aside, a shared one (with
    /// the base image, a crash image or the zero page) is its own
    /// before-image and is copied once, into the live slot, before the
    /// closure runs.
    pub fn write(
        &mut self,
        id: PageId,
        claims: &[wal::MoveClaim],
        f: impl FnOnce(&mut [u8]),
    ) -> Result<()> {
        self.fault_in(id)?;
        self.acct_mut().io.pages_written += 1;
        // `fault_in` vouched for `id`: the page is in the file.
        let (below, rest) = self.pages.split_at_mut(id as usize);
        let Some((slot, above)) = rest.split_first_mut() else {
            let max = below.len() as u64;
            return Err(StorageError::PageOutOfRange { page: id, max });
        };
        let shared = Arc::get_mut(slot).is_none().then(|| Arc::clone(slot));
        if shared.is_none() {
            self.scratch.copy_from_slice(slot);
        }
        let page = Arc::make_mut(slot);
        f(page);
        let before = shared.as_deref().unwrap_or(&self.scratch[..]);
        // Whether the last source asked for is on the free list: a write's
        // claims name one page, or a few, over and over.
        let (free, last) = (&self.free, std::cell::Cell::new(None));
        let source = |src: PageId| {
            let is_free = match last.get() {
                Some((page, is_free)) if page == src => is_free,
                _ => free.contains(&src),
            };
            last.set(Some((src, is_free)));
            let live = match src.checked_sub(id + 1) {
                None => below.get(src as usize),
                Some(past) => above.get(past as usize),
            };
            live.filter(|_| !is_free).map(|p| &p[..])
        };
        let moves = wal::Moves {
            claims,
            source: &source,
        };
        let (start, lsn) = (self.wal_buf.len(), self.next_lsn);
        let sum = &mut self.sums[id as usize];
        if wal::append_write(&mut self.wal_buf, lsn, id, before, page, sum, &moves) == 0 {
            return Ok(()); // byte-identical rewrite: nothing to log
        }
        self.settle_append(start);
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
        if self.wal_buf.len() >= AUTO_CHECKPOINT_BYTES {
            self.checkpoint();
        }
    }

    /// Folds the current state — pages, checksums, free list and the last
    /// committed catalog — into the base image and truncates the log. No
    /// page is copied: each base slot whose buffer is no longer the live
    /// one (a page written or reallocated since the previous checkpoint)
    /// takes a share of the live buffer, and the pages allocated past the
    /// old image's end (all of them, on a fresh or just-recovered store,
    /// whose base is empty) are appended as shares too. The image it
    /// leaves is the live page file, buffer for buffer. Modeled as atomic:
    /// a crash is either before (old base + old log) or after (new base +
    /// empty log).
    ///
    /// A store whose armed [`Fault::PowerLoss`] has fired writes nothing
    /// more to disk, so its checkpoint changes nothing: the base image and
    /// the cut log stay what the crash left.
    pub fn checkpoint(&mut self) {
        if let Some(plan) = &self.fault {
            if matches!(plan.fault, Fault::PowerLoss { .. }) && plan.fired() {
                return;
            }
        }
        for (base, live) in self.base_pages.iter_mut().zip(&self.pages) {
            if !Arc::ptr_eq(base, live) {
                *base = Arc::clone(live);
            }
        }
        let grown = &self.pages[self.base_pages.len()..];
        self.base_pages.extend_from_slice(grown);
        self.base_sums.clone_from(&self.sums);
        self.base_free.clone_from(&self.free);
        self.base_catalog.clone_from(&self.last_catalog);
        self.wal_buf.clear();
    }

    /// Bytes currently in the write-ahead log (since the last checkpoint).
    pub fn wal_len(&self) -> usize {
        self.wal_buf.len()
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

    /// The durable state a crash right now would preserve: the last
    /// checkpoint's base image plus the surviving log bytes. Feed it to
    /// [`PageStore::open`] to model the reboot. The image shares the base
    /// image's page buffers; later writes to this store copy, so it never
    /// changes.
    pub fn crash_image(&self) -> DiskImage {
        DiskImage {
            pages: self.base_pages.clone(),
            sums: self.base_sums.clone(),
            free: self.base_free.clone(),
            catalog: self.base_catalog.clone(),
            wal: self.wal_buf.clone(),
        }
    }

    /// Boots a store from a (possibly crash-cut, possibly corrupted) disk
    /// image: verifies the base pages against their checksums, replays the
    /// log **up to the last complete commit record** — stamping each page
    /// the replay wrote with its checksum once, after the last record —
    /// and discards the uncommitted/torn tail. The recovered store starts
    /// checkpointed at the committed state with a cold (empty) buffer pool.
    ///
    /// The store shares the image's page buffers: only the pages the
    /// replay writes are copied. A free list that names a page past the
    /// file, or one page twice, is refused as
    /// [`StorageError::CatalogCorrupt`], and a log that frees a page
    /// already free as [`StorageError::WalCorrupt`].
    pub fn open(image: &DiskImage) -> Result<Recovery> {
        PageStore::open_with(image, DEFAULT_POOL_PAGES, DiskProfile::default())
    }

    /// [`open`](Self::open) with an explicit pool size and disk profile.
    pub fn open_with(
        image: &DiskImage,
        pool_pages: usize,
        profile: DiskProfile,
    ) -> Result<Recovery> {
        if image.sums.len() != image.pages.len() {
            return Err(StorageError::CatalogCorrupt(format!(
                "disk image has {} pages but {} checksums",
                image.pages.len(),
                image.sums.len()
            )));
        }
        // In page order, a group at a time so the cache misses overlap: the
        // whole pages in front of a group's first short one are summed (a
        // full group together), then the first of them that mismatches, or
        // else the short page, is the error.
        for (g, group) in image.pages.chunks(wal::SUM_GROUP).enumerate() {
            let whole = group.iter().take_while(|p| p.len() == PAGE_SIZE).count();
            let computed: [u64; wal::SUM_GROUP] = if whole == wal::SUM_GROUP {
                wal::block_sums(std::array::from_fn(|k| &group[k][..]))
            } else {
                std::array::from_fn(|k| group[..whole].get(k).map_or(0, |p| wal::block_sum(p)))
            };
            let first = g * wal::SUM_GROUP;
            let stored = &image.sums[first..first + group.len()];
            let bad = (0..whole).find(|&k| computed[k] != stored[k]);
            if let Some(k) = bad.or((whole < group.len()).then_some(whole)) {
                return Err(StorageError::PageCorrupt {
                    page: (first + k) as u64,
                    stored: stored[k],
                    computed: computed[k],
                });
            }
        }
        let mut store = PageStore::with_pool(pool_pages, profile);
        store.base_pages = image.pages.clone();
        store.base_sums = image.sums.clone();
        store.base_free = image.free.clone();
        store.base_catalog = image.catalog.clone();
        let (applied_records, clean_end) = store.replay(&image.wal)?;
        store.pool.set_page_count(store.pages.len() as u64);
        store.checkpoint();
        Ok(Recovery {
            catalog: store.last_catalog.clone(),
            store,
            applied_records,
            discarded_bytes: image.wal.len() - clean_end,
        })
    }

    /// Returns the store to its last commit: cuts the log back to its last
    /// complete commit record and rebuilds the live pages, checksums and
    /// free list from the base image plus that log, as [`open`](Self::open)
    /// does — but without verifying the base pages again and without a
    /// checkpoint. The pool, the I/O counters, the armed plan and the
    /// clocks stay as they are. Returns that commit's catalog (the base
    /// image's when the log holds no commit). After a power loss the log
    /// is what the disk kept, so the store returns to the durable commit.
    pub fn rollback(&mut self) -> Result<Option<Vec<u8>>> {
        let wal = std::mem::take(&mut self.wal_buf);
        let replayed = self.replay(&wal);
        self.wal_buf = wal;
        self.wal_buf.truncate(replayed?.1);
        Ok(self.last_catalog.clone())
    }

    /// Makes the live file the base image plus the records of `wal` up to
    /// its last complete commit record, and that commit's catalog (the
    /// base image's when `wal` holds none) the last one. Each page the log
    /// writes has its checksum stamped once, after the last record, not
    /// once per record. A base free list that names a page past the file,
    /// or one page twice, is refused as [`StorageError::CatalogCorrupt`].
    /// Returns the log frames applied and the byte length of the log
    /// through that commit.
    fn replay(&mut self, wal: &[u8]) -> Result<(usize, usize)> {
        self.pages.clone_from(&self.base_pages);
        self.sums.clone_from(&self.base_sums);
        self.free.clone_from(&self.base_free);
        self.last_catalog.clone_from(&self.base_catalog);
        let scanned = wal::scan(wal);
        // Every page id a replayed record can name: the file, plus one
        // page per record at most.
        let bound = (self.pages.len() + scanned.records.len()) as u64;
        let mut listed = PageBits::new(bound);
        for &id in &self.free {
            if id >= self.pages.len() as u64 || !listed.insert(id) {
                return Err(StorageError::CatalogCorrupt(format!(
                    "disk image free list names page {id} past the {}-page file or twice",
                    self.pages.len()
                )));
            }
        }
        let last_commit = scanned
            .records
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::Commit { .. }));
        let Some(last) = last_commit else {
            return Ok((0, 0));
        };
        let mut written = Vec::new();
        for (i, (_, rec)) in scanned.records[..=last].iter().enumerate() {
            self.apply_replay(i, rec, &mut written, &mut listed)?;
        }
        written.sort_unstable();
        written.dedup();
        for p in written {
            self.sums[p] = wal::block_sum(&self.pages[p]);
        }
        // `scan` vouches for an unbroken LSN chain, so the frames replayed
        // (a write frame is one, however many runs it holds) are the span
        // of their LSNs.
        let (first_lsn, last_lsn) = (scanned.records[0].0, scanned.records[last].0);
        self.next_lsn = last_lsn + 1;
        if let WalRecord::Commit { catalog } = &scanned.records[last].1 {
            self.last_catalog = Some(Vec::from(*catalog));
        }
        Ok(((last_lsn - first_lsn + 1) as usize, scanned.ends[last]))
    }

    /// Applies one replayed WAL record to the store, mirroring exactly
    /// what the live mutation did — except that a written page's checksum
    /// is left to the caller, who gets the page's index in `written`, and
    /// that a write copies a page still shared with the image without
    /// logging a diff. A copy run copies its bytes from its source page as
    /// the replay holds it, which is what the live write checked them
    /// against. `listed` holds the free list's pages: a `Free` of a page
    /// already free is refused, since two later allocations would hand it
    /// to two owners, and so is a copy from a free page or one past the
    /// file. `idx` only feeds error reports.
    fn apply_replay(
        &mut self,
        idx: usize,
        rec: &WalRecord<'_>,
        written: &mut Vec<usize>,
        listed: &mut PageBits,
    ) -> Result<()> {
        let corrupt = |msg: String| StorageError::WalCorrupt { offset: idx, msg };
        match rec {
            WalRecord::Alloc { page } => {
                let p = *page as usize;
                if p == self.pages.len() {
                    self.pages.push(Arc::clone(&self.zero));
                    self.sums.push(wal::ZERO_PAGE_SUM);
                } else if self.free.last() == Some(page) {
                    // Every free-list entry is a page of the file: `replay`
                    // checked the base image's, and a replayed `Free`
                    // checks its own.
                    self.free.pop();
                    listed.remove(*page);
                    self.pages[p] = Arc::clone(&self.zero);
                    self.sums[p] = wal::ZERO_PAGE_SUM;
                } else {
                    return Err(corrupt(format!(
                        "alloc of page {page} matches neither the file end nor the free-list top"
                    )));
                }
            }
            WalRecord::Free { page } => {
                if *page as usize >= self.pages.len() || !listed.insert(*page) {
                    let msg = format!("free of page {page}, unallocated or already free");
                    return Err(corrupt(msg));
                }
                self.free.push(*page);
            }
            WalRecord::Write { page, off, bytes } => {
                let p = *page as usize;
                let start = usize::from(*off);
                let end = start.checked_add(bytes.len()).filter(|&e| e <= PAGE_SIZE);
                let (Some(target), Some(end)) = (self.pages.get_mut(p), end) else {
                    return Err(corrupt(format!(
                        "write of {} bytes at {off} on page {page} is out of bounds",
                        bytes.len()
                    )));
                };
                Arc::make_mut(target)[start..end].copy_from_slice(bytes);
                written.push(p);
            }
            WalRecord::Copy {
                page,
                off,
                len,
                src,
                src_off,
            } => {
                let (p, s) = (*page as usize, *src as usize);
                if s >= self.pages.len() || listed.contains(*src) {
                    let msg = format!("copy from page {src}, past the file or free");
                    return Err(corrupt(msg));
                }
                let (at, from, len) = (usize::from(*off), usize::from(*src_off), usize::from(*len));
                let source = Arc::clone(&self.pages[s]);
                let bytes = source.get(from..from + len);
                let target = self.pages.get_mut(p).filter(|_| p != s);
                let run = target.and_then(|t| Arc::make_mut(t).get_mut(at..at + len));
                let (Some(run), Some(bytes)) = (run, bytes) else {
                    return Err(corrupt(format!(
                        "copy of {len} bytes from {src_off} on page {src} to {off} on page {page} \
                         is out of bounds"
                    )));
                };
                run.copy_from_slice(bytes);
                written.push(p);
            }
            WalRecord::Commit { .. } => {}
        }
        Ok(())
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

    /// Opens a scan: takes the start-of-scan residency snapshot the cost
    /// model classifies against, and claims one pool epoch that all of the
    /// scan's workers stamp their live-pool touches with.
    ///
    /// The snapshot is what keeps the **simulated** I/O deterministic and
    /// DOP-invariant: a page resident when the scan starts is a cache hit
    /// for whichever worker touches it, everything else is a physical
    /// read — regardless of how the live pool (shared by all workers,
    /// evicting concurrently) happens to interleave. The live pool still
    /// sees every touch immediately, stamped `(epoch, partition, seq)`,
    /// so its end state is *also* DOP-invariant (see
    /// [`ShardedLruPool`]) without any replay.
    pub fn begin_scan(&self) -> ScanCtx {
        self.begin_scan_for(QueryCtx::unbounded())
    }

    /// [`begin_scan`](Self::begin_scan) under a statement's lifecycle
    /// context: every [`PartitionReader`] of the scan polls `query` on
    /// each page read, so cancellation, deadlines and memory budgets
    /// reach down to the leaf walk. Internal scans (catalog, recovery)
    /// keep using `begin_scan`, which stamps an unbounded context.
    pub fn begin_scan_for(&self, query: QueryCtx) -> ScanCtx {
        ScanCtx {
            resident: self.pool.snapshot(),
            epoch: self.clock.fetch_add(1, Ordering::Relaxed),
            committed: self.committed.load(Ordering::Acquire),
            query,
        }
    }

    /// A share-nothing read handle over this store for scan worker
    /// `partition` (its index in partition order) of the scan opened by
    /// `scan`.
    pub fn reader<'a>(&'a self, scan: &'a ScanCtx, partition: u32) -> PartitionReader<'a> {
        PartitionReader {
            pages: &self.pages,
            sums: &self.sums,
            pool: &self.pool,
            resident: &scan.resident,
            epoch: scan.epoch,
            partition,
            seq: 0,
            io: ScanIo::default(),
            seen: PageBits::new(self.pages.len() as u64),
            ahead: Ahead::default(),
            query: &scan.query,
            fault: self.fault.as_ref(),
        }
    }

    /// Folds a finished scan's per-worker I/O back into the store, in
    /// partition order. Two fix-ups make the merged counters exactly what
    /// a serial scan would have recorded:
    ///
    /// * each worker classified its first physical read as a seek (it had
    ///   no predecessor); if that read actually continued the previous
    ///   partition's (or the pre-scan head's) position, it is reclassified
    ///   sequential;
    /// * the disk head advances to the last **physical** read of the scan
    ///   in partition order — never to a trailing cache hit, which leaves
    ///   the platter untouched.
    ///
    /// The pool needs no attention here: workers touched it live. Takes
    /// `&self` so concurrent sessions can fold their scans back in while
    /// sharing the store under a read lock; the accounting mutex makes
    /// each fold atomic.
    pub fn finish_scan<'a>(&self, parts: impl IntoIterator<Item = &'a ScanIo>) -> IoStats {
        let mut acct = self.acct();
        let mut head = acct.last_physical_read;
        let mut merged = IoStats::default();
        for part in parts {
            let mut io = part.io;
            if let (Some(prev), Some(first)) = (head, part.first_physical_read) {
                if prev.checked_add(1) == Some(first) && io.random_reads > 0 {
                    io.random_reads -= 1;
                    io.sequential_reads += 1;
                }
            }
            if part.last_physical_read.is_some() {
                head = part.last_physical_read;
            }
            merged.merge(&io);
        }
        acct.io.merge(&merged);
        acct.last_physical_read = head;
        merged
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

/// Anything that can serve page reads with full pool/I/O accounting: the
/// serial [`PageStore`] path and a scan worker's [`PartitionReader`] alike.
///
/// The blob module's ranged LOB reads are generic over this trait, which is
/// what lets a parallel-scan worker resolve `varbinary(max)` array values
/// through the **live** sharded pool — stamped, classified, and folded back
/// exactly like its leaf-page reads — instead of requiring `&mut PageStore`
/// (and thus serialization) for every out-of-row access.
pub trait PageRead {
    /// Reads one page through the buffer pool, touching recency and
    /// classifying the access in this reader's [`IoStats`].
    fn read_page(&mut self, id: PageId) -> Result<&[u8]>;

    /// A hint: `next` are the pages this reader is about to read, in
    /// order, the first of them next. A reader may use it to verify
    /// several cold pages together (a [`PartitionReader`] does); what
    /// a read touches, counts and reports never depends on it. The
    /// default ignores it, and the serial [`PageStore`] keeps the default:
    /// through `&mut` a page can be rewritten between a sum taken ahead
    /// and its read, so that sum could be stale.
    fn read_ahead(&mut self, next: &[PageId]) {
        let _ = next;
    }

    /// Pages in the file this reader reads: a bound that decoders check
    /// counts read off a page against before they allocate by them.
    fn page_count(&self) -> u64;

    /// The query lifecycle this reader runs under, when it has one. LOB
    /// materialization only sees `dyn PageRead`, so budget charging rides
    /// on this seam; a bare [`PageStore`] (recovery, DML apply, DDL)
    /// carries no per-query budget and reports `None`.
    fn lifecycle(&self) -> Option<&QueryCtx> {
        None
    }
}

impl PageRead for PageStore {
    fn read_page(&mut self, id: PageId) -> Result<&[u8]> {
        self.read(id)
    }

    fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }
}

impl PageRead for PartitionReader<'_> {
    fn read_page(&mut self, id: PageId) -> Result<&[u8]> {
        self.read(id)
    }

    /// Keeps the first `wal::SUM_GROUP` pages of `next`, so the call costs
    /// the same however long `next` is, and lets a cold read verify the
    /// cold pages after it together with it, so that their cache misses
    /// overlap. It reads, touches and counts nothing: each page is still
    /// touched, counted, fault-ticked and judged by its own
    /// [`read`](PartitionReader::read), and a page never read is never
    /// judged.
    fn read_ahead(&mut self, next: &[PageId]) {
        for (slot, &id) in self.ahead.hint.iter_mut().zip(next) {
            *slot = id;
        }
        self.ahead.hinted = next.len().min(wal::SUM_GROUP);
    }

    fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    fn lifecycle(&self) -> Option<&QueryCtx> {
        Some(self.query)
    }
}

/// Shared context of one scan: the residency snapshot the cost model
/// classifies against, plus the pool epoch its workers stamp with.
#[derive(Debug)]
pub struct ScanCtx {
    resident: PageBits,
    epoch: u64,
    committed: u64,
    query: QueryCtx,
}

impl ScanCtx {
    /// The lifecycle context this scan runs under (unbounded for scans
    /// opened with [`PageStore::begin_scan`]).
    pub fn query(&self) -> &QueryCtx {
        &self.query
    }

    /// The store's commit epoch when this scan began — the committed
    /// state the snapshot was taken against. Under the engine's
    /// single-writer/multi-reader scheme every read of one statement
    /// carries the same epoch, which is what the concurrency tests
    /// assert when proving a reader never observes a half-applied write.
    pub fn snapshot_epoch(&self) -> u64 {
        self.committed
    }
}

/// The I/O accounting of one read path: its counters plus its first and
/// last physical reads. A scan worker keeps its own and hands it to
/// [`PageStore::finish_scan`], which needs the endpoints to stitch the
/// sequential/random classification across partitions; the store keeps
/// one for the serial path and the merged scans, whose last physical read
/// is the simulated disk head.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanIo {
    /// The I/O counters.
    pub io: IoStats,
    /// First page physically read, if any.
    pub first_physical_read: Option<PageId>,
    /// Last page physically read, if any.
    pub last_physical_read: Option<PageId>,
}

impl ScanIo {
    /// The page-in step both read paths end in: one logical read of page
    /// `id` — its bytes `page`, its stored checksum `stored` — which the
    /// caller's residency oracle found `cold` or not. A hit is counted and
    /// done. A cold read is counted, classified sequential or random
    /// against the last physical read and recorded as an endpoint; an
    /// armed [`Fault::ReadFault`] ticks and, at its ordinal, fails the
    /// read `times` times, each failure a counted retry with a
    /// deterministic (counted, not timed) exponential backoff, more than
    /// [`MAX_READ_RETRIES`] of them exhausting the budget; and the page's
    /// checksum — `summed()` when the caller already has it, a full
    /// recompute otherwise — must equal the stored one, or the read fails
    /// with [`StorageError::PageCorrupt`].
    fn page_in(
        &mut self,
        id: PageId,
        page: &[u8],
        stored: u64,
        cold: bool,
        fault: Option<&FaultPlan>,
        summed: impl FnOnce() -> Option<u64>,
    ) -> Result<()> {
        if !cold {
            self.io.cache_hits += 1;
            return Ok(());
        }
        self.io.pages_read += 1;
        match self.last_physical_read {
            // `checked_add`: `prev` can be `u64::MAX`-adjacent in synthetic
            // tests; a plain `prev + 1` overflows in debug builds.
            Some(prev) if prev.checked_add(1) == Some(id) => self.io.sequential_reads += 1,
            _ => self.io.random_reads += 1,
        }
        self.first_physical_read.get_or_insert(id);
        self.last_physical_read = Some(id);
        let read_fault = |plan: &FaultPlan| match plan.fault {
            Fault::ReadFault { times } if plan.tick().is_eq() => times,
            _ => 0,
        };
        for attempts in 1..=fault.map_or(0, read_fault) {
            self.io.transient_retries += 1;
            if attempts > MAX_READ_RETRIES {
                return Err(StorageError::ReadFaulted { page: id, attempts });
            }
            for _ in 0..(1u32 << attempts.min(10)) {
                std::hint::spin_loop();
            }
        }
        let computed = summed().unwrap_or_else(|| wal::block_sum(page));
        if stored != computed {
            return Err(StorageError::PageCorrupt {
                page: id,
                stored,
                computed,
            });
        }
        Ok(())
    }
}

/// A concurrent, share-nothing read path over a [`PageStore`] for one
/// parallel-scan worker.
///
/// Readers borrow the page file immutably (so any number of workers can
/// read at once from `std::thread::scope` threads) and keep their own
/// [`ScanIo`], while touching the **live** buffer pool on every read —
/// stamped with the scan's epoch and this worker's `(partition,
/// sequence)`, the deterministic serial visit order. When the worker
/// finishes, [`finish`](Self::finish) hands its [`ScanIo`] back for
/// [`PageStore::finish_scan`] to fold into the global accounting in
/// partition order.
#[derive(Debug)]
pub struct PartitionReader<'a> {
    pages: &'a [Arc<[u8]>],
    sums: &'a [u64],
    pool: &'a ShardedLruPool,
    resident: &'a PageBits,
    epoch: u64,
    partition: u32,
    seq: u32,
    io: ScanIo,
    /// Pages this worker has already read (re-reads are cache hits).
    seen: PageBits,
    ahead: Ahead,
    query: &'a QueryCtx,
    fault: Option<&'a FaultPlan>,
}

/// Slots for checksums summed ahead: a scan's group of leaves and, beside
/// it, the group of a LOB read nested in one of their rows.
const AHEAD: usize = 2 * wal::SUM_GROUP;

/// A scan worker's read-ahead state: the pages it was told it reads next
/// and the checksums of cold pages summed before their own reads.
#[derive(Debug, Default)]
struct Ahead {
    /// The first pages of the last
    /// [`read_ahead`](PageRead::read_ahead) hint, in order;
    /// `hinted` of them are set.
    hint: [PageId; wal::SUM_GROUP],
    hinted: usize,
    /// Checksums of cold pages computed before their own read, `(page,
    /// sum)`, each taken out by that read.
    sums: [Option<(PageId, u64)>; AHEAD],
}

impl Ahead {
    /// The checksum of cold page `id`, being read now, when it need not be
    /// summed alone: an earlier cold read summed it ahead, or it is summed
    /// now together with the cold pages (`is_cold`) the hint names after
    /// it, when they fill a group — their sums wait in `sums` for their
    /// own reads (one that finds no free slot is dropped, and computed
    /// again at its read). A reader borrows the page file immutably for
    /// its lifetime, so a sum computed ahead is the sum at the read.
    fn summed(
        &mut self,
        id: PageId,
        pages: &[Arc<[u8]>],
        is_cold: impl Fn(PageId) -> bool,
    ) -> Option<u64> {
        let slot_of = |sums: &[Option<(PageId, u64)>], id| {
            sums.iter()
                .position(|s| matches!(s, Some((p, _)) if *p == id))
        };
        if let Some((_, sum)) = slot_of(&self.sums, id).and_then(|k| self.sums[k].take()) {
            return Some(sum);
        }
        let hint = &self.hint[..self.hinted];
        let after = hint
            .iter()
            .position(|&p| p == id)
            .map_or(&[][..], |k| &hint[k + 1..]);
        let mut group = [id; wal::SUM_GROUP];
        let mut n = 1;
        for &p in after {
            if n < wal::SUM_GROUP
                && is_cold(p)
                && !group[..n].contains(&p)
                && slot_of(&self.sums, p).is_none()
            {
                group[n] = p;
                n += 1;
            }
        }
        if n < wal::SUM_GROUP {
            return None;
        }
        let sums = wal::block_sums(group.map(|p| &pages[p as usize][..]));
        let empty = self.sums.iter_mut().filter(|s| s.is_none());
        for (slot, pair) in empty.zip(group.into_iter().zip(sums).skip(1)) {
            *slot = Some(pair);
        }
        Some(sums[0])
    }
}

impl<'a> PartitionReader<'a> {
    /// Polls the scan's lifecycle context: cancellation, deadline, and
    /// the trip points the kill-matrix tests arm. The storage scan loops
    /// call this once per leaf step; the engine's row/batch interpreters
    /// call it per row / per flush through the same reader.
    pub fn check_interrupt(&self) -> Result<()> {
        self.query.check().map_err(StorageError::Interrupted)
    }

    /// The lifecycle context this reader's scan runs under — the engine
    /// charges memory (batch lanes, aggregation state, LOB
    /// materialization) against it.
    pub fn query(&self) -> &QueryCtx {
        self.query
    }

    /// Reads a page; the slice borrows the page file, not the reader, so
    /// records can be held while the reader keeps accounting.
    pub fn read(&mut self, id: PageId) -> Result<&'a [u8]> {
        self.check_interrupt()?;
        let page = page_of(self.pages, id)?;
        // Every logical read touches the live pool immediately — this is
        // what concurrent writers and other scans observe.
        let stamp = pool_stamp(self.epoch, self.partition, self.seq);
        self.seq += 1;
        self.pool.touch_or_insert(id, stamp);
        // The *cost model* decides hit or miss against the start-of-scan
        // snapshot, which is what keeps the simulated I/O DOP-invariant: a
        // page is cold at this worker's first read of it, unless resident
        // when the scan began.
        let cold = self.seen.insert(id) && !self.resident.contains(id);
        let (pages, resident, seen) = (self.pages, self.resident, &self.seen);
        let is_cold =
            |p: PageId| p < pages.len() as u64 && !resident.contains(p) && !seen.contains(p);
        let ahead = &mut self.ahead;
        let stored = self.sums[id as usize];
        let summed = || ahead.summed(id, pages, is_cold);
        self.io
            .page_in(id, page, stored, cold, self.fault, summed)?;
        Ok(page)
    }

    /// The pages whose checksums wait in the read-ahead buffer.
    #[cfg(test)]
    pub(crate) fn summed_ahead(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.ahead.sums.iter().flatten().map(|&(p, _)| p).collect();
        ids.sort_unstable();
        ids
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> IoStats {
        self.io.io
    }

    /// Consumes the reader, returning its counters and physical-read
    /// endpoints for [`PageStore::finish_scan`].
    pub fn finish(self) -> ScanIo {
        self.io
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
        s.write(p, &[], |bytes| bytes[0] = 0xAB).unwrap();
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
        s.write(p, &[], |b| b[1] = 1).unwrap();
        s.write(p, &[], |b| b[2] = 2).unwrap();
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

    /// Regression test for the post-scan head drift: a scan whose *last
    /// touches* are cache hits must leave the simulated head at the last
    /// **physical** read, not teleported to the last touched page.
    #[test]
    fn finish_scan_head_ignores_trailing_cache_hits() {
        let mut s = PageStore::new();
        for _ in 0..16 {
            s.allocate();
        }
        s.clear_cache();
        // Warm pages 14 and 15 so the scan ends in cache hits.
        s.read(14).unwrap();
        s.read(15).unwrap();
        s.reset_stats();

        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        for p in 10..16 {
            r.read(p).unwrap();
        }
        let io = r.finish();
        assert_eq!(io.io.pages_read, 4); // 10..14 physical
        assert_eq!(io.io.cache_hits, 2); // 14, 15 resident
        assert_eq!(io.last_physical_read, Some(13));
        s.finish_scan([&io]);
        // The old `absorb_scan` set the head to 15 (the last *touch*),
        // misclassifying a following read of 16 as sequential.
        assert_eq!(s.seek_position(), Some(13));
    }

    /// A scan made of nothing but cache hits must not move the head at
    /// all.
    #[test]
    fn finish_scan_all_hits_leaves_head_alone() {
        let mut s = PageStore::new();
        for _ in 0..8 {
            s.allocate();
        }
        s.clear_cache();
        // Physically read 4..8 (head ends at 7), leaving them resident.
        for p in 4..8 {
            s.read(p).unwrap();
        }
        assert_eq!(s.seek_position(), Some(7));
        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        for p in 4..8 {
            r.read(p).unwrap(); // all resident: pure cache hits
        }
        let io = r.finish();
        assert_eq!(io.io.pages_read, 0);
        assert_eq!(io.first_physical_read, None);
        s.finish_scan([&io]);
        assert_eq!(s.seek_position(), Some(7));
    }

    /// Partition boundaries must not cost phantom seeks: worker `p`'s
    /// first physical read is reclassified sequential when it continues
    /// worker `p−1`'s last physical position, making the merged counters
    /// exactly serial.
    #[test]
    fn finish_scan_stitches_boundary_classification() {
        let mut s = PageStore::new();
        for _ in 0..8 {
            s.allocate();
        }
        s.clear_cache();
        s.reset_stats();

        // Serial baseline over pages 0..8.
        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        for p in 0..8 {
            r.read(p).unwrap();
        }
        let serial = r.finish();
        drop(scan);
        let serial_merged = s.finish_scan([&serial]);

        // Same pages as two partitions.
        let mut s2 = PageStore::new();
        for _ in 0..8 {
            s2.allocate();
        }
        s2.clear_cache();
        s2.reset_stats();
        let scan = s2.begin_scan();
        let mut a = s2.reader(&scan, 0);
        for p in 0..4 {
            a.read(p).unwrap();
        }
        let a = a.finish();
        let mut b = s2.reader(&scan, 1);
        for p in 4..8 {
            b.read(p).unwrap();
        }
        let b = b.finish();
        // Worker b classified page 4 as a seek on its own…
        assert_eq!(b.io.random_reads, 1);
        drop(scan);
        let merged = s2.finish_scan([&a, &b]);
        // …but the merge stitches it back to sequential.
        assert_eq!(merged, serial_merged);
        assert_eq!(s2.stats(), s.stats());
        assert_eq!(s2.seek_position(), s.seek_position());
    }

    /// Scan workers touch the live pool as they read: residency is
    /// immediately visible, and the end state (set *and* recency order)
    /// matches the serial scan at any worker split.
    #[test]
    fn live_pool_state_is_dop_invariant() {
        let build = |splits: &[std::ops::Range<u64>]| {
            let mut s = PageStore::with_pool(8, DiskProfile::default());
            for _ in 0..32 {
                s.allocate();
            }
            s.clear_cache();
            let scan = s.begin_scan();
            let ios: Vec<ScanIo> = splits
                .iter()
                .enumerate()
                .map(|(pi, range)| {
                    let mut r = s.reader(&scan, pi as u32);
                    for p in range.clone() {
                        r.read(p).unwrap();
                    }
                    r.finish()
                })
                .collect();
            drop(scan);
            s.finish_scan(ios.iter());
            (s.pool().keys_mru_order(), s.stats(), s.seek_position())
        };
        #[allow(clippy::single_range_in_vec_init)] // one partition covering 0..32
        let serial = build(&[0..32]);
        for splits in [
            vec![0..16, 16..32],
            vec![0..8, 8..16, 16..24, 24..32],
            vec![0..5, 5..17, 17..18, 18..32],
        ] {
            assert_eq!(build(&splits), serial, "splits {splits:?}");
        }
    }

    #[test]
    fn commit_crash_recover_round_trips() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, &[], |p| p[10..14].copy_from_slice(b"DATA"))
            .unwrap();
        s.commit(b"cat");
        let rec = PageStore::open(&s.crash_image()).unwrap();
        assert_eq!(rec.catalog.as_deref(), Some(&b"cat"[..]));
        assert_eq!(rec.store.raw_page(a).unwrap(), s.raw_page(a).unwrap());
        assert_eq!(rec.discarded_bytes, 0);
        assert_eq!(rec.applied_records, 3); // alloc + write + commit
    }

    #[test]
    fn uncommitted_tail_is_rolled_back() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, &[], |p| p[0] = 1).unwrap();
        s.commit(b"v1");
        s.write(a, &[], |p| p[0] = 2).unwrap(); // never committed
        let before = s.raw_page(a).unwrap().to_vec();
        assert_eq!(before[0], 2, "in-process state has the new value");
        let rec = PageStore::open(&s.crash_image()).unwrap();
        assert_eq!(rec.store.raw_page(a).unwrap()[0], 1);
        assert!(rec.discarded_bytes > 0);
    }

    #[test]
    fn recovery_at_every_injection_point_lands_on_a_commit() {
        // Scripted workload: commit v1, then a multi-record victim
        // transaction, then commit v2. Killing the log at every append
        // count must recover either v1 (cut before the v2 commit) or v2.
        let run = |plan: Option<FaultPlan>| {
            let mut s = PageStore::new();
            let a = s.allocate();
            let b = s.allocate();
            s.write(a, &[], |p| p[0] = 0xA1).unwrap();
            s.write(b, &[], |p| p[0] = 0xB1).unwrap();
            s.commit(b"v1");
            s.arm(plan);
            // Victim: update both pages, free one, allocate a reuse.
            s.write(a, &[], |p| p[0] = 0xA2).unwrap();
            s.free_page(b).unwrap();
            let c = s.allocate_reuse();
            assert_eq!(c, b, "LIFO reuse picks the freed page");
            s.write(c, &[], |p| p[0] = 0xC2).unwrap();
            s.commit(b"v2");
            s
        };
        let clean = run(None);
        // The plan is armed after the 5-record setup, so injection points
        // count victim appends only.
        let total = clean.stats().wal_records - 5;
        let v1 = {
            let mut s = PageStore::new();
            let a = s.allocate();
            let b = s.allocate();
            s.write(a, &[], |p| p[0] = 0xA1).unwrap();
            s.write(b, &[], |p| p[0] = 0xB1).unwrap();
            s.commit(b"v1");
            s
        };
        for k in 0..=total {
            for torn in [0usize, 3] {
                let s = run(Some(FaultPlan::new(
                    Fault::PowerLoss { torn_bytes: torn },
                    k + 1,
                )));
                let rec = PageStore::open(&s.crash_image()).unwrap();
                if k >= total {
                    assert_eq!(rec.catalog.as_deref(), Some(&b"v2"[..]), "k={k}");
                    for p in 0..clean.page_count() {
                        assert_eq!(
                            rec.store.raw_page(p).unwrap(),
                            clean.raw_page(p).unwrap(),
                            "k={k} page {p}"
                        );
                    }
                    assert_eq!(rec.store.free_pages(), clean.free_pages());
                } else {
                    // Any cut before the final commit must land exactly on
                    // v1 — never a half-applied victim.
                    assert_eq!(rec.catalog.as_deref(), Some(&b"v1"[..]), "k={k}");
                    for p in 0..v1.page_count() {
                        assert_eq!(
                            rec.store.raw_page(p).unwrap(),
                            v1.raw_page(p).unwrap(),
                            "k={k} page {p}"
                        );
                    }
                    assert_eq!(rec.store.free_pages(), v1.free_pages());
                }
            }
        }
    }

    #[test]
    fn cold_read_verifies_checksum_both_ways() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, &[], |b| b[100] = 7).unwrap();
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
            s.write(p, &[], |b| b[100] = 7).unwrap();
            s.corrupt_byte(p, 4000);
            s.write(p, &[], |b| b[other] ^= 0x5A).unwrap();
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
                        s.write(fresh, &[], |b| {
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
                    1 => s.write(p, &[], |b| b[at] = byte(seed, at)).unwrap(),
                    2 => s
                        .write(p, &[], |b| {
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
                        .write(p, &[], |b| b.iter_mut().enumerate().for_each(|(i, x)| *x = byte(seed, i)))
                        .unwrap(),
                    4 => s.write(p, &[], |b| b.fill(0)).unwrap(),
                    5 if live.len() > 1 => {
                        s.free_page(p).unwrap();
                        let again = s.allocate_reuse();
                        s.write(again, &[], |b| b[at] = byte(seed, at) | 1).unwrap();
                    }
                    _ => s.clear_cache(),
                }
                for (p, page) in s.pages.iter().enumerate() {
                    proptest::prop_assert_eq!((p, s.sums[p]), (p, wal::block_sum(page)));
                }
            }
        }
    }

    #[test]
    fn scan_reader_verifies_checksum_on_cold_pages() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, &[], |b| b[0] = 1).unwrap();
        s.corrupt_byte(p, 50);
        s.clear_cache();
        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        assert!(matches!(
            r.read(p),
            Err(StorageError::PageCorrupt { page: 0, .. })
        ));
    }

    /// A store of `pages` pages, each written with its own bytes, the
    /// pages in `warm` resident, everything else cold.
    fn distinct_pages(pages: u64, warm: &[PageId]) -> PageStore {
        let mut s = PageStore::with_pool(64, DiskProfile::default());
        for i in 0..pages {
            let p = s.allocate();
            s.write(p, &[], |b| {
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

    /// Reads `visit` in order through one scan worker — with each read
    /// hinted the rest of `visit` or not hinted at all — stopping at the
    /// first error or after `stop` reads. What is left behind: the error,
    /// the worker's counters and endpoints, the pool's recency order and
    /// how many events the armed plan saw.
    fn visit_pages(
        s: &PageStore,
        visit: &[PageId],
        stop: usize,
        hinted: bool,
    ) -> (
        Option<StorageError>,
        IoStats,
        [Option<PageId>; 2],
        Vec<PageId>,
        u64,
    ) {
        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        let mut err = None;
        for (i, &p) in visit.iter().enumerate().take(stop) {
            if hinted {
                r.read_ahead(&visit[i..]);
            }
            if let Err(e) = r.read(p) {
                err = Some(e);
                break;
            }
        }
        let io = r.finish();
        drop(scan);
        s.finish_scan([&io]);
        let seen = s.armed().map_or(0, |plan| plan.seen());
        let ends = [io.first_physical_read, io.last_physical_read];
        (err, io.io, ends, s.pool().keys_mru_order(), seen)
    }

    /// A hinted read verifies cold pages a group at a time, yet fails,
    /// counts, ticks the fault plan and leaves the pool exactly like the
    /// page-by-page read: a flipped page first, in the middle or last in
    /// a group, or where no group forms; a read fault landing inside a
    /// group; and a walk that stops before the damaged page of its group,
    /// which was summed ahead but is never judged. The walk mixes cold
    /// pages with a resident one, a re-read and a page past the file.
    #[test]
    fn a_hinted_read_fails_and_counts_like_an_unhinted_one() {
        const G: u64 = wal::SUM_GROUP as u64;
        let warm = [3 * G + 1];
        let mut visit: Vec<PageId> = (0..4 * G).collect();
        visit.insert(2 * G as usize, 2);
        visit.push(u64::MAX);
        let all = usize::MAX;
        // (flipped page, read fault `(times, at)`, reads before stopping,
        // the page the error names)
        let cases = [
            (None, None, all, Some(u64::MAX)),
            (Some(G), None, all, Some(G)),
            (Some(G + G / 2), None, all, Some(G + G / 2)),
            (Some(2 * G - 1), None, all, Some(2 * G - 1)),
            (Some(2 * G + 1), None, all, Some(2 * G + 1)),
            (Some(3 * G + 2), None, all, Some(3 * G + 2)),
            (Some(G - 1), None, 2, None),
            (None, Some((9, G + 1)), all, Some(G)),
            (None, Some((2, 3)), all, Some(u64::MAX)),
        ];
        for (corrupt, fault, stop, want) in cases {
            let run = |hinted: bool| {
                let mut s = distinct_pages(4 * G, &warm);
                if let Some(p) = corrupt {
                    s.corrupt_byte(p, 77);
                }
                s.arm(fault.map(|(times, at)| FaultPlan::new(Fault::ReadFault { times }, at)));
                visit_pages(&s, &visit, stop, hinted)
            };
            let (hinted, unhinted) = (run(true), run(false));
            let what = format!("flipped {corrupt:?}, fault {fault:?}, stop {stop}");
            assert_eq!(hinted, unhinted, "{what}");
            let named = hinted.0.as_ref().map(|e| match e {
                StorageError::PageCorrupt { page, .. }
                | StorageError::ReadFaulted { page, .. }
                | StorageError::PageOutOfRange { page, .. } => *page,
                other => panic!("{what}: {other:?}"),
            });
            assert_eq!(named, want, "{what}");
        }
        // The stopped walk did sum its group's damaged page ahead.
        let mut s = distinct_pages(4 * G, &warm);
        s.corrupt_byte(G - 1, 77);
        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        r.read_ahead(&visit);
        r.read(0).unwrap();
        assert_eq!(r.summed_ahead(), (1..G).collect::<Vec<_>>());
    }

    proptest::proptest! {
        /// The one page-in step judges a serial read and a scan worker's
        /// read alike: the same page walk over a cold store — re-reads,
        /// pages past the file, flipped pages, a read fault at any ordinal
        /// that is absorbed or exhausts the retries — counts the same hits,
        /// misses, sequential and random reads and retries, records the
        /// same endpoints, ticks the plan as often and stops at the same
        /// first error through `PageStore::read` as through one worker
        /// whose scan began with nothing resident.
        #[test]
        fn a_serial_read_pages_in_like_a_worker_read(
            visit in proptest::collection::vec(0u64..20, 1..60),
            flips in proptest::collection::vec(0u64..18, 0..3),
            (times, at) in (0u32..MAX_READ_RETRIES + 3, 1u64..40),
        ) {
            // 18 pages, so 18 and 19 are past the file; `times` past the
            // retry budget plus one arms no plan.
            let cold_store = || {
                let mut s = distinct_pages(18, &[]);
                for &p in &flips {
                    s.corrupt_byte(p, 77);
                }
                let armed = times <= MAX_READ_RETRIES + 1;
                s.arm(armed.then(|| FaultPlan::new(Fault::ReadFault { times }, at)));
                s.reset_stats();
                s
            };
            let seen = |s: &PageStore| s.armed().map(|plan| plan.seen());
            let mut s = cold_store();
            let err = visit.iter().find_map(|&p| s.read(p).err());
            let serial = (err, *s.acct(), seen(&s));
            let s = cold_store();
            let scan = s.begin_scan();
            let mut r = s.reader(&scan, 0);
            let err = visit.iter().find_map(|&p| r.read(p).err());
            let io = r.finish();
            let ends = |io: ScanIo| (io.io, io.first_physical_read, io.last_physical_read);
            proptest::prop_assert_eq!(
                (&serial.0, ends(serial.1), serial.2),
                (&err, ends(io), seen(&s))
            );
        }
    }

    /// Replay carries the free list's pages: a log that frees a page
    /// already free — listed by the checkpoint or freed earlier in the log
    /// — is refused, because two later allocations would hand that page
    /// to two owners; a page freed, reallocated and freed again replays.
    #[test]
    fn replay_refuses_a_free_of_a_page_already_free() {
        for checkpoint_between in [false, true] {
            let mut s = PageStore::new();
            for _ in 0..3 {
                s.allocate();
            }
            s.free_page(1).unwrap();
            assert_eq!(s.allocate_reuse(), 1);
            s.free_page(1).unwrap();
            s.commit(b"v1");
            let rec = PageStore::open(&s.crash_image()).unwrap();
            assert_eq!(rec.store.free_pages(), [1]);
            if checkpoint_between {
                s.checkpoint();
            }
            s.free_page(1).unwrap();
            s.commit(b"v2");
            match PageStore::open(&s.crash_image()) {
                Err(StorageError::WalCorrupt { msg, .. }) => {
                    assert!(msg.contains("already free"), "{msg}")
                }
                other => panic!("checkpoint between: {checkpoint_between}: {other:?}"),
            }
        }
    }

    /// Copies bytes 50..350 of page 0 to 100..400 of page 1 under `claims`,
    /// on a store whose page 2 is free, commits, and returns the store,
    /// the copy runs its write frame holds, and the frame's byte length.
    fn claimed_copy(claims: &[wal::MoveClaim]) -> (PageStore, usize, u64) {
        let mut s = PageStore::new();
        let (a, b, c) = (s.allocate(), s.allocate(), s.allocate());
        for p in [a, c] {
            s.write(p, &[], |bytes| {
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
        s.write(b, claims, |bytes| bytes[100..400].copy_from_slice(&source))
            .unwrap();
        let d = s.stats().since(&stats);
        assert_eq!((d.pages_written, d.wal_records), (1, 1), "{claims:?}");
        let copies = wal::scan_strict(&s.wal_buf[wal_at..])
            .unwrap()
            .iter()
            .filter(|(_, r)| matches!(r, WalRecord::Copy { .. }))
            .count();
        s.commit(b"after");
        (s, copies, d.wal_bytes)
    }

    /// A claim whose bytes do not match its source — or that names the
    /// written page, a free page or a page past the file — logs the
    /// literal bytes a write without claims logs; a claim that holds logs
    /// a copy run. Either way the page, its checksum and the counters are
    /// the same, and a reboot and a rollback replay the page to its bytes.
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
            s.write(1, &[], |b| b.fill(0)).unwrap();
            s.rollback().unwrap();
            assert_eq!(s.raw_page(1), plain.raw_page(1), "{claims:?}");
        }
    }

    /// A logged copy run that names a page past the file, or a page on the
    /// free list, is refused by replay as `WalCorrupt`, never a panic; one
    /// from a live page replays as a copy of its bytes.
    #[test]
    fn replay_refuses_a_copy_from_past_the_file_or_a_free_page() {
        let source: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8 | 1).collect();
        let pages: Vec<Arc<[u8]>> = vec![Arc::from(vec![0u8; PAGE_SIZE]), Arc::from(source)];
        let image_of = |records: &[WalRecord<'_>]| {
            let mut wal = Vec::new();
            for (lsn, rec) in records.iter().enumerate() {
                wal::append_record(&mut wal, lsn as u64 + 1, rec);
            }
            wal::append_record(
                &mut wal,
                records.len() as u64 + 1,
                &WalRecord::Commit { catalog: b"c" },
            );
            DiskImage {
                sums: pages.iter().map(|p| wal::block_sum(p)).collect(),
                pages: pages.clone(),
                free: Vec::new(),
                catalog: None,
                wal,
            }
        };
        let copy = |src| WalRecord::Copy {
            page: 0,
            off: 16,
            len: 40,
            src,
            src_off: 100,
        };
        for (what, records) in [
            ("past the file", vec![copy(2)]),
            ("past the file", vec![copy(u64::MAX)]),
            ("free", vec![WalRecord::Free { page: 1 }, copy(1)]),
        ] {
            match PageStore::open(&image_of(&records)) {
                Err(StorageError::WalCorrupt { msg, .. }) => {
                    assert!(msg.contains("past the file or free"), "{what}: {msg}")
                }
                other => panic!("a copy from a page {what}: {other:?}"),
            }
        }
        let mut rec = PageStore::open(&image_of(&[copy(1)])).unwrap();
        let page = rec.store.read(0).unwrap();
        assert_eq!(page[16..56], pages[1][100..140]);
        assert!(page[..16].iter().chain(&page[56..]).all(|&b| b == 0));
    }

    /// `rollback` returns the live file — pages, checksums, free list, log
    /// — to the last commit, whether the base image is genesis or a
    /// checkpoint, and hands back that commit's catalog; the pool and the
    /// counters stay as they were, and the log goes on from the commit, so
    /// a later commit recovers.
    #[test]
    fn rollback_returns_to_the_last_commit_and_keeps_the_pool() {
        for checkpointed in [false, true] {
            let mut s = distinct_pages(6, &[]);
            s.free_page(5).unwrap();
            s.commit(b"v1");
            if checkpointed {
                s.checkpoint();
            }
            s.write(2, &[], |b| b[5] ^= 0xFF).unwrap();
            s.commit(b"v2");
            let committed = (s.pages.clone(), s.sums.clone(), s.free.clone());
            let image = s.crash_image();
            s.write(1, &[], |b| b[9] ^= 0x0F).unwrap();
            s.write(2, &[], |b| b[7] = 3).unwrap();
            s.free_page(3).unwrap();
            assert_eq!(s.allocate_reuse(), 3);
            assert_eq!(s.allocate_reuse(), 5);
            s.allocate();
            s.clear_cache();
            s.read(4).unwrap();
            let (stats, pool) = (s.stats(), s.pool().keys_mru_order());
            assert_eq!(s.rollback().unwrap().as_deref(), Some(&b"v2"[..]));
            assert_eq!(
                (&s.pages, &s.sums, &s.free),
                (&committed.0, &committed.1, &committed.2)
            );
            assert_eq!(s.crash_image(), image);
            assert_eq!((s.stats(), s.pool().keys_mru_order()), (stats, pool));
            for p in 0..s.page_count() {
                s.read(p).unwrap();
            }
            s.write(4, &[], |b| b[0] = 9).unwrap();
            s.commit(b"v3");
            let rec = PageStore::open(&s.crash_image()).unwrap();
            assert_eq!(rec.catalog.as_deref(), Some(&b"v3"[..]));
            assert_eq!((&rec.store.pages, &rec.store.free), (&s.pages, &s.free));
        }
    }

    /// Recovery verifies base pages a group at a time but reports what a
    /// page-by-page pass reports: the lowest damaged page, its stored sum
    /// and the one computed (0 for a short page). Every pair of damaged
    /// pages — flipped or cut short, in one group, across a group
    /// boundary, in the short tail group — and every single one.
    #[test]
    fn open_reports_the_lowest_damaged_page_in_page_order() {
        const G: usize = wal::SUM_GROUP;
        let pages = 2 * G + 3;
        let mut s = distinct_pages(pages as u64, &[]);
        s.commit(b"v");
        s.checkpoint();
        let clean = s.crash_image();
        assert_eq!(clean.pages.len(), pages);
        let first_bad = |image: &DiskImage| {
            image
                .pages
                .iter()
                .zip(&image.sums)
                .enumerate()
                .find_map(|(p, (page, &stored))| {
                    let computed = if page.len() == PAGE_SIZE {
                        wal::block_sum(page)
                    } else {
                        0
                    };
                    (page.len() != PAGE_SIZE || computed != stored).then_some(
                        StorageError::PageCorrupt {
                            page: p as u64,
                            stored,
                            computed,
                        },
                    )
                })
        };
        let damage = |image: &mut DiskImage, p: usize, short: bool| {
            if short {
                image.pages[p] = Arc::from(&image.pages[p][..100]);
            } else {
                crate::fail::corrupt_image_byte(image, p as PageId, 300);
            }
        };
        for a in 0..pages {
            for b in a..pages {
                for kinds in 0..4 {
                    let mut image = clean.clone();
                    damage(&mut image, a, kinds & 1 != 0);
                    if b != a {
                        damage(&mut image, b, kinds & 2 != 0);
                    }
                    let want = first_bad(&image);
                    assert!(
                        matches!(want, Some(StorageError::PageCorrupt { page, .. }) if page == a as u64)
                    );
                    assert_eq!(
                        PageStore::open(&image).err(),
                        want,
                        "pages {a} and {b}, kinds {kinds}"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpoint_truncates_the_log_and_preserves_state() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, &[], |p| p[0] = 9).unwrap();
        s.commit(b"v1");
        assert!(s.wal_len() > 0);
        s.checkpoint();
        assert_eq!(s.wal_len(), 0);
        // A crash right after a checkpoint: no commit in the (empty) log,
        // but the base image *is* the committed state — catalog included.
        let image = s.crash_image();
        assert_eq!(image.catalog.as_deref(), Some(&b"v1"[..]));
        let rec = PageStore::open(&image).unwrap();
        assert_eq!(rec.store.raw_page(a).unwrap()[0], 9);
        assert_eq!(rec.catalog.as_deref(), Some(&b"v1"[..]));
        assert_eq!(rec.applied_records, 0);
        // Recovery's own checkpoint keeps it: reboot twice, same catalog.
        let again = PageStore::open(&rec.store.crash_image()).unwrap();
        assert_eq!(again.catalog.as_deref(), Some(&b"v1"[..]));
    }

    proptest::proptest! {
        /// Whatever ran since the last one, a checkpoint leaves the base
        /// image equal to the live file — pages, checksums, free list —
        /// though it replaces only the base buffers no longer live and
        /// appends the pages past the old image; and a crash at the end
        /// recovers the last commit from that image plus the log.
        ///
        /// A crash image taken at a random op shares its buffers with the
        /// store, and later with the checkpoints and the recovered store;
        /// everything after it — the later ops, a checkpoint, a recovery,
        /// a flipped byte in the live file, damage done to a second image
        /// — leaves its bytes what they were when it was taken.
        #[test]
        fn checkpoint_image_equals_the_live_file(
            ops in proptest::collection::vec(
                (0u8..10, proptest::prelude::any::<u16>(), 0usize..PAGE_SIZE, 1u8..=255),
                1..120,
            ),
            snap_at in proptest::prelude::any::<u16>(),
        ) {
            let mut s = PageStore::new();
            let assert_image_is_live = |s: &PageStore| {
                let image = s.crash_image();
                assert!(image.wal.is_empty());
                assert_eq!((&image.pages, &image.sums, &image.free), (&s.pages, &s.sums, &s.free));
            };
            let snap_at = usize::from(snap_at) % ops.len();
            let mut snapshot = None;
            for (i, &(kind, pick, at, val)) in ops.iter().enumerate() {
                if i == snap_at {
                    let image = s.crash_image();
                    let bytes: Vec<Vec<u8>> = image.pages.iter().map(|p| p.to_vec()).collect();
                    snapshot = Some((image, bytes));
                }
                let page = (!s.pages.is_empty()).then(|| u64::from(pick) % s.page_count());
                match (kind, page) {
                    (0, _) => drop(s.allocate()),
                    (1, _) => drop(s.allocate_reuse()),
                    (2, Some(p)) if !s.free.contains(&p) => s.free_page(p).unwrap(),
                    (3, _) => s.commit(&[i as u8]),
                    (4, _) => {
                        s.checkpoint();
                        assert_image_is_live(&s);
                    }
                    (_, Some(p)) => s
                        .write(p, &[], |b| {
                            b[at] = b[at].wrapping_add(val);
                            b[PAGE_SIZE - 1 - at] ^= val;
                        })
                        .unwrap(),
                    _ => {}
                }
            }
            s.commit(b"end");
            let rec = PageStore::open(&s.crash_image()).unwrap();
            assert_eq!((&rec.store.pages, &rec.store.sums, &rec.store.free), (&s.pages, &s.sums, &s.free));
            assert_eq!(rec.catalog.as_deref(), Some(&b"end"[..]));
            assert_image_is_live(&rec.store);
            s.checkpoint();
            assert_image_is_live(&s);
            assert_eq!(s.crash_image(), rec.store.crash_image());

            for p in 0..s.page_count() {
                s.corrupt_byte(p, p as usize % PAGE_SIZE);
            }
            let mut second = rec.store.crash_image();
            for p in 0..second.pages.len() {
                crate::fail::corrupt_image_byte(&mut second, p as PageId, PAGE_SIZE - 1);
            }
            crate::fail::tear_final_page(&mut second, 100);
            let (image, bytes) = snapshot.expect("a snapshot was taken");
            let now: Vec<Vec<u8>> = image.pages.iter().map(|p| p.to_vec()).collect();
            proptest::prop_assert_eq!(now, bytes);
            assert_eq!(rec.store.crash_image(), s.crash_image(), "the damage stayed in `second`");
        }
    }

    #[test]
    fn checkpoint_catalog_yields_to_a_surviving_commit_only() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.commit(b"v1");
        s.checkpoint();
        s.write(a, &[], |p| p[0] = 1).unwrap();
        s.commit(b"v2");
        s.write(a, &[], |p| p[0] = 2).unwrap(); // uncommitted tail
        let mut image = s.crash_image();
        assert_eq!(image.catalog.as_deref(), Some(&b"v1"[..]));
        let rec = PageStore::open(&image).unwrap();
        assert_eq!(rec.catalog.as_deref(), Some(&b"v2"[..]));
        assert_eq!(rec.store.raw_page(a).unwrap()[0], 1);
        // Lose the v2 commit record: back to the checkpoint, whole.
        image.wal.truncate(image.wal.len() / 2);
        let rec = PageStore::open(&image).unwrap();
        assert_eq!(rec.catalog.as_deref(), Some(&b"v1"[..]));
        assert_eq!(rec.store.raw_page(a).unwrap()[0], 0);
        assert_eq!(rec.applied_records, 0);
    }

    #[test]
    fn auto_checkpoint_inside_a_commit_keeps_that_commits_catalog() {
        let mut s = PageStore::new();
        let pages = AUTO_CHECKPOINT_BYTES / PAGE_SIZE + 2;
        for i in 0..pages {
            let p = s.allocate();
            s.write(p, &[], |b| b.fill(i as u8 | 1)).unwrap();
        }
        assert!(s.wal_len() >= AUTO_CHECKPOINT_BYTES);
        s.commit(b"big");
        assert_eq!(s.wal_len(), 0, "the commit checkpointed");
        let rec = PageStore::open(&s.crash_image()).unwrap();
        assert_eq!(rec.catalog.as_deref(), Some(&b"big"[..]));
        assert_eq!(rec.store.page_count(), pages as u64);
    }

    /// A store that has lost power makes nothing durable: neither a
    /// checkpoint its next commit triggers nor an explicit one folds the
    /// lost write, or the lost commit's catalog, into the base image.
    #[test]
    fn a_checkpoint_after_the_cut_changes_nothing_on_disk() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, &[], |p| p[0..4].copy_from_slice(b"AAAA"))
            .unwrap();
        s.commit(b"v1");
        // Uncommitted log past the trigger, so the next commit checkpoints.
        for i in 0..=AUTO_CHECKPOINT_BYTES / PAGE_SIZE {
            let p = s.allocate();
            s.write(p, &[], |b| b.fill(i as u8 | 1)).unwrap();
        }
        assert!(s.wal_len() >= AUTO_CHECKPOINT_BYTES);
        s.arm(Some(FaultPlan::new(Fault::PowerLoss { torn_bytes: 0 }, 1)));
        s.write(a, &[], |p| p[0..4].copy_from_slice(b"XXXX"))
            .unwrap();
        s.commit(b"v2");
        let recovered = |s: &PageStore| {
            let rec = PageStore::open(&s.crash_image()).unwrap();
            (rec.store.raw_page(a).unwrap()[0..4].to_vec(), rec.catalog)
        };
        let pre_arm = (b"AAAA".to_vec(), Some(b"v1".to_vec()));
        assert_eq!(recovered(&s), pre_arm, "auto-checkpoint after the cut");
        s.checkpoint();
        assert_eq!(recovered(&s), pre_arm, "explicit checkpoint after the cut");
    }

    /// A fresh page and a reclaimed one are shares of the store's zero
    /// page; the first write copies it, so it stays zero.
    #[test]
    fn fresh_and_reclaimed_pages_share_the_zero_page() {
        let mut s = PageStore::new();
        let a = s.allocate();
        let b = s.allocate();
        s.write(a, &[], |p| p[0] = 1).unwrap();
        s.free_page(a).unwrap();
        assert_eq!(s.allocate_reuse(), a);
        for p in [a, b] {
            assert!(Arc::ptr_eq(&s.pages[p as usize], &s.zero), "page {p}");
        }
        s.write(b, &[], |p| p[0] = 2).unwrap();
        assert!(!Arc::ptr_eq(&s.pages[b as usize], &s.zero));
        assert!(s.zero.iter().all(|&x| x == 0));
        assert_eq!(s.raw_page(a).unwrap(), &[0u8; PAGE_SIZE][..]);
    }

    /// Recovery copies the pages its log writes and no other: every other
    /// page of the booted store is the image's own buffer, a page the log
    /// only allocated is the zero page, and the final checkpoint shares
    /// all of them.
    #[test]
    fn open_copies_only_the_pages_its_log_writes() {
        let mut s = PageStore::new();
        for i in 0..16u8 {
            let p = s.allocate();
            s.write(p, &[], |b| b[0] = i | 1).unwrap();
        }
        s.commit(b"v1");
        s.checkpoint();
        let written = [3usize, 7, 8];
        for &p in &written {
            s.write(p as PageId, &[], |b| b[1] = 0xEE).unwrap();
        }
        let fresh = s.allocate() as usize;
        s.commit(b"v2");
        let image = s.crash_image();
        let rec = PageStore::open(&image).unwrap();
        assert_eq!(rec.applied_records, 5);
        let store = &rec.store;
        for p in 0..image.pages.len() {
            let shared = Arc::ptr_eq(&store.pages[p], &image.pages[p]);
            assert_eq!(shared, !written.contains(&p), "page {p}");
            assert_eq!(store.raw_page(p as PageId), s.raw_page(p as PageId));
        }
        assert!(Arc::ptr_eq(&store.pages[fresh], &store.zero));
        for (p, (base, live)) in store.base_pages.iter().zip(&store.pages).enumerate() {
            assert!(
                Arc::ptr_eq(base, live),
                "recovery's checkpoint copied page {p}"
            );
        }
    }

    /// A checkpoint with nothing written since the previous one replaces
    /// no base buffer.
    #[test]
    fn an_idle_checkpoint_replaces_no_base_page() {
        let mut s = PageStore::new();
        for i in 0..8u8 {
            let p = s.allocate();
            s.write(p, &[], |b| b[9] = i | 1).unwrap();
        }
        s.free_page(2).unwrap();
        s.commit(b"v1");
        s.checkpoint();
        let before = s.base_pages.clone();
        s.clear_cache();
        s.read(5).unwrap();
        s.commit(b"v2");
        s.checkpoint();
        assert_eq!(s.base_pages.len(), before.len());
        for (p, (base, live)) in s.base_pages.iter().zip(&s.pages).enumerate() {
            assert!(Arc::ptr_eq(base, &before[p]), "page {p} was replaced");
            assert!(Arc::ptr_eq(base, live), "page {p} is not the live buffer");
        }
    }

    /// The crash image taken right after a checkpoint is the live file,
    /// buffer for buffer: taking it copies no page.
    #[test]
    fn a_crash_image_after_a_checkpoint_shares_every_page() {
        let mut s = PageStore::new();
        for i in 0..8u8 {
            let p = s.allocate();
            s.write(p, &[], |b| b[i as usize] = i | 1).unwrap();
        }
        s.commit(b"v1");
        s.checkpoint();
        s.write(4, &[], |b| b[100] = 7).unwrap();
        s.free_page(6).unwrap();
        assert_eq!(s.allocate_reuse(), 6);
        s.allocate();
        s.commit(b"v2");
        s.checkpoint();
        let image = s.crash_image();
        assert_eq!(image.pages.len(), s.pages.len());
        for (p, (img, live)) in image.pages.iter().zip(&s.pages).enumerate() {
            assert!(Arc::ptr_eq(img, live), "page {p}");
        }
    }

    /// `open` takes the image's free list only if it names each page of
    /// the file at most once: an id past the file would make the next
    /// `allocate_reuse` index out of bounds, a repeated one would hand one
    /// page to two owners.
    #[test]
    fn open_refuses_a_free_list_past_the_file_or_with_a_repeat() {
        let mut s = PageStore::new();
        for _ in 0..3 {
            s.allocate();
        }
        s.commit(b"v");
        s.checkpoint();
        let image = s.crash_image();
        let cases: [(&[PageId], bool); 6] = [
            (&[], true),
            (&[2, 0], true),
            (&[3], false),
            (&[0, u64::MAX], false),
            (&[1, 1], false),
            (&[0, 2, 0], false),
        ];
        for (free, valid) in cases {
            let mut listed = image.clone();
            listed.free = free.to_vec();
            match PageStore::open(&listed) {
                Ok(mut rec) if valid => {
                    assert_eq!(rec.store.free_pages(), free);
                    if let Some(&top) = free.last() {
                        assert_eq!(rec.store.allocate_reuse(), top);
                    }
                }
                Err(StorageError::CatalogCorrupt(msg)) if !valid => {
                    assert!(msg.contains("free list"), "{msg}")
                }
                other => panic!("free list {free:?}: {other:?}"),
            }
        }
    }

    /// A scan opened on a full default-size pool classifies every page
    /// against "resident when the scan began", at any worker split: the
    /// counters are the ones an independent model predicts from
    /// `pool().contains()` before the scan, and the pool ends in the same
    /// state at every DOP.
    #[test]
    fn full_pool_scan_classifies_against_the_snapshot_at_every_dop() {
        const FILE_PAGES: u64 = 6000;
        // Distinct pages (workers own disjoint ranges, as partitions do):
        // a long run, a backwards jump, a stretch beyond the pool. Every
        // fifth page is read twice by its worker.
        let visit: Vec<PageId> = (100..3000).chain(0..50).chain(4000..6000).collect();
        let twice = |p: PageId| p % 5 == 0;
        let run = |dop: usize| {
            let mut s = PageStore::new();
            for _ in 0..FILE_PAGES {
                s.allocate();
            }
            s.clear_cache();
            // Fill the pool and churn it past capacity, in a scattered
            // order so every shard has evicted.
            for k in 0..5000u64 {
                s.read((k * 7) % FILE_PAGES).unwrap();
            }
            assert_eq!(s.pool().len(), DEFAULT_POOL_PAGES);
            s.reset_stats();
            let resident: Vec<bool> = (0..FILE_PAGES).map(|p| s.pool().contains(p)).collect();
            let scan = s.begin_scan();
            let ios: Vec<ScanIo> = visit
                .chunks(visit.len().div_ceil(dop))
                .enumerate()
                .map(|(pi, ids)| {
                    let mut r = s.reader(&scan, pi as u32);
                    for &p in ids {
                        r.read(p).unwrap();
                        if twice(p) {
                            r.read(p).unwrap();
                        }
                    }
                    r.finish()
                })
                .collect();
            drop(scan);
            s.finish_scan(ios.iter());
            (
                s.stats(),
                s.seek_position(),
                s.pool().keys_mru_order(),
                resident,
            )
        };
        let serial = run(1);
        // The model: one pass, no pool — only the pre-scan residency.
        let mut model = IoStats::default();
        let mut last = None;
        for &p in &visit {
            model.cache_hits += u64::from(twice(p));
            if serial.3[p as usize] {
                model.cache_hits += 1;
                continue;
            }
            model.pages_read += 1;
            if last.is_some_and(|l: PageId| l + 1 == p) {
                model.sequential_reads += 1;
            } else {
                model.random_reads += 1;
            }
            last = Some(p);
        }
        assert!(model.cache_hits > 1000 && model.pages_read > 1000);
        assert_eq!((serial.0, serial.1), (model, last));
        for dop in [2, 4, 8] {
            assert_eq!(run(dop), serial, "dop {dop}");
        }
    }

    #[test]
    fn identical_rewrite_logs_nothing() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, &[], |p| p[0] = 5).unwrap();
        let before = s.stats();
        s.write(a, &[], |p| p[0] = 5).unwrap(); // no byte changes
        let d = s.stats().since(&before);
        assert_eq!(d.pages_written, 1, "the write is still counted");
        assert_eq!(d.wal_records, 0, "but nothing needs logging");
    }

    #[test]
    fn wal_stream_is_dop_invariant_under_scans() {
        // Parallel scans read but never log: the WAL after a scan at any
        // DOP is byte-identical to before.
        let mut s = PageStore::new();
        for _ in 0..8 {
            s.allocate();
        }
        for p in 0..8 {
            s.write(p, &[], |b| b[0] = p as u8).unwrap();
        }
        s.commit(b"v");
        let wal_before = s.crash_image().wal;
        let scan = s.begin_scan();
        let ios: Vec<ScanIo> = (0..4u32)
            .map(|w| {
                let mut r = s.reader(&scan, w);
                for p in (w as u64 * 2)..(w as u64 * 2 + 2) {
                    r.read(p).unwrap();
                }
                r.finish()
            })
            .collect();
        drop(scan);
        s.finish_scan(ios.iter());
        assert_eq!(s.crash_image().wal, wal_before);
    }
}
