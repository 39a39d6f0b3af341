//! The durable image: what a crash keeps, and how a store returns to it.
//!
//! Invariant: **an image opens to its last commit.** The store keeps its
//! base image and its log as one [`DiskImage`], which
//! [`checkpoint`](PageStore::checkpoint) folds the live file into and
//! [`crash_image`](PageStore::crash_image) clones. [`open`](PageStore::open)
//! and [`rollback`](PageStore::rollback) rebuild the live file by one
//! replay: the base image, then the log's records up to its last complete
//! commit record and none after it. A replayed `Alloc` or `Free` is the
//! live store's own transition.

use super::*;

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

impl PageStore {
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
        let image = &mut self.image;
        for (base, live) in image.pages.iter_mut().zip(&self.pages) {
            if !Arc::ptr_eq(base, live) {
                *base = Arc::clone(live);
            }
        }
        let grown = &self.pages[image.pages.len()..];
        image.pages.extend_from_slice(grown);
        image.sums.clone_from(&self.sums);
        image.free.clone_from(&self.free);
        image.catalog.clone_from(&self.last_catalog);
        image.wal.clear();
    }

    /// The durable state a crash right now would preserve: the last
    /// checkpoint's base image plus the surviving log bytes. Feed it to
    /// [`PageStore::open`] to model the reboot. The image shares the base
    /// image's page buffers; later writes to this store copy, so it never
    /// changes.
    pub fn crash_image(&self) -> DiskImage {
        self.image.clone()
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
        let (applied_records, clean_end) = store.replay(image)?;
        store.pool.set_page_count(store.page_count());
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
        let image = std::mem::replace(&mut self.image, GENESIS);
        let replayed = self.replay(&image);
        self.image = image;
        self.image.wal.truncate(replayed?.1);
        Ok(self.last_catalog.clone())
    }

    /// Makes the live file `image`'s base plus the records of its log up
    /// to their last complete commit record, and that commit's catalog
    /// (the base image's when the log holds none) the last one; the
    /// store's own image is left alone. Each page the log writes has its
    /// checksum stamped once, after the last record, not once per record.
    /// A base free list that names a page past the file, or one page
    /// twice, is refused as [`StorageError::CatalogCorrupt`]. Returns the
    /// log frames applied and the byte length of the log through that
    /// commit.
    ///
    /// An edit frame's edits are performed one after the other by the live
    /// write's own transition ([`page::apply_edit`]), so a rebuild reads
    /// the page it rebuilds as the frame's earlier edits left it, and
    /// another page as the log left it.
    fn replay(&mut self, image: &DiskImage) -> Result<(usize, usize)> {
        self.pages.clone_from(&image.pages);
        self.sums.clone_from(&image.sums);
        self.free.clone_from(&image.free);
        self.last_catalog.clone_from(&image.catalog);
        self.free_bits = PageBits::new(self.page_count());
        for &id in &self.free {
            if id >= self.page_count() || !self.free_bits.insert(id) {
                return Err(StorageError::CatalogCorrupt(format!(
                    "disk image free list names page {id} past the {}-page file or twice",
                    self.pages.len()
                )));
            }
        }
        let scanned = wal::scan(&image.wal);
        let last_commit = scanned
            .records
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::Commit { .. }));
        let Some(last) = last_commit else {
            return Ok((0, 0));
        };
        let mut written = Vec::new();
        for (i, (_, rec)) in scanned.records[..=last].iter().enumerate() {
            self.apply_replay(i, rec, &mut written)?;
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
    /// what the live mutation did — an `Alloc`, a `Free` or an `Edit` is
    /// the live store's own transition, refused as `WalCorrupt` where the
    /// live call could not have made it — except that a written page's
    /// checksum is left to the caller, who gets the page's index in
    /// `written`, and that a write copies a page still shared with the
    /// image without logging a diff. `idx` only feeds error reports.
    fn apply_replay(
        &mut self,
        idx: usize,
        rec: &WalRecord<'_>,
        written: &mut Vec<usize>,
    ) -> Result<()> {
        let corrupt = |msg: String| StorageError::WalCorrupt { offset: idx, msg };
        match rec {
            WalRecord::Alloc { page } => {
                if !self.take_page(*page) {
                    return Err(corrupt(format!(
                        "alloc of page {page} matches neither the file end nor the free-list top"
                    )));
                }
            }
            WalRecord::Free { page } => {
                if self.release_page(*page).is_err() {
                    let msg = format!("free of page {page}, unallocated or already free");
                    return Err(corrupt(msg));
                }
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
            WalRecord::Edit { page, edit } => {
                let p = *page as usize;
                if p >= self.pages.len() {
                    return Err(corrupt(format!("edit of page {page}, past the file")));
                }
                // Out of the file while it is edited: a rebuild's sources
                // are the other pages.
                let mut target = std::mem::replace(&mut self.pages[p], Arc::clone(&self.zero));
                let source = |src: PageId| self.live_page(src);
                let done = page::apply_edit(Arc::make_mut(&mut target), *page, edit, &source);
                self.pages[p] = target;
                if let Err(e) = done {
                    return Err(corrupt(format!("edit of page {page}: {e}")));
                }
                written.push(p);
            }
            WalRecord::Commit { .. } => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{Piece, SlotEdit};
    use crate::store::tests::distinct_pages;
    use std::borrow::Cow;

    #[test]
    fn commit_crash_recover_round_trips() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, |p| p[10..14].copy_from_slice(b"DATA")).unwrap();
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
        s.write(a, |p| p[0] = 1).unwrap();
        s.commit(b"v1");
        s.write(a, |p| p[0] = 2).unwrap(); // never committed
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
            s.write(a, |p| p[0] = 0xA1).unwrap();
            s.write(b, |p| p[0] = 0xB1).unwrap();
            s.commit(b"v1");
            s.arm(plan);
            // Victim: update both pages, free one, allocate a reuse.
            s.write(a, |p| p[0] = 0xA2).unwrap();
            s.free_page(b).unwrap();
            let c = s.allocate_reuse();
            assert_eq!(c, b, "LIFO reuse picks the freed page");
            s.write(c, |p| p[0] = 0xC2).unwrap();
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
            s.write(a, |p| p[0] = 0xA1).unwrap();
            s.write(b, |p| p[0] = 0xB1).unwrap();
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

    /// Replay carries the free list's pages: a log that frees a page
    /// already free — listed by the checkpoint or freed earlier in the log
    /// — is refused, because two later allocations would hand that page
    /// to two owners; a page freed, reallocated and freed again replays.
    /// The live store refuses such a free before logging it, so the bad
    /// frame is appended by hand.
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
            wal::append_record(&mut s.image.wal, s.next_lsn, &WalRecord::Free { page: 1 });
            s.next_lsn += 1;
            s.commit(b"v2");
            match PageStore::open(&s.crash_image()) {
                Err(StorageError::WalCorrupt { msg, .. }) => {
                    assert!(msg.contains("already free"), "{msg}")
                }
                other => panic!("checkpoint between: {checkpoint_between}: {other:?}"),
            }
        }
    }

    /// A logged rebuild that takes records from a page past the file, a
    /// page on the free list, a page of another kind, or slots past the
    /// source's count, is refused by replay as `WalCorrupt`, never a panic
    /// — and so is an edit of a page past the file or of one that is not a
    /// B-tree page; a rebuild from a live page's slots replays as a copy of
    /// its records.
    #[test]
    fn replay_refuses_a_rebuild_from_past_the_file_or_a_free_page() {
        let leaf = page::page_type::BTREE_LEAF;
        let mut source = vec![0u8; PAGE_SIZE];
        let records = (0..4u8).map(|k| Piece::Bytes(Cow::Owned(vec![k + 1; 40])));
        let build = SlotEdit::Rebuild(leaf, None, records.collect());
        page::apply_edit(&mut source, 1, &build, &|_| None).unwrap();
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
        let rebuild = |page, src, slots| WalRecord::Edit {
            page,
            edit: SlotEdit::Rebuild(leaf, None, vec![Piece::Slots(src, slots)]),
        };
        let internal = WalRecord::Edit {
            page: 0,
            edit: SlotEdit::Rebuild(
                page::page_type::BTREE_INTERNAL,
                None,
                vec![Piece::Slots(1, 0..1)],
            ),
        };
        let insert = WalRecord::Edit {
            page: 0,
            edit: SlotEdit::Insert(0, Cow::Borrowed(b"12345678")),
        };
        for (what, records) in [
            ("past the file", vec![rebuild(0, 2, 0..1)]),
            ("past the file", vec![rebuild(0, u64::MAX, 0..1)]),
            (
                "free",
                vec![WalRecord::Free { page: 1 }, rebuild(0, 1, 0..1)],
            ),
            ("a leaf, as an internal node", vec![internal]),
            ("past its count", vec![rebuild(0, 1, 2..5)]),
            ("a page of zeros", vec![insert]),
            ("an edit past the file", vec![rebuild(2, 1, 0..1)]),
        ] {
            match PageStore::open(&image_of(&records)) {
                Err(StorageError::WalCorrupt { .. }) => {}
                other => panic!("a rebuild from {what}: {other:?}"),
            }
        }
        let mut rec = PageStore::open(&image_of(&[rebuild(0, 1, 1..3)])).unwrap();
        let page = rec.store.read(0).unwrap();
        let v = page::SlottedRead::open(page, leaf, 0).unwrap();
        assert_eq!(v.slot_count(), 2);
        assert_eq!(
            (v.record(0).unwrap(), v.record(1).unwrap()),
            (&[2u8; 40][..], &[3u8; 40][..])
        );
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
            s.write(2, |b| b[5] ^= 0xFF).unwrap();
            s.commit(b"v2");
            let committed = (s.pages.clone(), s.sums.clone(), s.free.clone());
            let image = s.crash_image();
            s.write(1, |b| b[9] ^= 0x0F).unwrap();
            s.write(2, |b| b[7] = 3).unwrap();
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
            s.write(4, |b| b[0] = 9).unwrap();
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
        s.write(a, |p| p[0] = 9).unwrap();
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
        ///
        /// A rollback after a random uncommitted tail of the same ops
        /// returns the live file — pages, checksums, free list in its order
        /// — and the crash image to the last commit, and the rolled-back
        /// store allocates next what a store booted from its image does.
        #[test]
        fn checkpoint_image_equals_the_live_file(
            ops in proptest::collection::vec(
                (0u8..10, proptest::prelude::any::<u16>(), 0usize..PAGE_SIZE, 1u8..=255),
                1..120,
            ),
            tail in proptest::collection::vec(
                (0u8..10, proptest::prelude::any::<u16>(), 0usize..PAGE_SIZE, 1u8..=255),
                0..40,
            ),
            snap_at in proptest::prelude::any::<u16>(),
        ) {
            let mut s = PageStore::new();
            let assert_image_is_live = |s: &PageStore| {
                let image = s.crash_image();
                assert!(image.wal.is_empty());
                assert_eq!((&image.pages, &image.sums, &image.free), (&s.pages, &s.sums, &s.free));
            };
            let step = |s: &mut PageStore, i: usize, (kind, pick, at, val): (u8, u16, usize, u8)| {
                let page = (!s.pages.is_empty()).then(|| u64::from(pick) % s.page_count());
                match (kind, page) {
                    (0, _) => drop(s.allocate()),
                    (1, _) => drop(s.allocate_reuse()),
                    (2, Some(p)) if !s.free.contains(&p) => s.free_page(p).unwrap(),
                    (3, _) => s.commit(&[i as u8]),
                    (4, _) => {
                        s.checkpoint();
                        assert_image_is_live(s);
                    }
                    (_, Some(p)) => s
                        .write(p, |b| {
                            b[at] = b[at].wrapping_add(val);
                            b[PAGE_SIZE - 1 - at] ^= val;
                        })
                        .unwrap(),
                    _ => {}
                }
            };
            let snap_at = usize::from(snap_at) % ops.len();
            let mut snapshot = None;
            for (i, &op) in ops.iter().enumerate() {
                if i == snap_at {
                    let image = s.crash_image();
                    let bytes: Vec<Vec<u8>> = image.pages.iter().map(|p| p.to_vec()).collect();
                    snapshot = Some((image, bytes));
                }
                step(&mut s, i, op);
            }
            s.commit(b"end");
            let committed = (s.pages.clone(), s.sums.clone(), s.free.clone(), s.crash_image());
            for (i, &op) in tail.iter().enumerate() {
                // A commit or a checkpoint would make the tail durable.
                if !matches!(op.0, 3 | 4) {
                    step(&mut s, i, op);
                }
            }
            assert_eq!(s.rollback().unwrap().as_deref(), Some(&b"end"[..]));
            assert_eq!((&s.pages, &s.sums, &s.free), (&committed.0, &committed.1, &committed.2));
            assert_eq!(s.crash_image(), committed.3);
            let mut rec = PageStore::open(&s.crash_image()).unwrap();
            assert_eq!((&rec.store.pages, &rec.store.sums, &rec.store.free), (&s.pages, &s.sums, &s.free));
            assert_eq!(rec.catalog.as_deref(), Some(&b"end"[..]));
            assert_image_is_live(&rec.store);
            assert_eq!(s.allocate_reuse(), rec.store.allocate_reuse());
            s.checkpoint();
            rec.store.checkpoint();
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
        s.write(a, |p| p[0] = 1).unwrap();
        s.commit(b"v2");
        s.write(a, |p| p[0] = 2).unwrap(); // uncommitted tail
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
            s.write(p, |b| b.fill(i as u8 | 1)).unwrap();
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
        s.write(a, |p| p[0..4].copy_from_slice(b"AAAA")).unwrap();
        s.commit(b"v1");
        // Uncommitted log past the trigger, so the next commit checkpoints.
        for i in 0..=AUTO_CHECKPOINT_BYTES / PAGE_SIZE {
            let p = s.allocate();
            s.write(p, |b| b.fill(i as u8 | 1)).unwrap();
        }
        assert!(s.wal_len() >= AUTO_CHECKPOINT_BYTES);
        s.arm(Some(FaultPlan::new(Fault::PowerLoss { torn_bytes: 0 }, 1)));
        s.write(a, |p| p[0..4].copy_from_slice(b"XXXX")).unwrap();
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

    /// Recovery copies the pages its log writes and no other: every other
    /// page of the booted store is the image's own buffer, a page the log
    /// only allocated is the zero page, and the final checkpoint shares
    /// all of them.
    #[test]
    fn open_copies_only_the_pages_its_log_writes() {
        let mut s = PageStore::new();
        for i in 0..16u8 {
            let p = s.allocate();
            s.write(p, |b| b[0] = i | 1).unwrap();
        }
        s.commit(b"v1");
        s.checkpoint();
        let written = [3usize, 7, 8];
        for &p in &written {
            s.write(p as PageId, |b| b[1] = 0xEE).unwrap();
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
        for (p, (base, live)) in store.image.pages.iter().zip(&store.pages).enumerate() {
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
            s.write(p, |b| b[9] = i | 1).unwrap();
        }
        s.free_page(2).unwrap();
        s.commit(b"v1");
        s.checkpoint();
        let before = s.image.pages.clone();
        s.clear_cache();
        s.read(5).unwrap();
        s.commit(b"v2");
        s.checkpoint();
        assert_eq!(s.image.pages.len(), before.len());
        for (p, (base, live)) in s.image.pages.iter().zip(&s.pages).enumerate() {
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
            s.write(p, |b| b[i as usize] = i | 1).unwrap();
        }
        s.commit(b"v1");
        s.checkpoint();
        s.write(4, |b| b[100] = 7).unwrap();
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
        // Buffer recycling never reaches the image. The first write of a
        // page the image shares leaves the image its buffer; the second
        // recycles the buffer the first installed, and the third copies
        // the page into it.
        let bytes = |pages: &[Arc<[u8]>]| pages.iter().map(|p| p.to_vec()).collect::<Vec<_>>();
        let (want, opened) = (bytes(&image.pages), PageStore::open(&image).unwrap());
        s.write(4, |b| b[101] = 1).unwrap();
        let first = Arc::as_ptr(&s.pages[4]);
        s.write(4, |b| b[102] = 2).unwrap();
        s.write(4, |b| b[103] = 3).unwrap();
        assert_eq!(Arc::as_ptr(&s.pages[4]), first, "the spare was not reused");
        assert_eq!(bytes(&image.pages), want);
        let again = PageStore::open(&image).unwrap();
        assert_eq!(bytes(&again.store.pages), bytes(&opened.store.pages));
        assert_eq!(again.catalog, opened.catalog);
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
}
