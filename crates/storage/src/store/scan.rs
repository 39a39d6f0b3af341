//! The scan reader: the page-in step every read ends in, and the
//! share-nothing read handles of a parallel scan's workers.
//!
//! Invariant: **simulated I/O is the same at every DOP.** Every page read
//! ends in one step, `ScanIo::page_in`: a hit is counted; a cold read is
//! counted, classified sequential or random against the last physical
//! read, ticks an armed [`Fault::ReadFault`] through the bounded retry and
//! has its checksum compared. The two read paths differ only in who
//! decides hit or miss:
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

use super::*;
use sqlarray_core::lifecycle::QueryCtx;

/// How many times a cold page read — serial or a scan worker's —
/// re-attempts a physical read that hit a (simulated) transient fault — a
/// [`Fault::ReadFault`] — before surfacing [`StorageError::ReadFaulted`].
/// The bound keeps a persistently failing device from wedging a statement;
/// the retries themselves are counted in [`IoStats::transient_retries`].
pub const MAX_READ_RETRIES: u32 = 3;

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
    pub(super) fn page_in(
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

impl PageStore {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::distinct_pages;

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
    fn scan_reader_verifies_checksum_on_cold_pages() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, |b| b[0] = 1).unwrap();
        s.corrupt_byte(p, 50);
        s.clear_cache();
        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        assert!(matches!(
            r.read(p),
            Err(StorageError::PageCorrupt { page: 0, .. })
        ));
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
    fn wal_stream_is_dop_invariant_under_scans() {
        // Parallel scans read but never log: the WAL after a scan at any
        // DOP is byte-identical to before.
        let mut s = PageStore::new();
        for _ in 0..8 {
            s.allocate();
        }
        for p in 0..8 {
            s.write(p, |b| b[0] = p as u8).unwrap();
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
