//! The live, concurrent buffer pool of [`crate::store::PageStore`]: a
//! lock-striped sharded LRU over page ids.
//!
//! ## Why recency is a *logical timestamp*, not arrival order
//!
//! A classic LRU list orders pages by wall-clock arrival, which makes the
//! end-of-scan pool state depend on thread scheduling the moment two scan
//! workers share a shard. This pool instead orders every resident page by
//! a **logical stamp** assigned deterministically by the access plan:
//!
//! * serial accesses stamp with a monotonically increasing epoch;
//! * a parallel scan takes *one* epoch and stamps each touch with
//!   `(epoch, partition, sequence-within-partition)` — exactly the order
//!   a serial scan over the same partitions would have touched the pages.
//!
//! Eviction always removes the minimum-stamp page of the full shard. With
//! that rule the survivor set of a shard is the top-`capacity` stamps of
//! everything inserted, *regardless of arrival order* (an eviction can
//! never claim a page while any lower-stamped page is resident), so pool
//! residency — and the recency order itself — after a parallel scan is
//! bit-identical to the serial run at every DOP, with no post-hoc replay.
//!
//! Shards are selected by `page_id % shards`; each shard is an
//! independently locked stamp-ordered set, so concurrent readers and
//! writers (scan workers, the parallel bulk loader) contend only when
//! they touch the same stripe. A caller holding the pool exclusively
//! (`&mut`, the store's serial path) reaches a shard without locking it.
//!
//! ## What a hit and a miss cost
//!
//! A shard is indexed by the page's position in its stripe, `id / shards`:
//! one residency bit and one stamp per page of the file it could hold.
//! The bit *is* membership, so a scan's start-of-scan snapshot
//! (`ShardedLruPool::snapshot`) copies `page_count / 64` words, and a
//! hit is a bit test, a stamp store and a push onto the shard's min-heap
//! of `(stamp, page)` — nothing hashed, no ordered map rebalanced. The
//! heap is lazy: a re-stamp or an eviction leaves the page's older entries
//! behind, an entry counts only while its page is resident under exactly
//! that stamp, and a miss on a full shard pops stale entries until the top
//! one counts — that page is the minimum-stamp victim. Once the heap holds
//! more than twice the shard's capacity plus `HEAP_SLACK` entries it is
//! rebuilt from the entries that count, so it stays within that bound and
//! the rebuild costs O(1) amortized per push.

use crate::page::PageId;
use sqlarray_core::sync::{get_mut_unpoisoned, lock_unpoisoned};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// Shard count for pools large enough to stripe. Pools smaller than
/// [`MIN_CAPACITY_TO_SHARD`] pages use a single shard so tiny test pools
/// keep exact global-LRU semantics.
pub(crate) const POOL_SHARDS: usize = 16;

/// Pools below this capacity collapse to one shard.
pub(crate) const MIN_CAPACITY_TO_SHARD: usize = 64;

/// Entries a shard's heap may hold beyond twice its capacity before it is
/// rebuilt from the entries that still count.
const HEAP_SLACK: usize = 32;

/// A deterministic recency stamp: higher = more recently used.
///
/// Layout: `epoch << 64 | partition << 32 | sequence`. Serial accesses use
/// `(epoch, 0, 0)` with a fresh epoch per touch; one parallel scan shares
/// a single epoch across its workers and orders touches by
/// `(partition, sequence)` — the serial visit order.
pub(crate) type PoolStamp = u128;

/// Builds a [`PoolStamp`] from its three components.
#[inline]
pub(crate) fn pool_stamp(epoch: u64, partition: u32, seq: u32) -> PoolStamp {
    ((epoch as u128) << 64) | ((partition as u128) << 32) | seq as u128
}

/// A set of page ids below a fixed page count, one bit each. Page `id` is
/// bit `id / stride` of stripe `id % stride` and each stripe owns
/// `per_stripe` consecutive words: a pool snapshot is its shards' bitmaps
/// laid end to end, a plain set (`new`) is the `stride == 1` case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageBits {
    words: Vec<u64>,
    stride: u64,
    per_stripe: usize,
}

impl PageBits {
    /// The empty set over page ids `0..pages`.
    pub(crate) fn new(pages: u64) -> PageBits {
        let per_stripe = pages.div_ceil(64) as usize;
        PageBits {
            words: vec![0; per_stripe],
            stride: 1,
            per_stripe,
        }
    }

    /// Widens a set built by [`new`](Self::new) to page ids `0..pages`,
    /// keeping the ids it holds: the live store's free-list set grows with
    /// its file.
    pub(crate) fn grow(&mut self, pages: u64) {
        assert_eq!(self.stride, 1, "only a set built by `new` grows");
        let words = pages.div_ceil(64) as usize;
        if words > self.per_stripe {
            self.words.resize(words, 0);
            self.per_stripe = words;
        }
    }

    /// Word index and bit mask of `id`. Panics beyond the page count
    /// (rounded up to whole words): callers range-check ids against the
    /// file first, and a stray index would land in another stripe.
    #[inline]
    fn slot(&self, id: PageId) -> (usize, u64) {
        let (stripe, local) = ((id % self.stride) as usize, id / self.stride);
        let word = (local / 64) as usize;
        assert!(word < self.per_stripe, "page {id} is beyond the bitmap");
        (stripe * self.per_stripe + word, 1 << (local % 64))
    }

    /// True when `id` is in the set.
    #[inline]
    pub(crate) fn contains(&self, id: PageId) -> bool {
        let (word, bit) = self.slot(id);
        self.words[word] & bit != 0
    }

    /// Adds `id`; returns `true` when it was not yet in the set.
    #[inline]
    pub(crate) fn insert(&mut self, id: PageId) -> bool {
        let (word, bit) = self.slot(id);
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Takes `id` out of the set.
    #[inline]
    pub(crate) fn remove(&mut self, id: PageId) {
        let (word, bit) = self.slot(id);
        self.words[word] &= !bit;
    }
}

/// One lock stripe: residency bits, per-page stamps and a lazy min-heap
/// over them, all indexed by `id / stride`.
#[derive(Debug, Default)]
struct PoolShard {
    /// Bit `id / stride` is set iff `id` is resident; `stride` is the
    /// owning pool's shard count.
    resident: Vec<u64>,
    /// Entry `id / stride` is `id`'s current stamp while it is resident
    /// (stale otherwise); one entry per bit of `resident`.
    stamps: Vec<PoolStamp>,
    /// `(stamp, page)` pushed at every insert and re-stamp, minimum first;
    /// an entry counts iff its page is resident with exactly that stamp.
    heap: BinaryHeap<Reverse<(PoolStamp, PageId)>>,
    /// Resident pages.
    len: usize,
    stride: u64,
    capacity: usize,
}

impl PoolShard {
    /// `id`'s slot in `stamps` and its word and mask in `resident`.
    #[inline]
    fn slot(&self, id: PageId) -> (usize, usize, u64) {
        let local = id / self.stride;
        (local as usize, (local / 64) as usize, 1 << (local % 64))
    }

    #[inline]
    fn is_resident(&self, id: PageId) -> bool {
        let (_, word, bit) = self.slot(id);
        self.resident.get(word).is_some_and(|w| w & bit != 0)
    }

    /// True when heap entry `(stamp, id)` still counts.
    fn counts(&self, stamp: PoolStamp, id: PageId) -> bool {
        self.is_resident(id) && self.stamps[self.slot(id).0] == stamp
    }

    /// Most entries the heap holds after any operation.
    fn heap_bound(&self) -> usize {
        2 * self.capacity + HEAP_SLACK
    }

    /// Records `(stamp, id)` as `id`'s current entry, rebuilding the heap
    /// from the entries that count once it passes its bound.
    fn push(&mut self, id: PageId, stamp: PoolStamp) {
        self.heap.push(Reverse((stamp, id)));
        if self.heap.len() > self.heap_bound() {
            let mut heap = std::mem::take(&mut self.heap);
            heap.retain(|&Reverse((s, p))| self.counts(s, p));
            self.heap = heap;
        }
    }

    /// Sizes the bitmap and the stamps for `words` words of pages.
    fn resize(&mut self, words: usize) {
        self.resident.resize(words, 0);
        self.stamps.resize(words * 64, 0);
    }

    fn clear(&mut self) {
        self.resident.fill(0);
        self.heap.clear();
        self.len = 0;
    }

    fn touch(&mut self, id: PageId, stamp: PoolStamp) -> bool {
        if !self.is_resident(id) {
            return false;
        }
        // A stale stamp (older than the page's current one) must not
        // demote the page: under concurrent touches the maximum stamp
        // wins, matching the serial outcome where the latest touch is the
        // one that sticks.
        let local = self.slot(id).0;
        if stamp > self.stamps[local] {
            self.stamps[local] = stamp;
            self.push(id, stamp);
        }
        true
    }

    /// The minimum-stamp resident page, its stale heap entries popped.
    fn min_resident(&mut self) -> Option<(PoolStamp, PageId)> {
        while let Some(&Reverse((stamp, id))) = self.heap.peek() {
            if self.counts(stamp, id) {
                return Some((stamp, id));
            }
            self.heap.pop();
        }
        None
    }

    /// Makes `id` resident under `stamp`, evicting the minimum-stamp page
    /// of a full shard.
    fn insert(&mut self, id: PageId, stamp: PoolStamp) {
        if self.len >= self.capacity {
            #[expect(
                clippy::expect_used,
                reason = "every resident page has a counting heap entry (pushed at insert and re-stamp, kept by every rebuild), and len >= capacity >= 1 here, so one is found"
            )]
            let (victim_stamp, victim) =
                self.min_resident().expect("full shard has a minimum stamp");
            if stamp < victim_stamp {
                // The newcomer is already the least-recently-used entry:
                // in serial stamp order it would have been inserted first
                // and evicted by now. Rejecting it (it "evicts itself")
                // keeps the survivor set equal to the top-`capacity`
                // stamps regardless of arrival order — the property that
                // makes the live pool DOP-invariant.
                return;
            }
            self.heap.pop();
            self.flip(victim);
            self.len -= 1;
        }
        let local = self.slot(id).0;
        self.stamps[local] = stamp;
        self.flip(id);
        self.len += 1;
        self.push(id, stamp);
    }

    /// Touches `id` if resident, inserts it otherwise; `true` on a hit.
    fn touch_or_insert(&mut self, id: PageId, stamp: PoolStamp) -> bool {
        if self.touch(id, stamp) {
            true
        } else {
            self.insert(id, stamp);
            false
        }
    }

    /// Toggles `id`'s residency bit, wherever it joins or leaves the shard.
    fn flip(&mut self, id: PageId) {
        let (_, word, bit) = self.slot(id);
        self.resident[word] ^= bit;
    }

    /// `(stamp, page)` of every resident page, in page order; `stripe` is
    /// this shard's index in its pool.
    fn entries(&self, stripe: u64) -> impl Iterator<Item = (PoolStamp, PageId)> + '_ {
        self.resident
            .iter()
            .enumerate()
            .flat_map(move |(w, &word)| {
                (0..64u64)
                    .filter(move |b| word & (1 << b) != 0)
                    .map(move |b| {
                        let local = w as u64 * 64 + b;
                        (self.stamps[local as usize], local * self.stride + stripe)
                    })
            })
    }
}

/// Locks one pool shard, funneling every acquisition through a single
/// annotated site. Poison recovery (the repo-wide policy in
/// [`sqlarray_core::sync`]) is sound here because the pool is pure cache
/// accounting: scan-worker panics are caught at the fan-out boundary
/// before they can unwind through pool code, and even a stripe whose
/// recency bookkeeping was torn by a panic inside the pool itself can
/// only mis-prioritize evictions, never corrupt page data.
fn lock_shard(m: &Mutex<PoolShard>) -> std::sync::MutexGuard<'_, PoolShard> {
    lock_unpoisoned(m)
}

/// A fixed-capacity, lock-striped, stamp-ordered LRU set of pages — the
/// live buffer pool shared by the serial path and all scan workers.
#[derive(Debug)]
pub struct ShardedLruPool {
    shards: Vec<Mutex<PoolShard>>,
    /// Pages in the file this pool fronts.
    pages: u64,
}

impl ShardedLruPool {
    /// Creates a pool holding at most `capacity` pages (≥ 1), striped over
    /// [`POOL_SHARDS`] shards when the capacity is large enough for each
    /// stripe to hold a meaningful number of pages.
    pub(crate) fn new(capacity: usize) -> ShardedLruPool {
        let capacity = capacity.max(1);
        let n = if capacity >= MIN_CAPACITY_TO_SHARD {
            POOL_SHARDS
        } else {
            1
        };
        let shards = (0..n)
            .map(|i| {
                // Distribute the capacity as evenly as page-id striping
                // distributes the pages: the first `capacity % n` shards
                // take one extra slot.
                let cap = capacity / n + usize::from(i < capacity % n);
                Mutex::new(PoolShard {
                    capacity: cap.max(1),
                    stride: n as u64,
                    ..PoolShard::default()
                })
            })
            .collect();
        ShardedLruPool { shards, pages: 0 }
    }

    /// Words in every shard's residency bitmap.
    fn words_per_shard(&self) -> usize {
        (self.pages.div_ceil(self.shards.len() as u64)).div_ceil(64) as usize
    }

    /// Sizes the residency bitmaps and stamps for a file of `pages` pages;
    /// the store calls this as the file grows (it never shrinks). Only ids
    /// below `pages` may then be offered to the pool.
    pub(crate) fn set_page_count(&mut self, pages: u64) {
        let before = self.words_per_shard();
        self.pages = self.pages.max(pages);
        let words = self.words_per_shard();
        if words > before {
            for s in &mut self.shards {
                get_mut_unpoisoned(s).resize(words);
            }
        }
    }

    fn shard_index(&self, id: PageId) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// Panics when `id` is not below the [page count](Self::set_page_count):
    /// the bitmaps and stamps cover the file.
    fn check_in_file(&self, id: PageId) {
        assert!(
            id < self.pages,
            "page {id} offered to a pool sized for {} pages",
            self.pages
        );
    }

    /// Number of lock stripes.
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// True when `id` is resident (no stamp refresh).
    #[cfg(test)]
    pub(crate) fn contains(&self, id: PageId) -> bool {
        lock_shard(&self.shards[self.shard_index(id)]).is_resident(id)
    }

    /// Number of resident pages (sums the shards; a racing snapshot under
    /// concurrent access, exact when quiescent).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).len).sum()
    }

    /// True when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// If `id` is resident, refreshes its stamp (keeping the newer of the
    /// current and offered stamps) and returns `true`.
    #[cfg(test)]
    fn touch(&self, id: PageId, stamp: PoolStamp) -> bool {
        lock_shard(&self.shards[self.shard_index(id)]).touch(id, stamp)
    }

    /// Touches `id` if resident, inserts it otherwise — one lock round
    /// trip for the fault-in path. Returns `true` when the page was
    /// already resident. Panics when `id` is not below the
    /// [page count](Self::set_page_count): the bitmaps cover the file.
    pub(crate) fn touch_or_insert(&self, id: PageId, stamp: PoolStamp) -> bool {
        self.check_in_file(id);
        lock_shard(&self.shards[self.shard_index(id)]).touch_or_insert(id, stamp)
    }

    /// [`touch_or_insert`](Self::touch_or_insert) through an exclusive
    /// borrow: the same shard logic, reached without taking its lock.
    pub(crate) fn touch_or_insert_mut(&mut self, id: PageId, stamp: PoolStamp) -> bool {
        self.check_in_file(id);
        let i = self.shard_index(id);
        get_mut_unpoisoned(&mut self.shards[i]).touch_or_insert(id, stamp)
    }

    /// Removes every resident page (`DBCC DROPCLEANBUFFERS`).
    pub(crate) fn clear(&self) {
        for s in &self.shards {
            lock_shard(s).clear();
        }
    }

    /// The pages resident right now, captured shard by shard (each shard
    /// atomically; exact when quiescent).
    pub(crate) fn snapshot(&self) -> PageBits {
        let per_stripe = self.words_per_shard();
        let mut words = Vec::with_capacity(self.shards.len() * per_stripe);
        for s in &self.shards {
            words.extend_from_slice(&lock_shard(s).resident);
        }
        PageBits {
            words,
            stride: self.shards.len() as u64,
            per_stripe,
        }
    }

    /// Resident pages from most- to least-recently stamped, merged across
    /// shards — the deterministic global recency order (for tests and the
    /// DOP-invariance property test).
    pub fn keys_mru_order(&self) -> Vec<PageId> {
        let mut all: Vec<(PoolStamp, PageId)> = Vec::with_capacity(self.len());
        for (i, s) in self.shards.iter().enumerate() {
            all.extend(lock_shard(s).entries(i as u64));
        }
        all.sort_unstable_by_key(|&(stamp, _)| Reverse(stamp));
        all.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// The shard this pool had before its stamps moved into dense arrays:
    /// page → stamp in a hash map, stamp → page in an ordered map. Kept as
    /// the oracle the property test below holds the pool to.
    #[derive(Debug)]
    struct ModelShard {
        stamps: HashMap<PageId, PoolStamp>,
        by_stamp: BTreeMap<PoolStamp, PageId>,
        capacity: usize,
    }

    impl ModelShard {
        fn touch(&mut self, id: PageId, stamp: PoolStamp) -> bool {
            match self.stamps.get_mut(&id) {
                Some(cur) => {
                    if stamp > *cur {
                        let old = *cur;
                        *cur = stamp;
                        self.by_stamp.remove(&old);
                        self.by_stamp.insert(stamp, id);
                    }
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, id: PageId, stamp: PoolStamp) {
            if self.stamps.len() >= self.capacity {
                let (&victim_stamp, &victim) = self.by_stamp.iter().next().unwrap();
                if stamp < victim_stamp {
                    return;
                }
                self.by_stamp.remove(&victim_stamp);
                self.stamps.remove(&victim);
            }
            self.stamps.insert(id, stamp);
            self.by_stamp.insert(stamp, id);
        }
    }

    /// The pool over [`ModelShard`]s: same striping, same capacities.
    struct ModelPool {
        shards: Vec<ModelShard>,
    }

    impl ModelPool {
        fn like(pool: &ShardedLruPool) -> ModelPool {
            let shards = pool
                .shards
                .iter()
                .map(|s| ModelShard {
                    stamps: HashMap::new(),
                    by_stamp: BTreeMap::new(),
                    capacity: lock_shard(s).capacity,
                })
                .collect();
            ModelPool { shards }
        }

        fn shard(&mut self, id: PageId) -> &mut ModelShard {
            let n = self.shards.len() as u64;
            &mut self.shards[(id % n) as usize]
        }

        fn touch(&mut self, id: PageId, stamp: PoolStamp) -> bool {
            self.shard(id).touch(id, stamp)
        }

        fn touch_or_insert(&mut self, id: PageId, stamp: PoolStamp) -> bool {
            let shard = self.shard(id);
            shard.touch(id, stamp) || {
                shard.insert(id, stamp);
                false
            }
        }

        fn clear(&mut self) {
            for s in &mut self.shards {
                s.stamps.clear();
                s.by_stamp.clear();
            }
        }

        fn len(&self) -> usize {
            self.shards.iter().map(|s| s.stamps.len()).sum()
        }

        fn contains(&self, id: PageId) -> bool {
            let n = self.shards.len() as u64;
            self.shards[(id % n) as usize].stamps.contains_key(&id)
        }

        fn keys_mru_order(&self) -> Vec<PageId> {
            let mut all: Vec<(PoolStamp, PageId)> = self
                .shards
                .iter()
                .flat_map(|s| s.by_stamp.iter().map(|(&st, &id)| (st, id)))
                .collect();
            all.sort_unstable_by_key(|&(stamp, _)| Reverse(stamp));
            all.into_iter().map(|(_, id)| id).collect()
        }
    }

    /// A pool of `capacity` pages over a `pages`-page file.
    fn pool_over(capacity: usize, pages: u64) -> ShardedLruPool {
        let mut pool = ShardedLruPool::new(capacity);
        pool.set_page_count(pages);
        pool
    }

    fn serial_stamps() -> impl FnMut() -> PoolStamp {
        let mut e = 0u64;
        move || {
            e += 1;
            pool_stamp(e, 0, 0)
        }
    }

    #[test]
    fn small_pool_behaves_like_one_lru() {
        let pool = pool_over(3, 8);
        assert_eq!(pool.shard_count(), 1);
        let mut next = serial_stamps();
        for id in 1..=3 {
            assert!(!pool.touch_or_insert(id, next()));
        }
        assert!(pool.touch(1, next())); // 1 becomes MRU, 2 is LRU
        assert!(!pool.touch_or_insert(4, next())); // evicts 2
        assert!(!pool.contains(2));
        assert_eq!(pool.keys_mru_order(), vec![4, 1, 3]);
    }

    #[test]
    fn large_pool_stripes() {
        let pool = pool_over(1024, 512);
        assert_eq!(pool.shard_count(), POOL_SHARDS);
        let mut next = serial_stamps();
        for id in 0..512u64 {
            pool.touch_or_insert(id, next());
        }
        assert_eq!(pool.len(), 512);
        assert!(pool.contains(17));
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.snapshot(), pool_over(1024, 512).snapshot());
    }

    #[test]
    fn capacity_distributes_across_shards() {
        // 100 pages over 16 shards: 4 shards of 7, 12 of 6.
        let pool = pool_over(100, 10_000);
        let mut next = serial_stamps();
        for id in 0..10_000u64 {
            pool.touch_or_insert(id, next());
        }
        assert_eq!(pool.len(), 100);
    }

    #[test]
    fn survivors_are_stamp_order_invariant() {
        // Insert the same stamped pages in two different arrival orders;
        // the survivor set and recency order must be identical — the
        // property the parallel scan path relies on.
        let stamps: Vec<(PageId, PoolStamp)> = (0..200u64)
            .map(|i| (i * 16, pool_stamp(7, 0, i as u32))) // one shard
            .collect();
        let forward = pool_over(32, 200 * 16);
        for &(id, st) in &stamps {
            forward.touch_or_insert(id, st);
        }
        let shuffled = pool_over(32, 200 * 16);
        // Deterministic shuffle: stride through the list.
        for k in 0..stamps.len() {
            let (id, st) = stamps[(k * 67) % stamps.len()];
            shuffled.touch_or_insert(id, st);
        }
        assert_eq!(forward.keys_mru_order(), shuffled.keys_mru_order());
        assert_eq!(forward.snapshot(), shuffled.snapshot());
    }

    #[test]
    fn stale_stamp_does_not_demote() {
        let pool = pool_over(8, 8);
        pool.touch_or_insert(1, pool_stamp(5, 0, 0));
        // An older stamp arriving late must not roll recency back.
        assert!(pool.touch(1, pool_stamp(3, 0, 0)));
        pool.touch_or_insert(2, pool_stamp(4, 0, 0));
        assert_eq!(pool.keys_mru_order(), vec![1, 2]);
    }

    #[test]
    fn concurrent_touches_converge() {
        let pool = pool_over(256, 256);
        std::thread::scope(|s| {
            for part in 0..4u32 {
                let pool = &pool;
                s.spawn(move || {
                    for seq in 0..64u32 {
                        let id = (part as u64) * 64 + seq as u64;
                        pool.touch_or_insert(id, pool_stamp(1, part, seq));
                    }
                });
            }
        });
        assert_eq!(pool.len(), 256);
        // Recency order is by (partition, seq) regardless of scheduling.
        let mru = pool.keys_mru_order();
        assert_eq!(mru[0], 255);
        assert_eq!(*mru.last().unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "pool sized for 10 pages")]
    fn ids_beyond_the_file_are_refused() {
        // Page 10 would land inside the bitmap's last word; the bound is
        // the file's page count, not the bitmap's capacity.
        pool_over(4, 10).touch_or_insert(10, pool_stamp(1, 0, 0));
    }

    #[test]
    #[should_panic(expected = "pool sized for 10 pages")]
    fn ids_beyond_the_file_are_refused_through_mut_too() {
        pool_over(4, 10).touch_or_insert_mut(10, pool_stamp(1, 0, 0));
    }

    #[test]
    fn ids_beyond_the_file_are_not_resident() {
        let pool = pool_over(4, 10);
        assert!(!pool.contains(10) && !pool.contains(10_000));
        assert!(!pool.touch(10_000, pool_stamp(1, 0, 0)));
    }

    #[test]
    fn page_bits_cover_exactly_their_range() {
        let mut bits = PageBits::new(130);
        assert!(bits.insert(129));
        assert!(!bits.insert(129));
        assert!(bits.contains(129) && !bits.contains(128));
    }

    #[test]
    #[should_panic(expected = "beyond the bitmap")]
    fn page_bits_refuse_ids_beyond_their_words() {
        PageBits::new(130).contains(192);
    }

    /// Everything observable about `pool` equals `model`: length,
    /// membership (through the snapshot) of every page of the file, and
    /// the recency order; and no shard's heap is past its bound.
    fn assert_matches_model(
        pool: &ShardedLruPool,
        model: &ModelPool,
        pages: u64,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(pool.len(), model.len());
        let snap = pool.snapshot();
        for id in 0..pages {
            prop_assert_eq!((id, snap.contains(id)), (id, model.contains(id)));
        }
        prop_assert_eq!(pool.keys_mru_order(), model.keys_mru_order());
        for s in &pool.shards {
            let s = lock_shard(s);
            prop_assert!(
                s.heap.len() <= s.heap_bound(),
                "heap {} past its bound",
                s.heap.len()
            );
        }
        Ok(())
    }

    proptest! {
        /// Random touch / touch_or_insert / clear / file-growth sequences
        /// over a 1-shard and a 16-shard pool, against the map-based
        /// [`ModelPool`]. Stamps are unique and come in two orders: serial
        /// ones, each above every stamp before it, and the stamps of a
        /// parallel scan, several partitions' `(partition, seq)` sequences
        /// interleaved — so inserts arrive below the shard's minimum
        /// (self-evicting) and touches below the page's stamp
        /// (non-demoting). After every step the return value, `len`,
        /// `snapshot` and `keys_mru_order` equal the model's, the heaps
        /// stay within their bound, and a snapshot taken earlier is not
        /// changed by later mutations.
        #[test]
        fn pool_is_the_map_model_under_random_ops(
            capacity in 1usize..40,
            sharded in any::<bool>(),
            via_mut in any::<bool>(),
            ops in prop::collection::vec((0u8..16, 0u64..400, 0u32..4), 1..300),
        ) {
            let capacity = capacity + if sharded { MIN_CAPACITY_TO_SHARD } else { 0 };
            let mut pages = 70u64;
            let mut pool = pool_over(capacity, pages);
            prop_assert_eq!(pool.shard_count(), if sharded { POOL_SHARDS } else { 1 });
            let mut model = ModelPool::like(&pool);
            let mut epoch = 1u64;
            let mut seqs = [0u32; 4];
            let mut held = None;
            for (kind, id, part) in ops {
                let id = id % pages;
                // Kinds 8..=11 stamp within the current scan epoch (by
                // partition, in each partition's own order); every other
                // kind opens a fresh epoch above all of them.
                let stamp = if (8..=11).contains(&kind) {
                    seqs[part as usize] += 1;
                    pool_stamp(epoch, part, seqs[part as usize])
                } else {
                    epoch += 1;
                    seqs = [0; 4];
                    pool_stamp(epoch, 0, 0)
                };
                match kind {
                    0 => {
                        pool.clear();
                        model.clear();
                    }
                    1 => {
                        pages += id + 1;
                        pool.set_page_count(pages);
                    }
                    2 => held = Some((pool.snapshot(), (0..pages).map(|p| model.contains(p)).collect::<Vec<_>>())),
                    3..=5 => prop_assert_eq!(pool.touch(id, stamp), model.touch(id, stamp)),
                    _ => {
                        let hit = if via_mut {
                            pool.touch_or_insert_mut(id, stamp)
                        } else {
                            pool.touch_or_insert(id, stamp)
                        };
                        prop_assert_eq!(hit, model.touch_or_insert(id, stamp));
                    }
                }
                assert_matches_model(&pool, &model, pages)?;
                if let Some((snap, oracle)) = &held {
                    for (id, &resident) in oracle.iter().enumerate() {
                        prop_assert_eq!(snap.contains(id as u64), resident);
                    }
                }
            }
        }
    }
}
