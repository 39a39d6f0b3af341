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
//! they touch the same stripe.
//!
//! Each shard also keeps one residency bit per page of the file it could
//! hold, flipped in lockstep with its stamp maps, so a scan's start-of-scan
//! snapshot ([`ShardedLruPool::snapshot`]) copies `page_count / 64` words:
//! nothing hashed, no work per resident page.

use crate::page::PageId;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Shard count for pools large enough to stripe. Pools smaller than
/// [`MIN_CAPACITY_TO_SHARD`] pages use a single shard so tiny test pools
/// keep exact global-LRU semantics.
pub const POOL_SHARDS: usize = 16;

/// Pools below this capacity collapse to one shard.
pub const MIN_CAPACITY_TO_SHARD: usize = 64;

/// A deterministic recency stamp: higher = more recently used.
///
/// Layout: `epoch << 64 | partition << 32 | sequence`. Serial accesses use
/// `(epoch, 0, 0)` with a fresh epoch per touch; one parallel scan shares
/// a single epoch across its workers and orders touches by
/// `(partition, sequence)` — the serial visit order.
pub type PoolStamp = u128;

/// Builds a [`PoolStamp`] from its three components.
#[inline]
pub fn pool_stamp(epoch: u64, partition: u32, seq: u32) -> PoolStamp {
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
    pub fn new(pages: u64) -> PageBits {
        let per_stripe = pages.div_ceil(64) as usize;
        PageBits {
            words: vec![0; per_stripe],
            stride: 1,
            per_stripe,
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
    pub fn contains(&self, id: PageId) -> bool {
        let (word, bit) = self.slot(id);
        self.words[word] & bit != 0
    }

    /// Adds `id`; returns `true` when it was not yet in the set.
    #[inline]
    pub fn insert(&mut self, id: PageId) -> bool {
        let (word, bit) = self.slot(id);
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }
}

/// One lock stripe: membership plus the stamp order, both O(log n).
#[derive(Debug, Default)]
struct PoolShard {
    /// Page → its current stamp.
    stamps: HashMap<PageId, PoolStamp>,
    /// Stamp → page, ordered; the first entry is the eviction victim.
    by_stamp: BTreeMap<PoolStamp, PageId>,
    /// Bit `id / stride` is set iff `id` is in `stamps`; `stride` is the
    /// owning pool's shard count.
    resident: Vec<u64>,
    stride: u64,
    capacity: usize,
}

impl PoolShard {
    fn touch(&mut self, id: PageId, stamp: PoolStamp) -> bool {
        match self.stamps.get_mut(&id) {
            Some(cur) => {
                // A stale stamp (older than the page's current one) must
                // not demote the page: under concurrent touches the
                // maximum stamp wins, matching the serial outcome where
                // the latest touch is the one that sticks.
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

    fn insert(&mut self, id: PageId, stamp: PoolStamp) -> Option<PageId> {
        // lint:allow(L001, reason = "insert is only reachable after touch() missed on the same shard guard; an always-on probe would double the hash lookups on the page-miss path")
        debug_assert!(!self.stamps.contains_key(&id));
        let evicted = if self.stamps.len() >= self.capacity {
            let (&victim_stamp, &victim) = self
                .by_stamp
                .iter()
                .next()
                // lint:allow(L005, reason = "stamps and by_stamp are mutated in lockstep under the same guard, and stamps.len() >= capacity >= 1 here, so by_stamp is non-empty")
                .expect("full shard has a minimum stamp");
            if stamp < victim_stamp {
                // The newcomer is already the least-recently-used entry:
                // in serial stamp order it would have been inserted first
                // and evicted by now. Rejecting it (it "evicts itself")
                // keeps the survivor set equal to the top-`capacity`
                // stamps regardless of arrival order — the property that
                // makes the live pool DOP-invariant.
                return Some(id);
            }
            self.by_stamp.remove(&victim_stamp);
            self.stamps.remove(&victim);
            self.flip(victim);
            Some(victim)
        } else {
            None
        };
        self.stamps.insert(id, stamp);
        self.by_stamp.insert(stamp, id);
        self.flip(id);
        evicted
    }

    /// Toggles `id`'s residency bit, wherever `stamps` gains or loses it.
    fn flip(&mut self, id: PageId) {
        let local = id / self.stride;
        self.resident[(local / 64) as usize] ^= 1u64 << (local % 64);
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
    sqlarray_core::sync::lock_unpoisoned(m)
}

/// A fixed-capacity, lock-striped, stamp-ordered LRU set of pages — the
/// live buffer pool shared by the serial path and all scan workers.
#[derive(Debug)]
pub struct ShardedLruPool {
    shards: Vec<Mutex<PoolShard>>,
    capacity: usize,
    /// Pages in the file this pool fronts.
    pages: u64,
}

impl ShardedLruPool {
    /// Creates a pool holding at most `capacity` pages (≥ 1), striped over
    /// [`POOL_SHARDS`] shards when the capacity is large enough for each
    /// stripe to hold a meaningful number of pages.
    pub fn new(capacity: usize) -> ShardedLruPool {
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
        ShardedLruPool {
            shards,
            capacity,
            pages: 0,
        }
    }

    /// Words in every shard's residency bitmap.
    fn words_per_shard(&self) -> usize {
        (self.pages.div_ceil(self.shards.len() as u64)).div_ceil(64) as usize
    }

    /// Sizes the residency bitmaps for a file of `pages` pages; the store
    /// calls this as the file grows (it never shrinks). Only ids below
    /// `pages` may then be offered to the pool.
    pub fn set_page_count(&mut self, pages: u64) {
        let before = self.words_per_shard();
        self.pages = self.pages.max(pages);
        let words = self.words_per_shard();
        if words > before {
            for s in &self.shards {
                lock_shard(s).resident.resize(words, 0);
            }
        }
    }

    fn shard(&self, id: PageId) -> &Mutex<PoolShard> {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of resident pages (sums the shards; a racing snapshot under
    /// concurrent access, exact when quiescent).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).stamps.len()).sum()
    }

    /// True when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// If `id` is resident, refreshes its stamp (keeping the newer of the
    /// current and offered stamps) and returns `true`.
    pub fn touch(&self, id: PageId, stamp: PoolStamp) -> bool {
        lock_shard(self.shard(id)).touch(id, stamp)
    }

    /// Touches `id` if resident, inserts it otherwise — one lock round
    /// trip for the fault-in path. Returns `true` when the page was
    /// already resident. Panics when `id` is not below the
    /// [page count](Self::set_page_count): the bitmaps cover the file.
    pub fn touch_or_insert(&self, id: PageId, stamp: PoolStamp) -> bool {
        assert!(
            id < self.pages,
            "page {id} offered to a pool sized for {} pages",
            self.pages
        );
        let mut shard = lock_shard(self.shard(id));
        if shard.touch(id, stamp) {
            true
        } else {
            shard.insert(id, stamp);
            false
        }
    }

    /// True when `id` is resident (no stamp refresh).
    pub fn contains(&self, id: PageId) -> bool {
        lock_shard(self.shard(id)).stamps.contains_key(&id)
    }

    /// Removes every resident page (`DBCC DROPCLEANBUFFERS`).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = lock_shard(s);
            s.stamps.clear();
            s.by_stamp.clear();
            s.resident.fill(0);
        }
    }

    /// The pages resident right now, captured shard by shard (each shard
    /// atomically; exact when quiescent).
    pub fn snapshot(&self) -> PageBits {
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
        for s in &self.shards {
            all.extend(lock_shard(s).by_stamp.iter().map(|(&st, &id)| (st, id)));
        }
        all.sort_unstable_by_key(|&(stamp, _)| std::cmp::Reverse(stamp));
        all.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
impl ShardedLruPool {
    /// Membership of the shards' `stamps` maps: what the bitmaps must
    /// mirror, so the oracle for [`ShardedLruPool::snapshot`].
    fn resident_set(&self) -> std::collections::HashSet<PageId> {
        let mut out = std::collections::HashSet::new();
        for s in &self.shards {
            out.extend(lock_shard(s).stamps.keys().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The snapshot must say exactly what `stamps` says, for every id of
    /// the file.
    fn assert_snapshot_matches(pool: &ShardedLruPool, pages: u64) -> Result<(), TestCaseError> {
        let snap = pool.snapshot();
        let oracle = pool.resident_set();
        prop_assert_eq!(oracle.len(), pool.len());
        for id in 0..pages {
            prop_assert_eq!((id, snap.contains(id)), (id, oracle.contains(&id)));
        }
        Ok(())
    }

    proptest! {
        /// Random touch / touch_or_insert / clear / file-growth sequences
        /// — fresh stamps (evicting inserts once the shard is full) and
        /// stale ones (self-evicting inserts, non-demoting touches) —
        /// over a 1-shard and a 16-shard pool: after every step the
        /// bitmap snapshot equals the membership of `stamps`, and a
        /// snapshot taken earlier is not changed by later mutations.
        #[test]
        fn snapshot_tracks_stamps_under_random_ops(
            capacity in 1usize..40,
            sharded in any::<bool>(),
            ops in prop::collection::vec((0u8..16, 0u64..400, 0u64..64), 1..300),
        ) {
            let capacity = capacity + if sharded { MIN_CAPACITY_TO_SHARD } else { 0 };
            let mut pages = 70u64;
            let mut pool = pool_over(capacity, pages);
            prop_assert_eq!(pool.shard_count(), if sharded { POOL_SHARDS } else { 1 });
            let mut epoch = 64u64;
            let mut held = None;
            for (kind, id, stale) in ops {
                let id = id % pages;
                epoch += 1;
                match kind {
                    0 => pool.clear(),
                    1 => {
                        pages += id + 1;
                        pool.set_page_count(pages);
                    }
                    2 => held = Some((pool.snapshot(), pool.resident_set(), pages)),
                    3..=5 => { pool.touch(id, pool_stamp(epoch, 0, 0)); }
                    // A stamp older than every fresh one (and unique, like
                    // all stamps): a full shard of fresh pages rejects it.
                    6..=8 => { pool.touch_or_insert(id, pool_stamp(stale, 0, epoch as u32)); }
                    _ => { pool.touch_or_insert(id, pool_stamp(epoch, 0, 0)); }
                }
                assert_snapshot_matches(&pool, pages)?;
                if let Some((snap, oracle, pages)) = &held {
                    for id in 0..*pages {
                        prop_assert_eq!(snap.contains(id), oracle.contains(&id));
                    }
                }
            }
        }
    }
}
