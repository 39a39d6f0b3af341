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

use crate::page::PageId;
use std::collections::{BTreeMap, HashMap, HashSet};
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

/// One lock stripe: membership plus the stamp order, both O(log n).
#[derive(Debug, Default)]
struct PoolShard {
    /// Page → its current stamp.
    stamps: HashMap<PageId, PoolStamp>,
    /// Stamp → page, ordered; the first entry is the eviction victim.
    by_stamp: BTreeMap<PoolStamp, PageId>,
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
            Some(victim)
        } else {
            None
        };
        self.stamps.insert(id, stamp);
        self.by_stamp.insert(stamp, id);
        evicted
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
                    ..PoolShard::default()
                })
            })
            .collect();
        ShardedLruPool { shards, capacity }
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
    /// already resident.
    pub fn touch_or_insert(&self, id: PageId, stamp: PoolStamp) -> bool {
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
        }
    }

    /// The set of resident pages.
    pub fn resident_set(&self) -> HashSet<PageId> {
        let mut out = HashSet::with_capacity(self.len());
        for s in &self.shards {
            out.extend(lock_shard(s).stamps.keys().copied());
        }
        out
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
mod tests {
    use super::*;

    fn serial_stamps() -> impl FnMut() -> PoolStamp {
        let mut e = 0u64;
        move || {
            e += 1;
            pool_stamp(e, 0, 0)
        }
    }

    #[test]
    fn small_pool_behaves_like_one_lru() {
        let pool = ShardedLruPool::new(3);
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
        let pool = ShardedLruPool::new(1024);
        assert_eq!(pool.shard_count(), POOL_SHARDS);
        let mut next = serial_stamps();
        for id in 0..512u64 {
            pool.touch_or_insert(id, next());
        }
        assert_eq!(pool.len(), 512);
        assert!(pool.contains(17));
        pool.clear();
        assert!(pool.is_empty());
    }

    #[test]
    fn capacity_distributes_across_shards() {
        // 100 pages over 16 shards: 4 shards of 7, 12 of 6.
        let pool = ShardedLruPool::new(100);
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
        let forward = ShardedLruPool::new(32);
        for &(id, st) in &stamps {
            forward.touch_or_insert(id, st);
        }
        let shuffled = ShardedLruPool::new(32);
        // Deterministic shuffle: stride through the list.
        for k in 0..stamps.len() {
            let (id, st) = stamps[(k * 67) % stamps.len()];
            shuffled.touch_or_insert(id, st);
        }
        assert_eq!(forward.keys_mru_order(), shuffled.keys_mru_order());
    }

    #[test]
    fn stale_stamp_does_not_demote() {
        let pool = ShardedLruPool::new(8);
        pool.touch_or_insert(1, pool_stamp(5, 0, 0));
        // An older stamp arriving late must not roll recency back.
        assert!(pool.touch(1, pool_stamp(3, 0, 0)));
        pool.touch_or_insert(2, pool_stamp(4, 0, 0));
        assert_eq!(pool.keys_mru_order(), vec![1, 2]);
    }

    #[test]
    fn concurrent_touches_converge() {
        let pool = ShardedLruPool::new(256);
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
}
