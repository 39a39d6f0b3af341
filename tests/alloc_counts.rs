//! Allocation counts: the per-row and per-page cost claims, as behaviour.
//!
//! The paper's lesson about user-defined aggregates is a per-row cost: the
//! CLR serialized an aggregate's state once per row, and that made them
//! unusable (§4.2). A heap allocation per row, per addend or per page is
//! the same kind of cost, and the easiest one to add back by accident. A
//! counting global allocator makes it visible: every `alloc`,
//! `alloc_zeroed` and `realloc` in this process, and the bytes they ask
//! for, land in global atomics, so the threads of a DOP > 1 scan are
//! counted too.
//!
//! Each claim is a scaling law, not an absolute count: a scan of four
//! times the rows — UDF call lanes and typed GROUP BY included — may
//! allocate a few more times per extra batch (the leaf list, the group
//! table), never once per extra row; a warm page read, an exact addend, a
//! slice of them, a 960-element `Norm2`, a `VectorAvg` row or a scan
//! worker's read-ahead hint allocates nothing; planning a region costs
//! the same whatever its run count; a
//! LOB read never zero-fills its result; an idle checkpoint copies no
//! page; a leaf split costs the same whatever the leaf holds. The claims run one at a time (one lock), and each count is the
//! smallest of three runs, because the test harness's own threads can
//! only add to it.
//!
//! Run it under `--release` too: the optimizer is what could add or
//! remove an allocation.

use sqlarray::array::batch::{sum_f64, DEFAULT_BATCH_ROWS};
use sqlarray::array::build::short_vector;
use sqlarray::array::header::Header;
use sqlarray::array::ops::agg;
use sqlarray::array::shape::Shape;
use sqlarray::array::{ElementType, ExactSum, StorageClass};
use sqlarray::engine::aggregate::VectorAvgUda;
use sqlarray::engine::{Arg, Database, Engine, HostingModel, Session, UdaState};
use sqlarray::storage::blob::{read_blob, write_blob};
use sqlarray::storage::store::PageRead;
use sqlarray::storage::{
    BTree, ColType, DiskProfile, Edit, PageStore, RowValue, Schema, StorageError, PAGE_SIZE,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// The system allocator, counting.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ZEROED: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's layout, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ZEROED.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's layout, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        // SAFETY: a block this allocator handed out, with its layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: a block this allocator handed out, with its layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What the allocator was asked for over some stretch of the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    allocs: u64,
    zeroed: u64,
    reallocs: u64,
    bytes: u64,
}

impl Counts {
    fn now() -> Counts {
        Counts {
            allocs: ALLOCS.load(Relaxed),
            zeroed: ZEROED.load(Relaxed),
            reallocs: REALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// Calls into the allocator that hand out or grow a block.
    fn calls(&self) -> u64 {
        self.allocs + self.zeroed + self.reallocs
    }

    fn min(self, o: Counts) -> Counts {
        Counts {
            allocs: self.allocs.min(o.allocs),
            zeroed: self.zeroed.min(o.zeroed),
            reallocs: self.reallocs.min(o.reallocs),
            bytes: self.bytes.min(o.bytes),
        }
    }
}

/// The allocations of one run of `f`; what `f` returns is dropped
/// outside the count.
fn count<R>(f: impl FnOnce() -> R) -> Counts {
    let before = Counts::now();
    let out = f();
    let after = Counts::now();
    drop(out);
    Counts {
        allocs: after.allocs - before.allocs,
        zeroed: after.zeroed - before.zeroed,
        reallocs: after.reallocs - before.reallocs,
        bytes: after.bytes - before.bytes,
    }
}

/// [`count`], the smallest of three runs.
fn measure<R>(mut f: impl FnMut() -> R) -> Counts {
    (0..3).map(|_| count(&mut f)).reduce(Counts::min).unwrap()
}

/// One claim at a time: the counters are process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A session over `T(id, a, c, w)`: `a` an integer in 0..100, `c` a float
/// in 0..25, `w` a four-element float vector stored in the row.
fn table(rows: i64) -> Session {
    let mut db = Database::new();
    let schema = Schema::new(&[
        ("id", ColType::I64),
        ("a", ColType::I64),
        ("c", ColType::F64),
        ("w", ColType::Blob),
    ]);
    db.create_table("T", schema).unwrap();
    for id in 0..rows {
        let c = (id % 50) as f64 * 0.5;
        let w = short_vector(&[c, c + 1.0, c + 2.0, c + 3.0]).unwrap();
        let row = [
            RowValue::I64(id),
            RowValue::I64(id * 7919 % 100),
            RowValue::F64(c),
            RowValue::Bytes(w.into_blob()),
        ];
        db.insert("T", id, &row).unwrap();
    }
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    s.set_batch_rows(DEFAULT_BATCH_ROWS);
    s
}

/// Allocations per extra batch a scan may make. The scans below make at
/// most ~5.3 (`GROUP BY`: +64 for 12 more batches); one per row would be
/// ~1 000.
const PER_BATCH: u64 = 8;

/// Statements the batch planner runs end to end: a filter through
/// `refine` (an AND of two fused compares), typed folds through
/// `fold_typed`, a grouped aggregate over a typed key, and a UDF call per
/// row — ungrouped and grouped — whose array argument is borrowed from
/// the batch and whose `FLOAT` results fill a typed lane; every one
/// decodes its lanes through `BatchDecoder::fill`.
const SCANS: [&str; 5] = [
    "SELECT COUNT(*) FROM T WHERE a < 40 AND c > 10.0",
    "SELECT SUM(a), MIN(c), MAX(c) FROM T",
    "SELECT id % 7, COUNT(*), SUM(c) FROM T GROUP BY id % 7",
    "SELECT SUM(FloatArray.Item_1(w, 0)) FROM T",
    "SELECT id % 7, SUM(FloatArray.Item_1(w, 1)) FROM T GROUP BY id % 7",
];

#[test]
fn a_batch_scan_allocates_per_batch_not_per_row() {
    let _one = serial();
    let (mut small, mut large) = (table(4_000), table(16_000));
    for dop in [1, 2] {
        small.set_dop(dop);
        large.set_dop(dop);
        for sql in SCANS {
            // A warm run: the plan is cached and the pages are resident.
            let warm = |s: &mut Session| {
                let stats = s.query(sql).unwrap().stats;
                assert!(stats.batches > 0, "{sql} left the batch path");
                (measure(|| s.query(sql).unwrap()), stats.batches)
            };
            let ((few, few_batches), (many, many_batches)) = (warm(&mut small), warm(&mut large));
            let extra_batches = many_batches - few_batches;
            assert!(
                extra_batches >= 10,
                "{sql}: {few_batches} vs {many_batches} batches"
            );
            let extra = many.calls().saturating_sub(few.calls());
            assert!(
                extra <= PER_BATCH * extra_batches,
                "{sql} at DOP {dop}: {extra} more allocations for {extra_batches} more batches \
                 (12 000 more rows): {few:?} vs {many:?}"
            );
        }
    }
}

#[test]
fn an_exact_sum_adds_without_allocating() {
    let _one = serial();
    let mut sum = ExactSum::new();
    let counts = measure(|| {
        for i in 0..100_000 {
            sum.add(i as f64 * 0.37 - 1.0e4);
        }
    });
    assert_eq!(counts.calls(), 0, "{counts:?}");
}

#[test]
fn a_slice_sum_and_a_norm_allocate_nothing() {
    let _one = serial();
    let xs: Vec<f64> = (0..3000).map(|i| i as f64 * 0.37 - 1.0e4).collect();
    let mut sum = ExactSum::new();
    let counts = measure(|| {
        for n in [7, 8, 960, 1024, 3000] {
            sum_f64(&xs[..n], &mut sum);
            sum.add_iter(xs[..n].iter().map(|x| x * x));
        }
    });
    assert_eq!(counts.calls(), 0, "sum_f64 / add_iter: {counts:?}");
    // `FloatArray.Norm2` over the 960-element arrays the repo benchmark's
    // `arr_norm` class sums: the blocks live on the stack.
    let a = short_vector(&xs[..960]).unwrap();
    let counts = measure(|| agg::norm2(&a).unwrap());
    assert_eq!(counts.calls(), 0, "norm2: {counts:?}");
}

#[test]
fn vector_avg_reads_its_argument_where_it_lies() {
    let _one = serial();
    // The array is never copied and its header's `Shape` holds its
    // dimensions inline, so a row allocates nothing, 900 elements or 4.
    for len in [4, 900] {
        let data: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
        let blob = short_vector(&data).unwrap().into_blob();
        let header = measure(|| Header::decode(&blob).unwrap());
        assert_eq!(header.calls(), 0, "header decode: {header:?}");
        let row = [Arg::Bytes(&blob)];
        let mut uda = VectorAvgUda::new(StorageClass::Short);
        uda.accumulate(&row).unwrap();
        let counts = measure(|| uda.accumulate(&row).unwrap());
        assert_eq!(counts.calls(), 0, "{len} elements: {counts:?}");
    }
}

#[test]
fn planning_a_region_allocates_the_same_whatever_its_run_count() {
    let _one = serial();
    // A pencil through a 128³ cube is one run per element; its plan holds
    // the runs and the strides, never a block per run.
    let shape = Shape::new(&[128, 128, 128]).unwrap();
    let header = Header::new(StorageClass::Max, ElementType::Float64, shape).unwrap();
    let plan = |len: usize| {
        let counts = measure(|| header.region_byte_runs(&[5, 6, 0], &[1, 1, len]).unwrap());
        assert_eq!(
            header
                .region_byte_runs(&[5, 6, 0], &[1, 1, len])
                .unwrap()
                .len(),
            len
        );
        counts
    };
    let (few, many) = (plan(8), plan(128));
    // Two blocks (the strides and the run list); one more is the slack
    // the harness's own threads may add to a count.
    assert!(
        many.calls() <= few.calls() + 1 && many.calls() <= 3,
        "8 runs: {few:?}, 128 runs: {many:?}"
    );
}

/// A store of `pages` written pages behind a pool of `pool` pages.
fn store(pages: u64, pool: usize) -> PageStore {
    let mut store = PageStore::with_pool(pool, DiskProfile::default());
    for id in 0..pages {
        assert_eq!(store.allocate(), id);
        store
            .write(id, |p| p[..8].copy_from_slice(&id.to_le_bytes()))
            .unwrap();
    }
    store.commit(b"catalog");
    store.checkpoint();
    store
}

#[test]
fn a_warm_page_read_allocates_nothing() {
    let _one = serial();
    let mut store = store(48, 64);
    // Enough touches that every shard's recency heap reached its bound.
    for _ in 0..50 {
        for id in 0..48 {
            store.read(id).unwrap();
        }
    }
    let counts = measure(|| {
        for _ in 0..20 {
            for id in 0..48 {
                store.read(id).unwrap();
            }
        }
    });
    assert_eq!(counts.calls(), 0, "{counts:?}");
}

#[test]
fn a_scan_worker_reads_and_reads_ahead_without_allocating() {
    let _one = serial();
    let store = store(48, 64);
    let ids: Vec<u64> = (0..48).collect();
    let scan = store.begin_scan();
    let mut reader = store.reader(&scan, 0);
    let hints = measure(|| {
        for _ in 0..1_000 {
            reader.read_ahead(&ids);
        }
    });
    assert_eq!(hints.calls(), 0, "{hints:?}");
    // Cold reads told what comes next, each verifying a group of pages:
    // a fresh scan over an emptied pool each time.
    let reads = (0..3)
        .map(|_| {
            store.clear_cache();
            let scan = store.begin_scan();
            let mut reader = store.reader(&scan, 0);
            let counts = count(|| {
                for (k, &id) in ids.iter().enumerate() {
                    reader.read_ahead(&ids[k..]);
                    reader.read(id).unwrap();
                }
            });
            assert_eq!(reader.stats().pages_read, 48);
            counts
        })
        .reduce(Counts::min)
        .unwrap();
    assert_eq!(reads.calls(), 0, "{reads:?}");
}

#[test]
fn a_lob_read_never_zero_fills_its_result() {
    let _one = serial();
    let mut store = PageStore::new();
    let data: Vec<u8> = (0..100_000u32).map(|i| (i * 31 % 251) as u8).collect();
    let id = write_blob(&mut store, &data).unwrap();
    for cold in [true, false] {
        let counts = measure(|| {
            if cold {
                store.clear_cache();
            }
            let out = read_blob(&mut store, id).unwrap();
            assert_eq!(out, data);
        });
        assert_eq!(counts.zeroed, 0, "cold: {cold}, {counts:?}");
    }
}

#[test]
fn a_checkpoint_copies_no_page() {
    let _one = serial();
    let mut store = store(64, 128);
    let idle = measure(|| store.checkpoint());
    assert!(idle.bytes < PAGE_SIZE as u64, "idle: {idle:?}");
    // After writes too: the written pages are already the live buffers,
    // and the checkpoint only shares them.
    let after_writes = (0..3)
        .map(|round| {
            for id in [3, 17, 40] {
                store.write(id, |p| p[100] = round).unwrap();
            }
            store.commit(b"catalog");
            count(|| store.checkpoint())
        })
        .reduce(Counts::min)
        .unwrap();
    assert!(after_writes.bytes < PAGE_SIZE as u64, "{after_writes:?}");
}

/// An insert that splits a leaf allocates the same, within 2, whether the
/// leaf holds ~40 records or ~160: the split reads the records as slices
/// of one copy of the page, so no allocation is made per record.
#[test]
fn a_leaf_split_allocates_per_split_not_per_record() {
    let _one = serial();
    let split = |payload: usize, rows: i64| {
        let runs = (0..3).map(|_| {
            let mut store = PageStore::new();
            let entries: Vec<(i64, Vec<u8>)> =
                (0..rows).map(|k| (2 * k, vec![7; payload])).collect();
            let mut t = BTree::bulk_build(&mut store, &entries, 1, None).unwrap();
            let leaves = t.leaf_pages(&mut store).unwrap();
            store.commit(b"catalog");
            store.checkpoint();
            let record = vec![9; payload];
            let insert = |_: &mut PageStore, _, _: Option<&[u8]>| Ok(Edit::Put(record.clone()));
            let counts = count(|| t.apply::<StorageError>(&mut store, &[41], insert).unwrap());
            assert_eq!(t.leaf_pages(&mut store).unwrap(), leaves + 1, "no split");
            (counts, rows as u64 / leaves)
        });
        let (counts, per_leaf): (Vec<Counts>, Vec<u64>) = runs.unzip();
        (counts.into_iter().reduce(Counts::min).unwrap(), per_leaf[0])
    };
    let ((few, few_records), (many, many_records)) = (split(190, 800), split(40, 3200));
    assert!(
        few_records <= 42 && many_records >= 150,
        "{few_records} vs {many_records}"
    );
    assert!(
        few.calls().abs_diff(many.calls()) <= 2,
        "a split of a {few_records}-record leaf: {few:?}; of a {many_records}-record leaf: {many:?}"
    );
}
