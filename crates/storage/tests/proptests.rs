//! Property-based tests: the B-tree against a `BTreeMap` model, blob
//! range reads against slices, row-codec round trips, and the scan path's
//! DOP-invariance contract.

use proptest::prelude::*;
use sqlarray_core::batch::ColVec;
use sqlarray_storage::btree::MAX_PAYLOAD;
use sqlarray_storage::{
    blob, row, BTree, BatchScanOpts, ColType, DiskProfile, Edit, IoStats, PageId, PageStore, RowOp,
    RowValue, ScanIo, ScanPartition, Schema, StorageError, Table, PAGE_SIZE,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

/// Every key: the interval of a full clustered-index scan.
const ALL: RangeInclusive<i64> = i64::MIN..=i64::MAX;

/// One insert (`replace` false: a held key is `DuplicateKey`) or update
/// (`true`: an absent key is `KeyNotFound`) through `BTree::apply`.
fn put(
    tree: &mut BTree,
    store: &mut PageStore,
    key: i64,
    payload: &[u8],
    replace: bool,
) -> Result<(), StorageError> {
    let put = |_: &mut PageStore, _, old: Option<&[u8]>| match (old.is_some(), replace) {
        (true, false) => Err(StorageError::DuplicateKey { key }),
        (false, true) => Err(StorageError::KeyNotFound { key }),
        _ => Ok(Edit::Put(payload.to_vec())),
    };
    tree.apply(store, &[key], put).map(drop)
}

/// Deletes `key` through `BTree::apply`, handing back its payload.
fn delete(tree: &mut BTree, store: &mut PageStore, key: i64) -> Option<Vec<u8>> {
    let mut gone = None;
    tree.apply(store, &[key], |_, _, old| {
        gone = old.map(<[u8]>::to_vec);
        Ok::<_, StorageError>(Edit::Delete)
    })
    .unwrap();
    gone
}

/// `ops` through one `Table::apply` call.
fn apply_ops(
    t: &mut Table,
    store: &mut PageStore,
    ops: &[(i64, RowOp<'_>)],
) -> Result<u64, StorageError> {
    let keys: Vec<i64> = ops.iter().map(|&(key, _)| key).collect();
    t.apply(store, &keys, |_, i, _| Ok(ops[i].1.clone()))
}

/// One row op through `Table::apply`: whether it changed a row.
fn one(t: &mut Table, store: &mut PageStore, key: i64, op: RowOp<'_>) -> bool {
    apply_ops(t, store, &[(key, op)]).unwrap() == 1
}

/// Builds a vector table with `rows` rows over a store with a `pool_pages`
/// buffer pool, for the scan-accounting properties.
fn scan_fixture(rows: i64, pool_pages: usize) -> (PageStore, Table) {
    let mut store = PageStore::with_pool(pool_pages, DiskProfile::default());
    let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
    let mut t = Table::create(&mut store, "T", schema).unwrap();
    for k in 0..rows {
        let data: Vec<f64> = (0..5).map(|i| k as f64 + i as f64 * 0.5).collect();
        let arr = sqlarray_core::build::short_vector(&data).unwrap();
        t.insert(
            &mut store,
            k,
            &[RowValue::I64(k), RowValue::Bytes(arr.into_blob())],
        )
        .unwrap();
    }
    (store, t)
}

/// Runs one partitioned scan at `dop`, interleaving the workers' page
/// reads according to `schedule` (a deterministic stand-in for arbitrary
/// thread timing), then folds it back. Returns the merged [`IoStats`].
fn run_scan(store: &mut PageStore, table: &Table, dop: usize, schedule: &[u8]) -> IoStats {
    let parts = table.partition_keys(store, dop, ALL).unwrap();
    let scan = store.begin_scan();
    let mut readers: Vec<_> = (0..parts.len())
        .map(|pi| store.reader(&scan, pi as u32))
        .collect();
    let mut cursors = vec![0usize; parts.len()];
    let mut step = 0usize;
    loop {
        let pending: Vec<usize> = (0..parts.len())
            .filter(|&pi| cursors[pi] < parts[pi].leaves().len())
            .collect();
        if pending.is_empty() {
            break;
        }
        // Pick the next worker to advance from the schedule (wrapping).
        let pick = pending[schedule
            .get(step % schedule.len().max(1))
            .map(|&b| b as usize)
            .unwrap_or(0)
            % pending.len()];
        step += 1;
        let pid = parts[pick].leaves()[cursors[pick]];
        readers[pick].read(pid).unwrap();
        cursors[pick] += 1;
    }
    let ios: Vec<ScanIo> = readers.into_iter().map(|r| r.finish()).collect();
    drop(scan);
    store.finish_scan(ios.iter())
}

/// A bare tree as a (schema-less) table, for the partitioned range scan.
fn as_table(tree: &BTree) -> Table {
    Table::from_parts("t".into(), Schema::new(&[]), tree.parts())
}

/// One range scan — `partition_keys` + `scan_partition`, workers in
/// partition order — folded back into the store: the keys visited, each
/// partition's leaf list, and the I/O of partitioning plus scanning.
fn range_scan(
    store: &mut PageStore,
    table: &Table,
    dop: usize,
    keys: RangeInclusive<i64>,
) -> (Vec<i64>, Vec<Vec<PageId>>, IoStats) {
    let before = store.stats();
    let parts = table.partition_keys(store, dop, keys).unwrap();
    assert!(!parts.is_empty() && parts.len() <= dop);
    let scan = store.begin_scan();
    let mut seen = Vec::new();
    let mut ios = Vec::new();
    for (pi, p) in parts.iter().enumerate() {
        let mut r = store.reader(&scan, pi as u32);
        table
            .scan_partition(&mut r, p, |_, k, _| {
                seen.push(k);
                Ok(true)
            })
            .unwrap();
        ios.push(r.finish());
    }
    drop(scan);
    store.finish_scan(ios.iter());
    let leaves = parts.iter().map(|p| p.leaves().to_vec()).collect();
    (seen, leaves, store.stats().since(&before))
}

/// A tree that came to be the way tables do: bulk-built from `base`, then
/// churned row at a time — inserts split leaves, deletes leave half-empty
/// and empty ones in the chain. ~10 records per leaf, so a few hundred
/// keys span dozens of leaves. Deterministic in its inputs.
fn churned_tree(base: &BTreeSet<i64>, ops: &[(i64, bool)]) -> (PageStore, BTree, BTreeSet<i64>) {
    let mut store = PageStore::with_pool(32, DiskProfile::default());
    let payload = vec![0xA5u8; 700];
    let entries: Vec<(i64, Vec<u8>)> = base.iter().map(|&k| (k, payload.clone())).collect();
    let mut tree = BTree::bulk_build(&mut store, &entries, 1, None).unwrap();
    let mut model = base.clone();
    for &(k, insert) in ops {
        if insert {
            assert_eq!(
                put(&mut tree, &mut store, k, &payload, false).is_ok(),
                model.insert(k)
            );
        } else {
            assert_eq!(delete(&mut tree, &mut store, k).is_some(), model.remove(&k));
        }
    }
    store.clear_cache();
    (store, tree, model)
}

proptest! {
    /// The clustered B-tree behaves exactly like an ordered map under
    /// inserts, updates and deletes: same answers and errors, same point
    /// lookups, same full-scan order, same length. Payloads run from empty
    /// to page-wide ([`MAX_PAYLOAD`]) over a narrow key range, so records
    /// land in free tails, in compacted leaves, and through two- and
    /// three-way splits.
    #[test]
    fn btree_matches_btreemap_model(
        ops in prop::collection::vec(
            (0u8..4, -64i16..64, 0u8..3, 0usize..=MAX_PAYLOAD, any::<u8>()),
            1..300,
        )
    ) {
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store).unwrap();
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for (op, k, size, len, fill) in ops {
            let key = k as i64;
            // Short, any, or within 64 bytes of a page.
            let len = match size {
                0 => len % 48,
                1 => len,
                _ => MAX_PAYLOAD - len % 64,
            };
            let payload = vec![fill; len];
            match op {
                0 | 1 => {
                    let inserted = put(&mut tree, &mut store, key, &payload, false);
                    if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(key) {
                        prop_assert!(inserted.is_ok(), "{inserted:?}");
                        slot.insert(payload);
                    } else {
                        prop_assert!(
                            matches!(inserted, Err(StorageError::DuplicateKey { .. })),
                            "duplicate accepted: {inserted:?}"
                        );
                    }
                }
                2 => {
                    let updated = put(&mut tree, &mut store, key, &payload, true);
                    match model.get_mut(&key) {
                        Some(v) => {
                            prop_assert!(updated.is_ok(), "{updated:?}");
                            *v = payload;
                        }
                        None => prop_assert!(
                            matches!(updated, Err(StorageError::KeyNotFound { .. })),
                            "{updated:?}"
                        ),
                    }
                }
                _ => {
                    let deleted = delete(&mut tree, &mut store, key);
                    prop_assert_eq!(deleted, model.remove(&key));
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len() as u64);
        // Point lookups agree on every key of the range, misses included.
        for probe in -70i64..70 {
            prop_assert_eq!(tree.get(&mut store, probe).unwrap(), model.get(&probe).cloned());
        }
        // Scan yields the model's entries in order.
        let table = as_table(&tree);
        let part = table.partition_keys(&store, 1, ALL).unwrap().remove(0);
        let scan = store.begin_scan();
        let mut scanned = Vec::new();
        table
            .scan_partition(&mut store.reader(&scan, 0), &part, |_, k, p| {
                scanned.push((k, p.to_vec()));
                Ok(true)
            })
            .unwrap();
        let expect: Vec<(i64, Vec<u8>)> = model.into_iter().collect();
        prop_assert_eq!(scanned, expect);
    }

    /// Range scans agree with the model's range.
    #[test]
    fn btree_range_scan_matches_model(
        keys in prop::collection::btree_set(-500i64..500, 1..150),
        lo in -600i64..600,
        span in 0i64..300,
    ) {
        let hi = lo + span;
        let mut store = PageStore::new();
        let mut tree = BTree::create(&mut store).unwrap();
        for &k in &keys {
            put(&mut tree, &mut store, k, &k.to_le_bytes(), false).unwrap();
        }
        let (got, _, _) = range_scan(&mut store, &as_table(&tree), 1, lo..=hi);
        let expect: Vec<i64> = keys.iter().copied().filter(|&k| k >= lo && k <= hi).collect();
        prop_assert_eq!(got, expect);
    }

    /// The pruned, clipped range scan over bulk-built-then-churned trees,
    /// for any interval (inverted ones included) and DOP: it
    /// visits exactly the full scan's keys inside the interval, in order;
    /// it reads a contiguous run of the full scan's leaf chain with at
    /// most one leaf on either side that holds no key of the interval (the
    /// leaves the bounds descend to); and its `IoStats`, head position and
    /// pool recency are those of the serial range scan.
    #[test]
    fn clipped_partitions_are_the_full_scan_within_the_interval(
        base in prop::collection::btree_set(-2000i64..2000, 0..400),
        ops in prop::collection::vec((-2000i64..2000, any::<bool>()), 0..200),
        ends in (any::<u16>(), any::<u16>()),
        nudge in (-1i64..=1, -1i64..=1),
        dop in 1usize..=8,
    ) {
        let (mut store, tree, model) = churned_tree(&base, &ops);
        let table = as_table(&tree);
        // Bounds sit on, or one off, a stored key: separators are keys, so
        // the interval's ends keep landing on leaf boundaries.
        let stored: Vec<i64> = model.iter().copied().collect();
        let near = |pick: u16, nudge: i64| match stored.len() {
            0 => i64::from(pick),
            n => stored[usize::from(pick) % n] + nudge,
        };
        let (lo, hi) = (near(ends.0, nudge.0), near(ends.1, nudge.1));

        let (got, leaves, io) = range_scan(&mut store, &table, dop, lo..=hi);
        let expect: Vec<i64> = model.iter().copied().filter(|k| (lo..=hi).contains(k)).collect();
        prop_assert_eq!(&got, &expect);

        // The same scan, serially, on an identically built store.
        let (mut serial, serial_tree, _) = churned_tree(&base, &ops);
        let (serial_got, serial_leaves, serial_io) =
            range_scan(&mut serial, &as_table(&serial_tree), 1, lo..=hi);
        prop_assert_eq!(&serial_got, &expect);
        prop_assert_eq!(leaves.concat(), serial_leaves.concat());
        prop_assert!(io == serial_io, "dop {dop}: {io:?} vs serial {serial_io:?}");
        prop_assert_eq!(store.seek_position(), serial.seek_position());
        prop_assert_eq!(store.pool().keys_mru_order(), serial.pool().keys_mru_order());

        // One partition per leaf of the full scan: the chain, and each
        // leaf's keys.
        let mut chain: Vec<PageId> = Vec::new();
        let mut keys_of: BTreeMap<PageId, Vec<i64>> = BTreeMap::new();
        let scan = store.begin_scan();
        for (pi, p) in table.partition_keys(&store, usize::MAX, ALL).unwrap().iter().enumerate() {
            prop_assert_eq!(p.leaves().len(), 1);
            chain.push(p.leaves()[0]);
            let slot = keys_of.entry(p.leaves()[0]).or_default();
            let mut r = store.reader(&scan, pi as u32);
            table.scan_partition(&mut r, p, |_, k, _| { slot.push(k); Ok(true) }).unwrap();
        }
        drop(scan);
        let all: Vec<i64> = chain.iter().flat_map(|l| keys_of[l].iter().copied()).collect();
        prop_assert_eq!(all, model.iter().copied().collect::<Vec<_>>());

        let run = leaves.concat();
        if lo > hi {
            prop_assert!(run.is_empty(), "an empty interval reads no leaf");
        } else {
            let start = chain.iter().position(|l| Some(l) == run.first());
            let start = start.expect("the run starts on the chain");
            prop_assert_eq!(&chain[start..start + run.len()], &run[..]);
            for (i, leaf) in run.iter().enumerate() {
                let keys = &keys_of[leaf];
                prop_assert!(i == 0 || keys.iter().all(|&k| k > lo), "leaf {i} is left of the span");
                prop_assert!(
                    i + 1 == run.len() || keys.iter().all(|&k| k < hi),
                    "leaf {i} is right of the span"
                );
            }
        }
    }

    /// Blob range reads return exactly the bytes of the source slice, for
    /// any in-bounds range.
    #[test]
    fn blob_range_reads_match_source(
        len in 0usize..60_000,
        seed in any::<u64>(),
    ) {
        let data: Vec<u8> = (0..len).map(|i| ((i as u64).wrapping_mul(seed | 1) >> 5) as u8).collect();
        let mut store = PageStore::new();
        let id = blob::write_blob(&mut store, &data).unwrap();
        prop_assert_eq!(blob::blob_len(&mut store, id).unwrap(), len);
        // Probe a few derived ranges.
        let mut s = seed;
        let mut next = move || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1); s as usize };
        for _ in 0..8 {
            if len == 0 { break; }
            let off = next() % len;
            let n = (next() % (len - off)).min(4096);
            let mut buf = vec![0u8; n];
            blob::read_blob_range(&mut store, id, off, &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &data[off..off + n]);
        }
        // Full read agrees.
        prop_assert_eq!(blob::read_blob(&mut store, id).unwrap(), data);
    }

    /// Row encode/decode is the identity for arbitrary values, and
    /// single-column decode matches the full decode.
    #[test]
    fn row_codec_round_trips(
        i64v in any::<i64>(),
        i32v in any::<i32>(),
        f64v in any::<f64>(),
        f32v in any::<f32>(),
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // NaN breaks equality; normalize.
        let f64v = if f64v.is_nan() { 0.0 } else { f64v };
        let f32v = if f32v.is_nan() { 0.0 } else { f32v };
        let schema = Schema::new(&[
            ("a", ColType::I64),
            ("b", ColType::I32),
            ("c", ColType::F64),
            ("d", ColType::F32),
            ("e", ColType::Blob),
        ]);
        let values = vec![
            RowValue::I64(i64v),
            RowValue::I32(i32v),
            RowValue::F64(f64v),
            RowValue::F32(f32v),
            RowValue::Bytes(bytes),
        ];
        let mut store = PageStore::new();
        let encoded = row::encode_row(&mut store, &schema, &values).unwrap();
        let decoded = row::decode_row(&schema, &encoded).unwrap();
        prop_assert_eq!(&decoded, &values);
        for (col, value) in values.iter().enumerate() {
            prop_assert_eq!(
                &row::decode_col(&schema, &encoded, col).unwrap(),
                value
            );
        }
    }

    /// Morton keys round-trip and preserve the octant hierarchy for any
    /// coordinates.
    #[test]
    fn morton_round_trip(x in 0u64..(1 << 21), y in 0u64..(1 << 21), z in 0u64..(1 << 21)) {
        use sqlarray_storage::zorder::{morton3_decode, morton3_encode};
        let key = morton3_encode(x, y, z);
        prop_assert_eq!(morton3_decode(key), (x, y, z));
        // Scaling all coordinates down by 2 strips exactly 3 bits.
        let parent = morton3_encode(x >> 1, y >> 1, z >> 1);
        prop_assert_eq!(parent, key >> 3);
    }

    /// Scan partitions cover exactly the full scan for every table size
    /// and DOP, including the boundary shapes: empty table, one row,
    /// fewer rows (or leaves) than DOP, and non-divisible chunk counts.
    #[test]
    fn partitions_tile_the_scan(rows in 0i64..4000, dop in 1usize..12) {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        for k in 0..rows {
            t.insert(&mut store, k, &[RowValue::I64(k), RowValue::F64(k as f64)]).unwrap();
        }
        let full = range_scan(&mut store, &t, 1, ALL).0;
        prop_assert_eq!(full.len() as i64, rows);

        let parts = t.partition_keys(&store, dop, ALL).unwrap();
        // Always at least one partition, never more than requested, and
        // no partition is a useless empty tail when the table has rows.
        prop_assert!(!parts.is_empty());
        prop_assert!(parts.len() <= dop);
        if rows > 0 {
            prop_assert!(parts.iter().all(|p| !p.leaves().is_empty()));
        }
        // Leaf counts are balanced to within one page.
        let lens: Vec<usize> = parts.iter().map(|p| p.leaves().len()).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced partitions: {:?}", lens);

        // Concatenated partition scans equal the full scan, in order.
        let scan = store.begin_scan();
        let mut seen = Vec::new();
        for (pi, p) in parts.iter().enumerate() {
            let mut r = store.reader(&scan, pi as u32);
            t.scan_partition(&mut r, p, |_, k, _| { seen.push(k); Ok(true) }).unwrap();
        }
        prop_assert_eq!(seen, full);

        // Same DOP, same boundaries: partitioning is deterministic.
        let again = t.partition_keys(&store, dop, ALL).unwrap();
        prop_assert_eq!(
            again.iter().map(|p| p.leaves().to_vec()).collect::<Vec<_>>(),
            parts.iter().map(|p| p.leaves().to_vec()).collect::<Vec<_>>()
        );
    }

    /// The scan-accounting contract (the test that would have caught the
    /// `absorb_scan` head drift): after **any interleaving** of scans at
    /// DOP ∈ {1, 2, 4, 8} — worker reads shuffled by an arbitrary
    /// schedule, caches cleared or kept between scans, pools small enough
    /// to evict mid-scan — pool residency (set *and* recency order), the
    /// merged `IoStats`, and the simulated seek position all match the
    /// all-serial run exactly.
    #[test]
    fn scan_accounting_is_dop_invariant(
        rows in 800i64..2200,
        pool_choice in 0usize..3,
        scans in prop::collection::vec((0usize..4, any::<bool>()), 1..4),
        schedule in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        // Pools small enough to evict mid-scan, in both the single-shard
        // and the 16-way-striped regime.
        let pool_pages = [16usize, 24, 64][pool_choice];
        let (mut serial_store, serial_table) = scan_fixture(rows, pool_pages);
        let (mut par_store, par_table) = scan_fixture(rows, pool_pages);
        for &(dop_choice, clear) in &scans {
            let dop = [1usize, 2, 4, 8][dop_choice];
            if clear {
                serial_store.clear_cache();
                par_store.clear_cache();
            }
            let a = run_scan(&mut serial_store, &serial_table, 1, &[0]);
            let b = run_scan(&mut par_store, &par_table, dop, &schedule);
            // Per-scan merged counters are exactly serial.
            prop_assert!(a == b, "scan at dop {dop} diverged: {a:?} vs {b:?}");
        }
        // End-state: counters, head, and the live pool (residency AND
        // recency order) are bit-identical to the serial history.
        prop_assert_eq!(serial_store.stats(), par_store.stats());
        prop_assert_eq!(serial_store.seek_position(), par_store.seek_position());
        prop_assert_eq!(
            serial_store.pool().keys_mru_order(),
            par_store.pool().keys_mru_order()
        );
    }
}

// ---------------------------------------------------------------------------
// The batch body of a partition scan against the row body
// ---------------------------------------------------------------------------

/// A deterministic stream of draws for the fixtures below.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// A table of random shape: `types` picks each column's type (0–3 the
/// numeric types, 4 a `Blob`, the fourth and later `Blob`s demoted to
/// `I32`), every other key from 0 holds a row, and the cells come from
/// `seed` — blob cells a mix of empty, short, leaf-filling and out-of-row
/// values. Bulk-loaded, then churned a little so leaves carry dead space
/// and slot directories out of append order.
fn shaped_table(types: &[u8], rows: usize, seed: u64) -> (PageStore, Table) {
    let mut blobs = 0;
    let cols: Vec<(String, ColType)> = types
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let ctype = match t {
                0 => ColType::I64,
                1 => ColType::I32,
                2 => ColType::F64,
                3 => ColType::F32,
                _ if blobs < 3 => {
                    blobs += 1;
                    ColType::Blob
                }
                _ => ColType::I32,
            };
            (format!("c{i}"), ctype)
        })
        .collect();
    let named: Vec<(&str, ColType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::new(&named);
    let mut draws = Draws(seed);
    let mut cells = |key: i64| -> Vec<RowValue> {
        schema
            .columns
            .iter()
            .map(|c| {
                let d = draws.next();
                match c.ctype {
                    ColType::I64 => RowValue::I64(d as i64 ^ key),
                    ColType::I32 => RowValue::I32(d as i32),
                    ColType::F64 => RowValue::F64(d as i32 as f64 * 0.25),
                    ColType::F32 => RowValue::F32(d as i16 as f32 * 0.5),
                    ColType::Blob => {
                        let len = match d % 40 {
                            0 => 8001 + (d >> 8) as usize % 600, // out of row
                            1..=2 => 700,
                            3..=8 => 0,
                            _ => (d >> 8) as usize % 90,
                        };
                        RowValue::Bytes((0..len).map(|i| (d as usize + i) as u8).collect())
                    }
                }
            })
            .collect()
    };
    let mut store = PageStore::new();
    let mut t = Table::create(&mut store, "T", schema.clone()).unwrap();
    let loaded: Vec<_> = (0..rows as i64).map(|i| (2 * i, cells(2 * i))).collect();
    t.bulk_load(&mut store, &loaded, 1).unwrap();
    for i in 0..rows as i64 / 8 {
        let k = 16 * i;
        assert!(one(&mut t, &mut store, k + 2, RowOp::Delete));
        t.insert(&mut store, k + 1, &cells(k + 1)).unwrap();
        assert!(one(&mut t, &mut store, k, RowOp::Update(cells(k).into())));
    }
    (store, t)
}

/// A projection drawn from `seed`: a subset of the schema's columns, in
/// any order.
fn projection(columns: usize, seed: u64) -> Vec<usize> {
    let mut draws = Draws(seed);
    let mut cols: Vec<usize> = (0..columns).collect();
    for i in (1..cols.len()).rev() {
        cols.swap(i, draws.next() as usize % (i + 1));
    }
    cols.truncate(draws.next() as usize % (columns + 1));
    cols
}

/// Row `i` of a batch lane as the row decoder would return it.
fn lane_value(lane: &ColVec, i: usize) -> RowValue {
    match lane {
        ColVec::I64(v) => RowValue::I64(v[i]),
        ColVec::I32(v) => RowValue::I32(v[i]),
        ColVec::F64(v) => RowValue::F64(v[i]),
        ColVec::F32(v) => RowValue::F32(v[i]),
        ColVec::Blob { bytes, lob } => match lob[i] {
            Some((id, len)) => {
                assert!(bytes.get(i).is_empty(), "an out-of-row cell holds no bytes");
                RowValue::LobRef(id, len)
            }
            None => RowValue::Bytes(bytes.get(i).to_vec()),
        },
    }
}

/// A scanned row: its key and its projected cells, in projection order.
type ScannedRow = (i64, Vec<RowValue>);

/// The row body over one partition: `scan_partition` + `decode_col`, the
/// columns decoded in schema order as a row visitor would reach them.
fn row_body(
    store: &PageStore,
    table: &Table,
    part: &ScanPartition,
    cols: &[usize],
) -> (Result<Vec<ScannedRow>, String>, IoStats) {
    let scan = store.begin_scan();
    let mut r = store.reader(&scan, 0);
    let mut in_schema_order = cols.to_vec();
    in_schema_order.sort_unstable();
    let mut rows = Vec::new();
    let outcome = table.scan_partition(&mut r, part, |_, key, bytes| {
        let mut cells = vec![RowValue::I64(0); cols.len()];
        for &c in &in_schema_order {
            let at = cols.iter().position(|&p| p == c).unwrap();
            cells[at] = row::decode_col(table.schema(), bytes, c)?;
        }
        rows.push((key, cells));
        Ok(true)
    });
    (
        outcome.map(|()| rows).map_err(|e| e.to_string()),
        r.finish().io,
    )
}

/// The batch body over one partition: the rows of every flush (`f`
/// returns `false` on flush number `stop_at`, never for 0), the size of
/// each flush, and the scan's I/O.
fn batch_body(
    store: &PageStore,
    table: &Table,
    part: &ScanPartition,
    opts: BatchScanOpts<'_>,
    stop_at: usize,
) -> (Result<Vec<ScannedRow>, String>, Vec<usize>, IoStats) {
    let scan = store.begin_scan();
    let mut r = store.reader(&scan, 0);
    let mut batch = row::new_batch(table.schema(), opts.cols).unwrap();
    let (mut rows, mut fills) = (Vec::new(), Vec::new());
    let outcome = table.scan_partition_batches(&mut r, part, opts, &mut batch, |_, b| {
        assert!(b.cols.iter().all(|lane| lane.len() == b.len()));
        for (i, &key) in b.keys.iter().enumerate() {
            rows.push((key, b.cols.iter().map(|lane| lane_value(lane, i)).collect()));
        }
        fills.push(b.len());
        Ok(fills.len() != stop_at)
    });
    (
        outcome.map(|()| rows).map_err(|e| e.to_string()),
        fills,
        r.finish().io,
    )
}

proptest! {
    /// The batch body is the row body read column by column: for any
    /// schema, projection (subset *and* order), key interval, DOP, batch
    /// cap, leaf alignment and early stop, every flushed lane holds what
    /// `scan_partition` + `decode_col` return row for row; a flush happens
    /// exactly when the batch reaches the cap, at each leaf end if
    /// leaf-aligned, and once for the remainder; a callback that stops
    /// the scan has seen no row past its last batch; and both bodies read
    /// the same pages.
    #[test]
    fn batch_scan_is_the_row_scan_column_by_column(
        types in prop::collection::vec(0u8..6, 1..=6),
        shape in (0usize..260, any::<u64>(), any::<u64>()),
        ends in (-20i64..540, -20i64..540, 0u8..4),
        knobs in (0usize..3, any::<bool>(), 0usize..5, 1usize..=4),
    ) {
        let (rows, seed, pick) = shape;
        let (store, t) = shaped_table(&types, rows, seed);
        let cols = projection(types.len(), pick);
        let keys = match ends {
            (_, _, 0) => ALL,
            (lo, _, 1) => lo..=i64::MAX,
            (_, hi, 2) => i64::MIN..=hi,
            (lo, hi, _) => lo..=hi, // inverted and empty ones included
        };
        let (cap_choice, leaf_aligned, stop_at, dop) = knobs;
        let rows_cap = [1usize, 7, 1024][cap_choice];
        let opts = BatchScanOpts { cols: &cols, rows_cap, leaf_aligned };

        // Rows per leaf inside the interval: one partition per leaf.
        let leaves = t.partition_keys(&store, usize::MAX, keys.clone()).unwrap();
        let mut rows_in_leaf = BTreeMap::new();
        for leaf in leaves.iter().filter(|p| !p.leaves().is_empty()) {
            prop_assert_eq!(leaf.leaves().len(), 1);
            let (in_leaf, _) = row_body(&store, &t, leaf, &[]);
            rows_in_leaf.insert(leaf.leaves()[0], in_leaf.unwrap().len());
        }

        for part in t.partition_keys(&store, dop, keys.clone()).unwrap() {
            let (expect, row_io) = row_body(&store, &t, &part, &cols);
            let mut expect = expect.unwrap();
            let (got, fills, batch_io) = batch_body(&store, &t, &part, opts, stop_at);

            let mut flushes = Vec::new();
            let mut held = 0;
            for pid in part.leaves() {
                for _ in 0..rows_in_leaf[pid] {
                    held += 1;
                    if held == rows_cap {
                        flushes.push(std::mem::take(&mut held));
                    }
                }
                if leaf_aligned && held > 0 {
                    flushes.push(std::mem::take(&mut held));
                }
            }
            flushes.extend((held > 0).then_some(held));
            if (1..=flushes.len()).contains(&stop_at) {
                flushes.truncate(stop_at);
                expect.truncate(flushes.iter().sum());
            } else {
                prop_assert_eq!(batch_io, row_io);
            }
            prop_assert_eq!(fills, flushes);
            prop_assert_eq!(got.unwrap(), expect);
        }
    }

    /// A damaged leaf fails both scan bodies alike, and panics neither: a
    /// row cut short anywhere, a blob tag that is neither inline nor LOB,
    /// a record shorter than its key, a slot entry that leaves the record
    /// area and a slot count that overruns the page each surface as the
    /// same typed error text from the row body and from the batch body —
    /// or, where the damage lies behind the last projected column, go
    /// unseen by both. (The page is rewritten through `PageStore::write`,
    /// so its checksum is re-stamped and the damage reaches the decoders.)
    #[test]
    fn damaged_leaves_fail_alike_on_both_scan_bodies(
        types in prop::collection::vec(0u8..6, 1..=6),
        shape in (1usize..120, any::<u64>(), any::<u64>()),
        damage in (0u8..5, any::<u16>(), any::<u16>()),
        knobs in (0usize..3, any::<bool>()),
    ) {
        let (rows, seed, pick) = shape;
        let (mut store, t) = shaped_table(&types, rows, seed);
        let cols = projection(types.len(), pick);
        let (cap_choice, leaf_aligned) = knobs;
        let opts = BatchScanOpts { cols: &cols, rows_cap: [1usize, 7, 1024][cap_choice], leaf_aligned };

        let part = t.partition_keys(&store, 1, ALL).unwrap().remove(0);
        let (kind, which, how) = damage;
        let pid = part.leaves()[which as usize % part.leaves().len()];
        store.write(pid, |page| {
            let slots = u16::from_le_bytes([page[2], page[3]]) as usize;
            assert!(slots > 0, "the churn empties no leaf");
            let entry = PAGE_SIZE - 4 * (1 + which as usize % slots);
            let off = u16::from_le_bytes([page[entry], page[entry + 1]]) as usize;
            let len = u16::from_le_bytes([page[entry + 2], page[entry + 3]]) as usize;
            match kind {
                // A row cut short: anywhere from inside the key to one byte shy.
                0 => {
                    let cut = (how as usize % len.max(1)) as u16;
                    page[entry + 2..entry + 4].copy_from_slice(&cut.to_le_bytes());
                }
                // A byte of the row flipped to a value no blob tag has
                // (harmless where it lands in a numeric cell or a payload).
                1 => page[off + 8 + how as usize % (len - 8).max(1)] = 2 + (how >> 8) as u8 % 250,
                // A record shorter than its key.
                2 => page[entry + 2..entry + 4].copy_from_slice(&(how % 8).to_le_bytes()),
                // A slot entry reaching into, or past, the slot directory.
                3 => {
                    let far = (PAGE_SIZE - 4 * slots - off + 1 + how as usize % 70_000).min(65_535);
                    page[entry + 2..entry + 4].copy_from_slice(&(far as u16).to_le_bytes());
                }
                // A slot count whose directory runs over the page header.
                _ => page[2..4].copy_from_slice(&(2045 + how % 63_000).to_le_bytes()),
            }
        }).unwrap();
        store.clear_cache(); // the next read verifies the re-stamped checksum

        let (by_row, _) = row_body(&store, &t, &part, &cols);
        let (by_batch, _, _) = batch_body(&store, &t, &part, opts, 0);
        match (by_row, by_batch) {
            (Ok(a), Ok(b)) => {
                prop_assert!(kind <= 1, "damage of kind {kind} went unseen");
                prop_assert_eq!(a, b);
            }
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }
    }
}

// ---------------------------------------------------------------------------
// What a row-sized change logs
// ---------------------------------------------------------------------------

/// One leaf, half full: 35 rows of ~110 bytes under the even keys 0..=68,
/// committed. A slotted page keeps its header at byte 0 and its slot
/// directory at byte 8191, so any change to this leaf spans the page.
fn half_full_leaf() -> (PageStore, Table) {
    one_leaf(35)
}

/// One leaf of `rows` rows of ~110 bytes under the even keys, committed.
fn one_leaf(rows: i64) -> (PageStore, Table) {
    let mut store = PageStore::new();
    let schema = Schema::new(&[
        ("id", ColType::I64),
        ("tag", ColType::I32),
        ("v", ColType::Blob),
    ]);
    let mut t = Table::create(&mut store, "T", schema).unwrap();
    let rows: Vec<_> = (0..rows).map(|i| (2 * i, small_row(2 * i, 0))).collect();
    t.bulk_load(&mut store, &rows, 1).unwrap();
    store.commit(b"loaded");
    assert_eq!(t.data_pages(&mut store).unwrap(), 1);
    (store, t)
}

fn small_row(k: i64, tag: i32) -> Vec<RowValue> {
    let blob = (0..80).map(|i| (k as u8).wrapping_mul(7) ^ i).collect();
    vec![RowValue::I64(k), RowValue::I32(tag), RowValue::Bytes(blob)]
}

/// WAL bytes `op` appends, frames and all.
fn logged(store: &mut PageStore, op: impl FnOnce(&mut PageStore)) -> u64 {
    let before = store.stats().wal_bytes;
    op(store);
    store.stats().wal_bytes - before
}

/// The log carries what a statement changed, not the page it changed it
/// on. At the parent of the change that introduced run-list write frames
/// (one span per write, first to last differing byte) the four figures
/// below read 8 146, 8 150, 31 and 1 618 863 bytes.
#[test]
fn row_sized_changes_log_row_sized_frames() {
    let (mut store, mut t) = half_full_leaf();
    // Mid-leaf: half of the slot directory shifts.
    let insert = logged(&mut store, |s| t.insert(s, 35, &small_row(35, 1)).unwrap());
    assert!(insert < 512, "insert logged {insert} bytes");
    let delete = logged(&mut store, |s| assert!(one(&mut t, s, 34, RowOp::Delete)));
    assert!(delete < 400, "delete logged {delete} bytes");
    let update = logged(&mut store, |s| {
        assert!(one(&mut t, s, 20, RowOp::Update(small_row(20, 77).into())))
    });
    assert!(update < 64, "in-place I32 update logged {update} bytes");

    // 100 inserts (the first 34 between existing rows, the rest appended,
    // splitting the leaf as it fills) and the 100 deletes that undo them.
    let (mut store, mut t) = half_full_leaf();
    let churn = logged(&mut store, |s| {
        for k in (1..200).step_by(2) {
            t.insert(s, k, &small_row(k, 1)).unwrap();
        }
        for k in (1..200).step_by(2) {
            assert!(one(&mut t, s, k, RowOp::Delete));
        }
    });
    assert!(
        churn < 1_618_863 / 8,
        "insert/delete churn logged {churn} bytes"
    );
}

/// An insert or a delete at the front of a leaf shifts its whole slot
/// directory, which the log names as a copy of the leaf's own bytes: on a
/// 72-row leaf each logs the record it writes, if any, and a fixed few
/// dozen bytes besides: 152 bytes for a 103-byte row, and 37. At the
/// parent of the change that logged moves within a page, the insert
/// logged 434 bytes and the two deletes 321 and 316.
#[test]
fn a_front_insert_or_delete_logs_the_row_not_the_directory() {
    let (mut store, mut t) = one_leaf(72);
    let rec = 8 + row::encode_row(&mut PageStore::new(), t.schema(), &small_row(-1, 1))
        .unwrap()
        .len() as u64;
    let insert = logged(&mut store, |s| t.insert(s, -1, &small_row(-1, 1)).unwrap());
    assert_eq!(
        t.data_pages(&mut store).unwrap(),
        1,
        "the insert fit the leaf"
    );
    assert!(
        insert <= rec + 64,
        "a {rec}-byte row's insert at slot 0 logged {insert} bytes"
    );
    for key in [-1, 0] {
        let delete = logged(&mut store, |s| assert!(one(&mut t, s, key, RowOp::Delete)));
        assert!(delete <= 64, "a delete at slot 0 logged {delete} bytes");
    }
}

/// Two leaves of ~110-byte rows under the even keys, bulk-loaded so the
/// first is full, committed; returns the first leaf's row count.
fn full_leaf() -> (PageStore, Table, i64) {
    let mut store = PageStore::new();
    let schema = Schema::new(&[
        ("id", ColType::I64),
        ("tag", ColType::I32),
        ("v", ColType::Blob),
    ]);
    let mut t = Table::create(&mut store, "T", schema).unwrap();
    let rows: Vec<_> = (0..100).map(|i| (2 * i, small_row(2 * i, 0))).collect();
    t.bulk_load(&mut store, &rows, 1).unwrap();
    store.commit(b"loaded");
    assert_eq!(t.data_pages(&mut store).unwrap(), 2);
    let first = leaf_of(&store, &t, 0);
    let held = (0..100)
        .take_while(|&i| leaf_of(&store, &t, 2 * i) == first)
        .count();
    (store, t, held as i64)
}

/// A split moves half a leaf to a fresh page, and the log names those
/// rows as bytes of the leaf they came from instead of carrying them. At
/// the parent of the change that introduced copy runs, the split below
/// logged 4 141 bytes over 4 frames (456 with them).
#[test]
fn a_mid_leaf_split_logs_the_moved_rows_by_reference() {
    let (mut store, mut t, held) = full_leaf();
    let before = store.stats();
    let split = logged(&mut store, |s| {
        t.insert(s, held + 1, &small_row(held + 1, 1)).unwrap()
    });
    let frames = store.stats().since(&before).wal_records;
    assert_eq!(
        t.data_pages(&mut store).unwrap(),
        3,
        "the insert split the leaf"
    );
    assert!(
        split < 1024,
        "a {held}-row leaf's split logged {split} bytes over {frames} frames"
    );
}

// ---------------------------------------------------------------------------
// Applying an op list: one write per leaf
// ---------------------------------------------------------------------------

/// A row of `T(id, v)` whose `v` is `len` bytes seeded by `k` and `len`:
/// 9 000 bytes lie out of row.
fn keyed_row(k: i64, len: usize) -> Vec<RowValue> {
    let blob = (0..len)
        .map(|i| (i as i64 * 7 + k + len as i64) as u8)
        .collect();
    vec![RowValue::I64(k), RowValue::Bytes(blob)]
}

/// `T(id, v)` bulk-loaded under `base`, then grown row at a time by
/// `inserts` (which split leaves), ~10 rows a leaf. With `lobs`, every
/// third row's `v` lies out of row, so deletes and updates free LOB
/// chains.
fn keyed_table(base: &BTreeSet<i64>, inserts: &[i64], lobs: bool) -> (PageStore, Table) {
    let row = |k: i64| match k.rem_euclid(3) {
        0 if lobs => keyed_row(k, 9000),
        _ => keyed_row(k, 600 + k.rem_euclid(200) as usize),
    };
    let mut store = PageStore::with_pool(64, DiskProfile::default());
    let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
    let mut t = Table::create(&mut store, "T", schema).unwrap();
    let loaded: Vec<_> = base.iter().map(|&k| (k, row(k))).collect();
    t.bulk_load(&mut store, &loaded, 1).unwrap();
    let mut held = base.clone();
    for &k in inserts {
        if held.insert(k) {
            t.insert(&mut store, k, &row(k)).unwrap();
        }
    }
    store.commit(b"built");
    (store, t)
}

/// The leaf that holds `key`, found from the index's upper levels.
fn leaf_of(store: &PageStore, t: &Table, key: i64) -> PageId {
    let parts = t.partition_keys(store, 1, key..=key).unwrap();
    parts[0].leaves()[0]
}

/// Every page, the page count and the free list of two stores are equal.
fn assert_same_store(a: &PageStore, b: &PageStore) {
    assert_eq!(a.page_count(), b.page_count());
    for p in 0..a.page_count() {
        assert!(a.raw_page(p) == b.raw_page(p), "page {p} differs");
    }
    assert_eq!(a.free_pages(), b.free_pages());
}

/// What an op list does to one key: `(kind, size)` picks delete, update
/// or insert (an update, for a held key), and a `v` that is short, grown
/// to half a leaf, near a page, or out of row (with `lobs`).
fn op_rows(
    keys: &[i64],
    held: &[i64],
    picks: &[(u8, u8)],
    lobs: bool,
) -> Vec<(i64, Option<Vec<RowValue>>, bool)> {
    keys.iter()
        .enumerate()
        .map(|(j, &k)| {
            let (kind, size) = picks[j % picks.len()];
            let len = match size {
                0 => 600 + (j * 37) % 200,
                1 => 2500 + (j * 91) % 1000,
                2 => 7000,
                _ if lobs => 9000,
                _ => 700,
            };
            let insert = kind == 2 && held.binary_search(&k).is_err();
            (k, (kind > 0).then(|| keyed_row(k, len)), insert)
        })
        .collect()
}

/// The `RowOp`s of [`op_rows`].
fn row_ops(rows: &[(i64, Option<Vec<RowValue>>, bool)]) -> Vec<(i64, RowOp<'_>)> {
    rows.iter()
        .map(|(k, values, insert)| match (values, insert) {
            (None, _) => (*k, RowOp::Delete),
            (Some(v), true) => (*k, RowOp::Insert(v.into())),
            (Some(v), false) => (*k, RowOp::Update(v.into())),
        })
        .collect()
}

proptest! {
    /// `Table::apply` over an op list is `Table::apply` op by op: over
    /// bulk-built trees grown by splitting inserts, and ascending lists
    /// that mix inserts, updates and deletes of present and absent keys —
    /// short rows, replacements grown until their leaf compacts or splits,
    /// rows moving out of row and back, sparse, dense, the first and the
    /// last leaf — it changes the same rows and leaves the same row count,
    /// leaf count, page bytes (stale directory entries included), page
    /// count and free list. Over inline rows that split no leaf it writes
    /// exactly one page per leaf it changed.
    #[test]
    fn apply_is_op_by_op(
        base in prop::collection::btree_set(0i64..3000, 0..300),
        inserts in prop::collection::vec(0i64..3000, 0..120),
        window in (-20i64..3020, 0i64..3040),
        picks in prop::collection::vec((0u8..3, 0u8..4), 1..16),
        knobs in (0u64..4, any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let (density, first, last, lobs) = knobs;
        let (mut store, mut t) = keyed_table(&base, &inserts, lobs);
        let stored: Vec<i64> = base.iter().chain(&inserts).copied().collect::<BTreeSet<_>>()
            .into_iter().collect();
        let every = [1u64, 2, 5, 17][density as usize];
        let mut keys: BTreeSet<i64> = (window.0..=window.0 + window.1)
            .filter(|&k| (k as u64).wrapping_mul(0x9E37_79B9) % every == 0)
            .collect();
        keys.extend(stored.first().filter(|_| first));
        keys.extend(stored.last().filter(|_| last));
        let keys: Vec<i64> = keys.into_iter().collect();
        let rows = op_rows(&keys, &stored, &picks, lobs);
        let ops = row_ops(&rows);

        // The leaves an op changes: a held key's update or delete, a
        // fresh key's insert.
        let leaves: BTreeSet<PageId> = ops
            .iter()
            .filter(|(k, op)| matches!(op, RowOp::Insert(_)) != stored.binary_search(k).is_ok())
            .map(|&(k, _)| leaf_of(&store, &t, k))
            .collect();
        let (before, pages) = (store.stats(), store.page_count());
        let changed = apply_ops(&mut t, &mut store, &ops).unwrap();
        let written = store.stats().since(&before).pages_written;

        let (mut one_by_one, mut u) = keyed_table(&base, &inserts, lobs);
        let mut want = 0;
        for op in &ops {
            want += apply_ops(&mut u, &mut one_by_one, std::slice::from_ref(op)).unwrap();
        }
        prop_assert_eq!(changed, want);
        prop_assert_eq!(t.row_count(), u.row_count());
        prop_assert_eq!(t.data_pages(&mut store).unwrap(), u.data_pages(&mut one_by_one).unwrap());
        assert_same_store(&store, &one_by_one);
        if !lobs && store.page_count() == pages {
            prop_assert_eq!(written, leaves.len() as u64);
        }
    }
}

/// An op list that fails at op `i` — an insert of a held key, whose row
/// would spill a LOB chain — leaves the store as applying ops `0..i` one
/// at a time leaves it: every page, the page count and the free list.
#[test]
fn an_error_mid_list_leaves_the_ops_before_it() {
    let base: BTreeSet<i64> = (0..120).map(|k| 3 * k).collect();
    let held: Vec<i64> = base.iter().copied().collect();
    let keys: Vec<i64> = (30..150).step_by(7).collect();
    let rows = op_rows(
        &keys,
        &held,
        &[(1, 3), (0, 0), (2, 1), (1, 2), (2, 3)],
        true,
    );
    let dup = keyed_row(0, 9000);
    let mut failed = 0;
    for (i, &key) in keys.iter().enumerate() {
        if held.binary_search(&key).is_err() {
            continue;
        }
        let mut ops = row_ops(&rows);
        ops[i].1 = RowOp::Insert(Cow::Borrowed(&dup));
        let (mut store, mut t) = keyed_table(&base, &[], true);
        let got = apply_ops(&mut t, &mut store, &ops);
        assert!(
            matches!(got, Err(StorageError::DuplicateKey { key: k }) if k == key),
            "op {i}: {got:?}"
        );
        let (mut one_by_one, mut u) = keyed_table(&base, &[], true);
        for op in &ops[..i] {
            apply_ops(&mut u, &mut one_by_one, std::slice::from_ref(op)).unwrap();
        }
        assert_same_store(&store, &one_by_one);
        assert_eq!(t.row_count(), u.row_count());
        failed += 1;
    }
    assert!(failed >= 5, "{failed} refused inserts");
}

/// A key list out of order, or with a repeat, is refused before anything
/// is written: not a page, not a WAL byte, not a row.
#[test]
fn a_key_list_out_of_order_is_refused_before_any_write() {
    let base: BTreeSet<i64> = (0..200).collect();
    let (mut store, mut t) = keyed_table(&base, &[], true);
    let deletes = |keys: &[i64]| -> Vec<(i64, RowOp<'static>)> {
        keys.iter().map(|&k| (k, RowOp::Delete)).collect()
    };
    for keys in [&[5i64, 3][..], &[1, 2, 9, 9], &[0, 150, 149]] {
        let before = store.stats();
        let got = apply_ops(&mut t, &mut store, &deletes(keys));
        assert!(
            matches!(got, Err(StorageError::KeysNotAscending { .. })),
            "{keys:?}: {got:?}"
        );
        let d = store.stats().since(&before);
        assert_eq!((d.wal_bytes, d.wal_records, d.pages_written), (0, 0, 0));
        assert_eq!(t.row_count(), 200);
    }
    assert_eq!(apply_ops(&mut t, &mut store, &[]).unwrap(), 0);
    assert_eq!(
        apply_ops(&mut t, &mut store, &deletes(&[-1, 0, 199, 200])).unwrap(),
        2
    );
}
