//! Clustered tables: schema + B-tree + blob store, with storage accounting.
//!
//! Rows change through one call, [`Table::apply`]: a strictly ascending
//! key list whose op turns each key's stored row into an insert, an
//! update, a delete or nothing, applied leaf by leaf by the B-tree's one
//! write routine ([`BTree::apply`]). Each op validates its row before it
//! spills a blob, and frees the LOB chains its old row loses, at its own
//! turn. [`Table::insert`] is that call with one op;
//! [`Table::bulk_load`] fills an empty table.

use crate::blob;
use crate::btree::{self, BTree, Edit};
use crate::errors::{Result, StorageError};
use crate::page::{page_type, PageId, SlottedRead};
use crate::row::{self, BatchDecoder, RowCursor, RowValue, Schema, INLINE_BLOB_LIMIT};
use crate::store::{PageRead, PageStore, PartitionReader};
use sqlarray_core::batch::Batch;
use sqlarray_core::le;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::{Range, RangeInclusive};

/// One contiguous chunk of a clustered-index scan: a run of leaf pages in
/// key order plus the key interval the scan is restricted to, produced by
/// [`Table::partition_keys`] and consumed by [`Table::scan_partition`].
/// Partitions of one call are disjoint and concatenate (in production
/// order) to the leaves the interval covers, so scanning them in order —
/// serially or on parallel workers — visits exactly the rows of a full
/// scan whose keys lie in the interval, in the same order.
#[derive(Debug, Clone)]
pub struct ScanPartition {
    leaves: Vec<PageId>,
    keys: RangeInclusive<i64>,
}

impl ScanPartition {
    /// The leaf pages of this partition, in key order.
    pub fn leaves(&self) -> &[PageId] {
        &self.leaves
    }
}

/// Options for [`Table::scan_partition_batches`].
#[derive(Debug, Clone, Copy)]
pub struct BatchScanOpts<'a> {
    /// Schema column indices to decode, in batch-column order.
    pub cols: &'a [usize],
    /// Flush the batch to the callback once it holds this many rows
    /// (clamped to ≥ 1), even mid-leaf.
    pub rows_cap: usize,
    /// Additionally flush at every leaf-page boundary, so callers that
    /// resolve out-of-row LOB values per batch keep the page-read
    /// interleaving identical to the row-at-a-time scan.
    pub leaf_aligned: bool,
}

/// What [`Table::apply`]'s op makes of one key's row. The values are
/// borrowed or owned, so a caller that holds its row copies nothing.
#[derive(Debug, Clone)]
pub enum RowOp<'a> {
    /// A new row; its key must not be held.
    Insert(Cow<'a, [RowValue]>),
    /// The row that replaces the one held under the key, if any.
    Update(Cow<'a, [RowValue]>),
    /// Removes the row held under the key, if any.
    Delete,
    /// Leaves the key as it is.
    Keep,
}

/// A clustered table. Rows are stored in the leaf level of a B+tree in key
/// order; blob columns spill to the LOB store past the in-row limit.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    tree: BTree,
}

impl Table {
    /// Creates an empty table.
    pub fn create(store: &mut PageStore, name: &str, schema: Schema) -> Result<Table> {
        Ok(Table {
            name: name.to_string(),
            schema,
            tree: BTree::create(store)?,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.tree.len()
    }

    /// Inserts a row under the clustered key: [`apply`](Self::apply) with
    /// one [`RowOp::Insert`].
    pub fn insert(&mut self, store: &mut PageStore, key: i64, values: &[RowValue]) -> Result<()> {
        self.apply(store, &[key], |_, _, _| Ok(RowOp::Insert(values.into())))
            .map(drop)
    }

    /// Applies `op`'s verdict to each of `keys` — strictly ascending, or
    /// refused with [`StorageError::KeysNotAscending`] before anything is
    /// written — through the one B-tree write routine ([`BTree::apply`]):
    /// the rows one leaf holds change in one page write. `op(store, i,
    /// old)` sees key `i`'s stored row encoding (`None` when the key is
    /// absent; [`row::decode_row`] reads it) and may fail with an error of
    /// its own type. Returns how many rows were inserted, replaced or
    /// deleted.
    ///
    /// Each verdict, at its key's turn, is first checked against the key
    /// (an insert of a held key is [`StorageError::DuplicateKey`]; an
    /// update or delete of an absent one does nothing), then the new row
    /// is validated — arity, types and the leaf-record limit — before a
    /// blob is spilled, so a refused row leaves no LOB chain behind. Blob
    /// values past the in-row limit spill through the LOB writer; the
    /// replaced row's out-of-page chains that the new row does not keep
    /// come back through `blob::free_blob` (a pass-through `LobRef`
    /// keeps its chain — the engine's in-place `ArrayUpdate` relies on
    /// that), so repeated UPDATEs recycle pages instead of growing the
    /// file. Spills and frees happen in the order one call per key makes
    /// them, so every page and the free list are those a call per key
    /// leaves.
    pub fn apply<'a, E: From<StorageError>>(
        &mut self,
        store: &mut PageStore,
        keys: &[i64],
        mut op: impl FnMut(&mut PageStore, usize, Option<&[u8]>) -> std::result::Result<RowOp<'a>, E>,
    ) -> std::result::Result<u64, E> {
        let schema = &self.schema;
        let (mut old_ids, mut kept) = (Vec::new(), Vec::new());
        self.tree.apply(store, keys, |store, i, old| {
            let values = match (op(store, i, old)?, old) {
                (RowOp::Insert(_), Some(_)) => {
                    return Err(StorageError::DuplicateKey { key: keys[i] }.into())
                }
                (RowOp::Keep, _) | (RowOp::Update(_) | RowOp::Delete, None) => {
                    return Ok(Edit::Keep)
                }
                (RowOp::Insert(values) | RowOp::Update(values), _) => Some(values),
                (RowOp::Delete, Some(_)) => None,
            };
            // LOB ids come from the encoded images directly: decoding the
            // rows would copy every inline blob just to drop it.
            if let Some(old) = old {
                row::lob_refs(schema, old, &mut old_ids)?;
            }
            let payload = match values {
                Some(values) => {
                    // Refuse the row before a blob of it spills.
                    row::encoded_len(schema, &values)?;
                    Some(row::encode_row(store, schema, &values)?)
                }
                None => None,
            };
            if let Some(new) = &payload {
                row::lob_refs(schema, new, &mut kept)?;
            }
            for id in old_ids.drain(..) {
                if !kept.contains(&id) {
                    blob::free_blob(store, id)?;
                }
            }
            kept.clear();
            Ok(payload.map_or(Edit::Delete, Edit::Put))
        })
    }

    /// Bulk-loads an **empty** table from rows sorted by strictly
    /// increasing key — the parallel ingest path.
    ///
    /// The pipeline has four stages:
    /// 1. *LOB pre-pass* (serial): blob values over the in-row limit are
    ///    spilled to the LOB store in row order, exactly as row-at-a-time
    ///    inserts would have written them;
    /// 2. *row encoding* (parallel, `dop` lanes): each worker encodes a
    ///    contiguous row range with `row::encode_row_inline` — pure CPU,
    ///    no store access;
    /// 3. *leaf building* (parallel): [`BTree::bulk_build`] packs the
    ///    encoded rows into leaf page images on worker threads;
    /// 4. *append + index build* (serial): images land in the file in page
    ///    order and the internal levels are assembled on top.
    ///
    /// Stages 2–3 are the hot part of an ingest and scale with `dop`;
    /// stages 1 and 4 mutate the store and stay serial, so the resulting
    /// layout, pool state and [`crate::IoStats`] are identical at every
    /// `dop`.
    pub fn bulk_load(
        &mut self,
        store: &mut PageStore,
        rows: &[(i64, Vec<RowValue>)],
        dop: usize,
    ) -> Result<()> {
        if !self.tree.is_empty() {
            return Err(StorageError::BulkLoad(format!(
                "table `{}` is not empty ({} rows)",
                self.name,
                self.tree.len()
            )));
        }
        if rows.is_empty() {
            return Ok(()); // keep the existing (empty) root leaf
        }
        // Pre-flight validation, before anything touches the store: a
        // rejected load must not leave orphaned LOB pages, a warmed pool,
        // or drifted I/O counters behind. Key order, arity, column types,
        // and the post-spill record size are all checkable without
        // encoding a byte.
        crate::btree::validate_bulk_key_order(rows.iter().map(|(k, _)| *k))?;
        for (_, values) in rows {
            row::encoded_len(&self.schema, values)?;
        }

        // Stage 1: spill oversized blobs serially (store mutation), so the
        // parallel encoders never need the store.
        let oversized =
            |v: &RowValue| matches!(v, RowValue::Bytes(b) if b.len() > INLINE_BLOB_LIMIT);
        let mut spilled: HashMap<usize, Vec<RowValue>> = HashMap::new();
        for (i, (_, values)) in rows.iter().enumerate() {
            if values.iter().any(oversized) {
                let mut replaced = values.clone();
                for v in replaced.iter_mut() {
                    if oversized(v) {
                        let RowValue::Bytes(b) = &*v else {
                            unreachable!()
                        };
                        let len = b.len() as u64;
                        let id = blob::write_blob(store, b)?;
                        *v = RowValue::LobRef(id, len);
                    }
                }
                spilled.insert(i, replaced);
            }
        }

        // Stage 2: encode rows in parallel.
        let schema = &self.schema;
        let encode = |i: usize| -> Result<Vec<u8>> {
            let values = spilled.get(&i).map(Vec::as_slice).unwrap_or(&rows[i].1);
            row::encode_row_inline(schema, values)
        };
        let chunks = sqlarray_core::parallel::scoped_map_ranges(rows.len(), dop.max(1), |r| {
            r.map(encode).collect::<Result<Vec<_>>>()
        });
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(rows.len());
        for chunk in chunks {
            payloads.extend(chunk?);
        }

        // Stages 3–4: build the clustered index, recycling the empty
        // table's root leaf as the first data leaf so no page is orphaned.
        // Keys were validated above, before the LOB pre-pass.
        let entries: Vec<(i64, Vec<u8>)> = rows.iter().map(|(k, _)| *k).zip(payloads).collect();
        self.tree =
            BTree::bulk_build_prevalidated(store, &entries, dop, Some(self.tree.root_page()))?;
        Ok(())
    }

    /// The tree geometry needed to re-open this table from a catalog:
    /// `(root, first leaf, row count, depth)`.
    pub fn tree_parts(&self) -> (PageId, PageId, u64, u32) {
        self.tree.parts()
    }

    /// Reconstructs a table from its catalog entry — the inverse of
    /// ([`Self::name`], [`Self::schema`], [`Self::tree_parts`]).
    pub fn from_parts(name: String, schema: Schema, parts: (PageId, PageId, u64, u32)) -> Table {
        Table {
            name,
            schema,
            tree: BTree::from_parts(parts.0, parts.1, parts.2, parts.3),
        }
    }

    /// Point lookup by clustered key, decoding the full row.
    pub fn get(&self, store: &mut PageStore, key: i64) -> Result<Option<Vec<RowValue>>> {
        match self.tree.get(store, key)? {
            Some(bytes) => Ok(Some(row::decode_row(&self.schema, &bytes)?)),
            None => Ok(None),
        }
    }

    /// Point lookup of one column.
    pub fn get_col(&self, store: &mut PageStore, key: i64, col: usize) -> Result<Option<RowValue>> {
        match self.tree.get(store, key)? {
            Some(bytes) => Ok(Some(row::decode_col(&self.schema, &bytes, col)?)),
            None => Ok(None),
        }
    }

    /// [`partition_keys`](Self::partition_keys) over every key. Kept only
    /// because `benchmark/src/probes.rs` calls it with two arguments and
    /// engine changes may not edit the benchmark; everything else passes
    /// its interval.
    pub fn partition(&self, store: &PageStore, dop: usize) -> Result<Vec<ScanPartition>> {
        self.partition_keys(store, dop, i64::MIN..=i64::MAX)
    }

    /// Splits the leaves that can hold a key of `keys` into at most `dop`
    /// contiguous [`ScanPartition`]s of near-equal page count, in key
    /// order — the one range scan: `i64::MIN..=i64::MAX` is the full
    /// clustered-index scan, `k..=k` a seek. The leaf list comes from the
    /// index upper levels (`BTree::leaf_page_ids`: no leaf reads, and
    /// only the root-to-leaf paths the interval covers); the same `dop`
    /// always produces the same boundaries, and any `dop` produces
    /// partitions that concatenate to the same scan. There is always at
    /// least one partition: an empty table yields one holding the empty
    /// root leaf, an empty interval one holding no leaf at all.
    ///
    /// Takes `&PageStore`: the internal-level walk runs through its own
    /// one-partition scan (snapshot-classified [`PartitionReader`], folded
    /// back via `finish_scan`), so its accounting does not depend on `dop`
    /// and concurrent sessions can partition the same table under a shared
    /// read lock.
    pub fn partition_keys(
        &self,
        store: &PageStore,
        dop: usize,
        keys: RangeInclusive<i64>,
    ) -> Result<Vec<ScanPartition>> {
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let leaves = self.tree.leaf_page_ids(&mut r, &keys)?;
        let io = r.finish();
        store.finish_scan([&io]);
        let mut ranges = sqlarray_core::parallel::partition_ranges(leaves.len(), dop.max(1));
        if ranges.is_empty() {
            ranges.push(0..0);
        }
        Ok(ranges
            .into_iter()
            .map(|r| ScanPartition {
                leaves: leaves[r].to_vec(),
                keys: keys.clone(),
            })
            .collect())
    }

    /// Scans one partition through a worker's [`PartitionReader`]. `f`
    /// sees `(reader, key, encoded row)` for every row of the partition's
    /// leaves inside its key interval, in key order, and returns `true` to
    /// keep scanning. Decoding is the caller's choice — the engine's
    /// projections decode only the columns an expression touches, like a
    /// real scan operator.
    ///
    /// The reader is handed *into* the callback (leaf-page bytes borrow
    /// the page file, not the reader) so a row visitor can resolve the
    /// row's out-of-row LOB values through the same live-pool, snapshot-
    /// classified read path as the leaf pages — interleaved exactly as a
    /// serial scan would interleave them.
    pub fn scan_partition(
        &self,
        reader: &mut PartitionReader<'_>,
        part: &ScanPartition,
        mut f: impl FnMut(&mut PartitionReader<'_>, i64, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        for (i, &pid) in part.leaves.iter().enumerate() {
            reader.read_ahead(&part.leaves[i..]);
            if !walk_leaf(reader, part, pid, &mut f)? {
                break;
            }
        }
        Ok(())
    }

    /// Batch variant of [`scan_partition`](Self::scan_partition): decodes
    /// leaf records straight into the column vectors of `batch` (only the
    /// schema columns named by `cols`, in that order) and hands the filled
    /// batch to `f`, which returns `true` to keep scanning.
    ///
    /// A leaf is decoded a column at a time (`fill_batch`), in segments
    /// that end where the batch fills: the batch flushes as soon as it
    /// reaches `rows_cap` rows — even in the middle of a leaf, and no
    /// record past that row has been looked at, so a caller that stops
    /// early (`TOP`) never decodes more than one cap past its limit — and
    /// additionally at *every* leaf boundary when `leaf_aligned` is set,
    /// which callers that resolve out-of-row LOB values per batch use to
    /// keep the page-read interleaving (leaf, then that leaf's LOB pages)
    /// identical to the row-at-a-time scan at any DOP. (A mid-leaf flush
    /// preserves that order too: the leaf page is already read, and the
    /// flushed rows resolve in row order.) The same `batch` is reused
    /// across flushes, so column buffers are allocated once per
    /// partition, not per batch.
    pub fn scan_partition_batches(
        &self,
        reader: &mut PartitionReader<'_>,
        part: &ScanPartition,
        opts: BatchScanOpts<'_>,
        batch: &mut Batch,
        mut f: impl FnMut(&mut PartitionReader<'_>, &Batch) -> Result<bool>,
    ) -> Result<()> {
        let BatchScanOpts {
            cols,
            rows_cap,
            leaf_aligned,
        } = opts;
        let dec = BatchDecoder::new(&self.schema, cols)?;
        let rows_cap = rows_cap.max(1);
        let mut cursors = Vec::new();
        let mut flush = |reader: &mut PartitionReader<'_>, batch: &mut Batch| {
            let keep_going = f(reader, batch)?;
            batch.clear();
            Ok(keep_going)
        };
        batch.clear();
        for (i, &pid) in part.leaves.iter().enumerate() {
            reader.read_ahead(&part.leaves[i..]);
            let (v, mut slots) = open_leaf(reader, part, pid)?;
            while !slots.is_empty() {
                // The batch was flushed when it last filled: room >= 1.
                let room = rows_cap - batch.len();
                let segment = slots.start..slots.start + room.min(slots.len());
                slots.start = segment.end;
                fill_batch(&v, pid, segment, &dec, &mut cursors, batch)?;
                if batch.len() == rows_cap && !flush(reader, batch)? {
                    return Ok(());
                }
            }
            if leaf_aligned && !batch.is_empty() && !flush(reader, batch)? {
                return Ok(());
            }
        }
        if !batch.is_empty() {
            flush(reader, batch)?;
        }
        Ok(())
    }

    /// Number of leaf (data) pages.
    pub fn data_pages(&self, store: &mut PageStore) -> Result<u64> {
        self.tree.leaf_pages(store)
    }

    /// Data size in bytes (leaf pages × page size) — what a clustered index
    /// scan must read. LOB pages are *not* included, matching how the
    /// paper's Table 1 scans touch only in-row data.
    pub(crate) fn data_bytes(&self, store: &mut PageStore) -> Result<u64> {
        Ok(self.data_pages(store)? * crate::page::PAGE_SIZE as u64)
    }

    /// Average stored bytes per row, including page overheads.
    pub fn bytes_per_row(&self, store: &mut PageStore) -> Result<f64> {
        if self.row_count() == 0 {
            return Ok(0.0);
        }
        Ok(self.data_bytes(store)? as f64 / self.row_count() as f64)
    }

    /// B-tree depth, for diagnostics.
    pub fn index_depth(&self, store: &mut PageStore) -> Result<u32> {
        self.tree.depth(store)
    }
}

/// The step both partition scans share: reads leaf `pid` and clips it to
/// the slots whose keys lie in the partition's interval.
fn open_leaf<'s>(
    reader: &mut PartitionReader<'s>,
    part: &ScanPartition,
    pid: PageId,
) -> Result<(SlottedRead<'s>, Range<usize>)> {
    let v = SlottedRead::open(reader.read(pid)?, page_type::BTREE_LEAF, pid)?;
    let slots = btree::leaf_slots_within(&v, &part.keys)?;
    Ok((v, slots))
}

#[cold]
fn key_cut_short(pid: PageId) -> StorageError {
    StorageError::RowCorrupt(format!(
        "leaf record on page {pid} shorter than its 8-byte key"
    ))
}

/// The row body of a partition scan: hands `f` the key and encoded row of
/// each record of leaf `pid` inside the partition's interval, in key
/// order. `false` when `f` asked to stop.
fn walk_leaf(
    reader: &mut PartitionReader<'_>,
    part: &ScanPartition,
    pid: PageId,
    mut f: impl FnMut(&mut PartitionReader<'_>, i64, &[u8]) -> Result<bool>,
) -> Result<bool> {
    let (v, slots) = open_leaf(reader, part, pid)?;
    for rec in v.record_ranges(slots)? {
        let rec = &v.bytes()[rec?];
        if rec.len() < 8 {
            return Err(key_cut_short(pid));
        }
        if !f(reader, le::i64_at(rec, 0), &rec[8..])? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The batch body of a partition scan: appends records `slots` of leaf `v`
/// to `batch`. One pass over that stretch of the slot directory checks
/// every record once — inside the page, long enough for its key and for
/// the fixed-width columns `dec` reads without looking — and notes where
/// its columns start (`cursors` is scratch, reused across calls); then the
/// keys and each projected column are appended by one loop apiece over
/// those cursors.
fn fill_batch(
    v: &SlottedRead<'_>,
    pid: PageId,
    slots: Range<usize>,
    dec: &BatchDecoder<'_>,
    cursors: &mut Vec<RowCursor>,
    batch: &mut Batch,
) -> Result<()> {
    let shortest = 8 + dec.fixed_prefix();
    cursors.clear();
    cursors.reserve(slots.len());
    for rec in v.record_ranges(slots)? {
        let rec = rec?;
        if rec.len() < shortest {
            return Err(match rec.len().checked_sub(8) {
                Some(row_len) => dec.truncated(0, row_len),
                None => key_cut_short(pid),
            });
        }
        // Both ends lie inside the 8 KiB page.
        cursors.push(RowCursor {
            at: (rec.start + 8) as u32,
            end: rec.end as u32,
        });
    }
    let page = v.bytes();
    batch
        .keys
        .extend(cursors.iter().map(|c| le::i64_at(page, c.at as usize - 8)));
    dec.fill(page, cursors, &mut batch.cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::ColType;

    /// `ops` through one [`Table::apply`] call.
    fn apply_ops(t: &mut Table, store: &mut PageStore, ops: &[(i64, RowOp<'_>)]) -> Result<u64> {
        let keys: Vec<i64> = ops.iter().map(|&(key, _)| key).collect();
        t.apply(store, &keys, |_, i, _| Ok(ops[i].1.clone()))
    }

    /// Every `(key, encoded row)` of `t`, in key order, through the one
    /// range scan over every key.
    fn rows_of(store: &PageStore, t: &Table) -> Vec<(i64, Vec<u8>)> {
        let part = t
            .partition_keys(store, 1, i64::MIN..=i64::MAX)
            .unwrap()
            .remove(0);
        let scan = store.begin_scan();
        let mut rows = Vec::new();
        t.scan_partition(&mut store.reader(&scan, 0), &part, |_, k, bytes| {
            rows.push((k, bytes.to_vec()));
            Ok(true)
        })
        .unwrap();
        rows
    }

    fn vector_table(store: &mut PageStore, rows: i64, dim: usize) -> Table {
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(store, "Tvector", schema).unwrap();
        for k in 0..rows {
            let data: Vec<f64> = (0..dim).map(|i| (k as f64) + i as f64 * 0.1).collect();
            let arr = sqlarray_core::build::short_vector(&data).unwrap();
            t.insert(
                store,
                k,
                &[RowValue::I64(k), RowValue::Bytes(arr.into_blob())],
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_get_scan() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        for k in 0..100 {
            t.insert(
                &mut store,
                k,
                &[RowValue::I64(k), RowValue::F64(k as f64 * 0.5)],
            )
            .unwrap();
        }
        assert_eq!(t.row_count(), 100);
        let row = t.get(&mut store, 7).unwrap().unwrap();
        assert_eq!(row, vec![RowValue::I64(7), RowValue::F64(3.5)]);
        assert_eq!(t.get(&mut store, 100).unwrap(), None);

        let mut sum = 0.0;
        for (_, bytes) in rows_of(&store, &t) {
            if let RowValue::F64(x) = row::decode_row(t.schema(), &bytes).unwrap()[1] {
                sum += x;
            }
        }
        assert_eq!(sum, (0..100).map(|k| k as f64 * 0.5).sum::<f64>());
    }

    #[test]
    fn array_blob_column_round_trip() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 50, 5);
        let row = t.get(&mut store, 10).unwrap().unwrap();
        let blob = row[1].blob_bytes(&mut store).unwrap();
        let arr = sqlarray_core::SqlArray::from_blob(blob).unwrap();
        assert_eq!(arr.dims(), &[5]);
        assert_eq!(arr.item(&[0]).unwrap(), sqlarray_core::Scalar::F64(10.0));
    }

    #[test]
    fn get_col_matches_full_decode() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 20, 3);
        let full = t.get(&mut store, 5).unwrap().unwrap();
        let col = t.get_col(&mut store, 5, 1).unwrap().unwrap();
        assert_eq!(full[1], col);
    }

    #[test]
    fn storage_accounting_tracks_growth() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 2000, 5);
        let pages = t.data_pages(&mut store).unwrap();
        assert!(pages > 10);
        let bpr = t.bytes_per_row(&mut store).unwrap();
        // Row: 8 key + 8 id + (1 + 2 + 64) blob = 83 bytes + 4 slot ≈ 87;
        // plus page slack. Must be in a sane band.
        assert!((83.0..140.0).contains(&bpr), "bytes/row = {bpr}");
    }

    #[test]
    fn vector_table_is_wider_than_scalar_table() {
        // The §6.2 storage comparison: the 24-byte array header makes
        // Tvector ~43 % bigger than Tscalar.
        let mut store = PageStore::new();
        let scalar_schema = Schema::new(&[
            ("id", ColType::I64),
            ("v1", ColType::F64),
            ("v2", ColType::F64),
            ("v3", ColType::F64),
            ("v4", ColType::F64),
            ("v5", ColType::F64),
        ]);
        let mut ts = Table::create(&mut store, "Tscalar", scalar_schema).unwrap();
        for k in 0..5000 {
            let v: Vec<RowValue> = std::iter::once(RowValue::I64(k))
                .chain((0..5).map(|i| RowValue::F64(k as f64 + i as f64)))
                .collect();
            ts.insert(&mut store, k, &v).unwrap();
        }
        let tv = vector_table(&mut store, 5000, 5);
        let scalar_bpr = ts.bytes_per_row(&mut store).unwrap();
        let vector_bpr = tv.bytes_per_row(&mut store).unwrap();
        let ratio = vector_bpr / scalar_bpr;
        assert!(
            (1.2..1.7).contains(&ratio),
            "vector/scalar storage ratio {ratio:.2} outside the expected band"
        );
    }

    #[test]
    fn big_blobs_leave_thin_rows() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "Tlob", schema).unwrap();
        let big = vec![0xAB; 100_000];
        for k in 0..20 {
            t.insert(
                &mut store,
                k,
                &[RowValue::I64(k), RowValue::Bytes(big.clone())],
            )
            .unwrap();
        }
        // 20 rows of ~33 bytes each fit in a single data page; the
        // megabytes live in LOB pages.
        assert_eq!(t.data_pages(&mut store).unwrap(), 1);
        let row = t.get(&mut store, 3).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), big);
    }

    #[test]
    fn partitions_concatenate_to_the_full_scan() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 3000, 5);
        let full: Vec<i64> = rows_of(&store, &t).into_iter().map(|(k, _)| k).collect();
        for dop in [1usize, 2, 3, 7, 64] {
            let parts = t.partition(&store, dop).unwrap();
            assert!(!parts.is_empty() && parts.len() <= dop);
            let scan = store.begin_scan();
            let mut seen = Vec::new();
            for (pi, p) in parts.iter().enumerate() {
                let mut r = store.reader(&scan, pi as u32);
                t.scan_partition(&mut r, p, |_, k, _| {
                    seen.push(k);
                    Ok(true)
                })
                .unwrap();
            }
            assert_eq!(seen, full, "dop {dop}");
        }
    }

    #[test]
    fn batch_scan_matches_row_scan() {
        use sqlarray_core::batch::ColVec;
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 3000, 5);
        let mut row_keys = Vec::new();
        let mut row_blobs: Vec<RowValue> = Vec::new();
        for (k, bytes) in rows_of(&store, &t) {
            row_keys.push(k);
            row_blobs.push(row::decode_col(t.schema(), &bytes, 1).unwrap());
        }
        for (dop, cap, aligned) in [(1usize, 1024usize, false), (3, 7, false), (2, 256, true)] {
            let parts = t.partition(&store, dop).unwrap();
            let scan = store.begin_scan();
            let mut keys = Vec::new();
            let mut blobs: Vec<RowValue> = Vec::new();
            let mut per_part_fills = Vec::new();
            for (pi, p) in parts.iter().enumerate() {
                let mut r = store.reader(&scan, pi as u32);
                let mut batch = row::new_batch(t.schema(), &[1]).unwrap();
                let mut fills = Vec::new();
                t.scan_partition_batches(
                    &mut r,
                    p,
                    BatchScanOpts {
                        cols: &[1],
                        rows_cap: cap,
                        leaf_aligned: aligned,
                    },
                    &mut batch,
                    |_, b| {
                        fills.push(b.len());
                        keys.extend_from_slice(&b.keys);
                        let ColVec::Blob { bytes, lob } = &b.cols[0] else {
                            panic!("expected blob column");
                        };
                        for (i, l) in lob.iter().enumerate() {
                            blobs.push(match *l {
                                Some((id, len)) => RowValue::LobRef(id, len),
                                None => RowValue::Bytes(bytes.get(i).to_vec()),
                            });
                        }
                        Ok(true)
                    },
                )
                .unwrap();
                per_part_fills.push(fills);
            }
            assert_eq!(keys, row_keys, "dop {dop} cap {cap}");
            assert_eq!(blobs, row_blobs, "dop {dop} cap {cap}");
            for fills in &per_part_fills {
                assert!(fills.iter().all(|&n| n > 0));
                if !aligned {
                    // Within a partition, every flush except the last is
                    // exactly `cap` rows (mid-leaf flushing); only the
                    // remainder runs short.
                    assert!(fills[..fills.len() - 1].iter().all(|&n| n == cap));
                }
            }
        }
    }

    #[test]
    fn batch_scan_early_stop_and_empty_table() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 500, 5);
        let parts = t.partition(&store, 1).unwrap();
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let mut batch = row::new_batch(t.schema(), &[0]).unwrap();
        let mut calls = 0;
        t.scan_partition_batches(
            &mut r,
            &parts[0],
            BatchScanOpts {
                cols: &[0],
                rows_cap: 64,
                leaf_aligned: false,
            },
            &mut batch,
            |_, _| {
                calls += 1;
                Ok(false)
            },
        )
        .unwrap();
        assert_eq!(calls, 1, "early stop halts after the first batch");
        assert!(batch.is_empty(), "batch is left cleared");
        drop(r);
        drop(scan);

        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let empty = Table::create(&mut store, "E2", schema).unwrap();
        let parts = empty.partition(&store, 4).unwrap();
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let mut batch = row::new_batch(empty.schema(), &[1]).unwrap();
        let mut calls = 0;
        empty
            .scan_partition_batches(
                &mut r,
                &parts[0],
                BatchScanOpts {
                    cols: &[1],
                    rows_cap: 64,
                    leaf_aligned: false,
                },
                &mut batch,
                |_, _| {
                    calls += 1;
                    Ok(true)
                },
            )
            .unwrap();
        assert_eq!(calls, 0, "empty table produces no batches");
    }

    /// Both scan bodies over the whole of `t`, cold: the error text of
    /// each (`None` for a clean scan). The row body decodes `col` of every
    /// row, the batch body projects it.
    fn scan_errors(store: &mut PageStore, t: &Table, col: usize) -> [Option<String>; 2] {
        store.clear_cache();
        let part = t.partition(store, 1).unwrap().remove(0);
        let scan = store.begin_scan();
        let by_row = t.scan_partition(&mut store.reader(&scan, 0), &part, |_, _, bytes| {
            row::decode_col(t.schema(), bytes, col).map(|_| true)
        });
        let by_batch = t.scan_partition_batches(
            &mut store.reader(&scan, 0),
            &part,
            BatchScanOpts {
                cols: &[col],
                rows_cap: 64,
                leaf_aligned: false,
            },
            &mut row::new_batch(t.schema(), &[col]).unwrap(),
            |_, _| Ok(true),
        );
        [by_row, by_batch].map(|r| r.err().map(|e| e.to_string()))
    }

    #[test]
    fn a_hand_corrupted_leaf_is_a_typed_error_on_both_scan_bodies() {
        use crate::page::{PAGE_SIZE, SLOT_LEN};
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 300, 5);
        let leaf = t.partition(&store, 1).unwrap()[0].leaves()[1];
        // Slot 3 of the second leaf: `off u16 | len u16`, 83 bytes long.
        let entry = PAGE_SIZE - 4 * SLOT_LEN;
        let intact = store.read(leaf).unwrap().to_vec();
        assert_eq!(
            u16::from_le_bytes([intact[entry + 2], intact[entry + 3]]),
            83
        );
        assert_eq!(scan_errors(&mut store, &t, 1), [None, None]);

        // `PageStore::write` re-stamps the checksum, so each cold scan
        // below gets past the page read and meets the damage in the
        // decoder. Both bodies used to panic on the first two.
        let mut damaged = |at: usize, bytes: &[u8], col: usize, expect: &str| {
            store
                .write(leaf, |page| {
                    page.copy_from_slice(&intact);
                    page[at..at + bytes.len()].copy_from_slice(bytes);
                })
                .unwrap();
            let [by_row, by_batch] = scan_errors(&mut store, &t, col);
            let by_row = by_row.expect("the row body must fail");
            assert!(by_row.starts_with("row corrupt: "), "{by_row}");
            assert!(by_row.contains(expect), "{by_row}");
            assert_eq!(Some(by_row), by_batch);
        };
        let off = u16::from_le_bytes([intact[entry], intact[entry + 1]]) as usize;
        let lens = |len: u16| len.to_le_bytes();
        damaged(entry + 2, &lens(u16::MAX), 1, "past the record area");
        damaged(2, &lens(u16::MAX), 1, "overlaps the page header");
        damaged(entry + 2, &lens(5), 1, "shorter than its 8-byte key");
        damaged(entry + 2, &lens(8 + 6), 0, "truncated in column `id`");
        damaged(entry + 2, &lens(8 + 8), 1, "truncated in column `v`");
        damaged(entry + 2, &lens(82), 1, "truncated in column `v`");
        damaged(off + 16, &[7], 1, "unknown blob tag 7 in column `v`");
        // A row cut behind the projected column goes unseen by both.
        store
            .write(leaf, |page| {
                page.copy_from_slice(&intact);
                page[entry + 2..entry + 4].copy_from_slice(&lens(8 + 8));
            })
            .unwrap();
        assert_eq!(scan_errors(&mut store, &t, 0), [None, None]);
    }

    /// A 2 000-row table of at least three groups of leaves, its one
    /// full-range partition, and the store holding it with the cache
    /// cleared.
    fn cold_table() -> (PageStore, Table, ScanPartition) {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 2000, 5);
        let part = t.partition(&store, 1).unwrap().remove(0);
        assert!(part.leaves().len() >= 3 * crate::wal::SUM_GROUP);
        store.clear_cache();
        (store, t, part)
    }

    /// A cold scan of every leaf of [`cold_table`] with leaf `flipped`
    /// corrupted, through the row body (`0`), the batch body (`1`), or
    /// leaf reads one at a time and never hinted (`2`): the error, the
    /// worker's I/O and the pool's recency order afterwards.
    fn scan_with_flipped_leaf(
        flipped: Option<usize>,
        body: u8,
    ) -> (Option<StorageError>, crate::stats::IoStats, Vec<PageId>) {
        let (mut store, t, part) = cold_table();
        if let Some(i) = flipped {
            store.corrupt_byte(part.leaves()[i], 100);
        }
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let opts = BatchScanOpts {
            cols: &[0],
            rows_cap: 64,
            leaf_aligned: false,
        };
        let mut batch = row::new_batch(t.schema(), &[0]).unwrap();
        let res = match body {
            0 => t.scan_partition(&mut r, &part, |_, _, _| Ok(true)),
            1 => t.scan_partition_batches(&mut r, &part, opts, &mut batch, |_, _| Ok(true)),
            _ => part
                .leaves()
                .iter()
                .try_for_each(|&pid| r.read(pid).map(drop)),
        };
        let io = r.finish();
        drop(scan);
        store.finish_scan([&io]);
        (res.err(), io.io, store.pool().keys_mru_order())
    }

    /// Both scan bodies verify their leaves a group at a time and still
    /// fail like leaf reads one by one: the same `PageCorrupt` payload,
    /// counters and pool order, whether the flipped leaf is first, in the
    /// middle or last in its group.
    #[test]
    fn a_corrupt_leaf_fails_a_grouped_scan_like_a_leaf_by_leaf_one() {
        const G: usize = crate::wal::SUM_GROUP;
        for flipped in [None, Some(0), Some(G), Some(G + G / 2), Some(2 * G - 1)] {
            let reference = scan_with_flipped_leaf(flipped, 2);
            let leaf = flipped.map(|i| cold_table().2.leaves()[i]);
            assert_eq!(
                reference.0.as_ref().map(|e| match e {
                    StorageError::PageCorrupt { page, .. } => *page,
                    other => panic!("{other:?}"),
                }),
                leaf
            );
            for body in [0, 1] {
                assert_eq!(
                    scan_with_flipped_leaf(flipped, body),
                    reference,
                    "leaf {flipped:?}, body {body}"
                );
            }
        }
    }

    /// A `TOP` that stops inside a group succeeds although a later leaf
    /// of the group, summed ahead with the first, is corrupt: a page that
    /// is never read is never judged.
    #[test]
    fn a_scan_that_stops_inside_a_group_never_judges_the_rest() {
        let (mut store, t, part) = cold_table();
        let last = part.leaves()[crate::wal::SUM_GROUP - 1];
        store.corrupt_byte(last, 100);
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        t.scan_partition(&mut r, &part, |r, _, _| Ok(r.stats().pages_read < 2))
            .unwrap();
        assert!(
            r.summed_ahead().contains(&last),
            "the group was summed ahead"
        );
    }

    /// A LOB read nested in a row callback names its own chunk pages as
    /// the next reads and sums them a group at a time; the leaf sums the
    /// scan's group left waiting stay, and each leaf's read takes its
    /// own.
    #[test]
    fn a_nested_lob_read_keeps_the_leaf_sums_it_was_handed() {
        const G: usize = crate::wal::SUM_GROUP;
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 2000, 5);
        let data: Vec<u8> = (0..3 * G * blob::CHUNK_DATA)
            .map(|i| (i % 251) as u8)
            .collect();
        let id = blob::write_blob(&mut store, &data).unwrap();
        let part = t.partition(&store, 1).unwrap().remove(0);
        store.clear_cache();
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let mut waiting = part.leaves()[1..G].to_vec();
        waiting.sort_unstable();
        let mut nested = 0;
        t.scan_partition(&mut r, &part, |r, _, _| {
            if nested == 0 {
                assert_eq!(r.summed_ahead(), waiting);
                assert_eq!(blob::read_blob(r, id)?, data);
                assert_eq!(r.summed_ahead(), waiting, "the LOB read took no leaf's sum");
            }
            nested += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(nested, 2000);
        assert_eq!(
            r.summed_ahead(),
            [0u64; 0],
            "every sum was taken by its read"
        );
        assert_eq!(
            r.stats().pages_read as usize,
            part.leaves().len() + 1 + 3 * G
        );
    }

    #[test]
    fn partition_workers_scan_concurrently() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 5000, 5);
        store.clear_cache();
        let parts = t.partition(&store, 4).unwrap();
        assert_eq!(parts.len(), 4);
        let scan = store.begin_scan();
        let shared = &store;
        let table = &t;
        let scan_ref = &scan;
        let mut results: Vec<(Vec<i64>, crate::store::ScanIo)> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .enumerate()
                .map(|(pi, p)| {
                    s.spawn(move || {
                        let mut r = shared.reader(scan_ref, pi as u32);
                        let mut keys = Vec::new();
                        table
                            .scan_partition(&mut r, p, |_, k, _| {
                                keys.push(k);
                                Ok(true)
                            })
                            .unwrap();
                        (keys, r.finish())
                    })
                })
                .collect();
            results = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        let merged: Vec<i64> = results.iter().flat_map(|(k, _)| k.clone()).collect();
        assert_eq!(merged, (0..5000).collect::<Vec<_>>());
        // Per-worker I/O merges to the cold full-scan cost: every leaf
        // page read exactly once, almost all sequentially.
        drop(scan);
        let ios: Vec<crate::store::ScanIo> = results.iter().map(|(_, io)| *io).collect();
        let io = store.finish_scan(ios.iter());
        assert_eq!(io.pages_read, t.data_pages(&mut store).unwrap());
        assert_eq!(io.cache_hits, 0);
        // The boundary stitching in `finish_scan` removes the per-worker
        // seeks; only genuine chain gaps remain.
        assert!(
            io.sequential_reads as f64 >= 0.85 * io.pages_read as f64,
            "parallel scan was not sequential: {io:?}"
        );
    }

    #[test]
    fn live_pool_is_warm_after_a_parallel_scan() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 2000, 5);
        store.clear_cache();
        let parts = t.partition(&store, 3).unwrap();
        let scan = store.begin_scan();
        let mut ios = Vec::new();
        for (pi, p) in parts.iter().enumerate() {
            let mut r = store.reader(&scan, pi as u32);
            t.scan_partition(&mut r, p, |_, _, _| Ok(true)).unwrap();
            ios.push(r.finish());
        }
        drop(scan);
        store.finish_scan(ios.iter());
        // Workers touched the live pool as they read — no replay step —
        // so a second pass over the same partitions is fully cached.
        let scan = store.begin_scan();
        let mut rescan = crate::stats::IoStats::default();
        for (pi, p) in parts.iter().enumerate() {
            let mut r = store.reader(&scan, pi as u32);
            t.scan_partition(&mut r, p, |_, _, _| Ok(true)).unwrap();
            rescan.merge(&r.finish().io);
        }
        assert_eq!(rescan.pages_read, 0);
        assert!(rescan.cache_hits > 0);
    }

    #[test]
    fn empty_and_tiny_tables_partition_sanely() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let empty = Table::create(&mut store, "E", schema.clone()).unwrap();
        let parts = empty.partition(&store, 8).unwrap();
        assert_eq!(parts.len(), 1);
        let scan = store.begin_scan();
        let mut n = 0;
        let mut r = store.reader(&scan, 0);
        empty
            .scan_partition(&mut r, &parts[0], |_, _, _| {
                n += 1;
                Ok(true)
            })
            .unwrap();
        assert_eq!(n, 0);
        drop(r);
        drop(scan);

        let mut one = Table::create(&mut store, "O", schema).unwrap();
        one.insert(&mut store, 42, &[RowValue::I64(42), RowValue::F64(1.0)])
            .unwrap();
        let parts = one.partition(&store, 8).unwrap();
        assert_eq!(parts.len(), 1, "1 row < DOP collapses to one partition");
        let scan = store.begin_scan();
        let mut keys = Vec::new();
        let mut r = store.reader(&scan, 0);
        one.scan_partition(&mut r, &parts[0], |_, k, _| {
            keys.push(k);
            Ok(true)
        })
        .unwrap();
        assert_eq!(keys, vec![42]);
    }

    fn sample_rows(n: i64, dim: usize) -> Vec<(i64, Vec<RowValue>)> {
        (0..n)
            .map(|k| {
                let data: Vec<f64> = (0..dim).map(|i| (k as f64) + i as f64 * 0.1).collect();
                let arr = sqlarray_core::build::short_vector(&data).unwrap();
                (k, vec![RowValue::I64(k), RowValue::Bytes(arr.into_blob())])
            })
            .collect()
    }

    #[test]
    fn bulk_load_matches_row_at_a_time_inserts() {
        let rows = sample_rows(3000, 5);
        let mut store_a = PageStore::new();
        let inserted = vector_table(&mut store_a, 3000, 5);

        let mut store_b = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut bulk = Table::create(&mut store_b, "Tvector", schema).unwrap();
        bulk.bulk_load(&mut store_b, &rows, 3).unwrap();

        assert_eq!(bulk.row_count(), inserted.row_count());
        // The greedy bulk packing equals the append-optimized insert
        // packing: same leaf count, hence same bytes/row.
        assert_eq!(
            bulk.data_pages(&mut store_b).unwrap(),
            inserted.data_pages(&mut store_a).unwrap()
        );
        assert_eq!(rows_of(&store_a, &inserted), rows_of(&store_b, &bulk));
        // Point lookups work through the bulk-built internal levels.
        for k in [0i64, 1, 1499, 2999] {
            assert_eq!(
                bulk.get(&mut store_b, k).unwrap(),
                inserted.get(&mut store_a, k).unwrap()
            );
        }
        assert_eq!(bulk.get(&mut store_b, 3000).unwrap(), None);
    }

    #[test]
    fn bulk_load_layout_and_io_are_dop_invariant() {
        let rows = sample_rows(4000, 5);
        let build = |dop: usize| {
            let mut store = PageStore::new();
            let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
            let mut t = Table::create(&mut store, "T", schema).unwrap();
            t.bulk_load(&mut store, &rows, dop).unwrap();
            let pages = t.data_pages(&mut store).unwrap();
            let depth = t.index_depth(&mut store).unwrap();
            (
                store.page_count(),
                pages,
                depth,
                store.stats(),
                store.seek_position(),
                store.pool().keys_mru_order(),
            )
        };
        let serial = build(1);
        for dop in [2usize, 4, 8] {
            assert_eq!(build(dop), serial, "dop {dop}");
        }
    }

    #[test]
    fn bulk_load_spills_oversized_blobs() {
        let big = vec![0xCD; 50_000];
        let rows: Vec<(i64, Vec<RowValue>)> = (0..30)
            .map(|k| (k, vec![RowValue::I64(k), RowValue::Bytes(big.clone())]))
            .collect();
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "Tlob", schema).unwrap();
        t.bulk_load(&mut store, &rows, 4).unwrap();
        assert_eq!(t.data_pages(&mut store).unwrap(), 1);
        let row = t.get(&mut store, 7).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), big);
    }

    #[test]
    fn bulk_load_rejects_bad_inputs() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let unsorted = vec![
            (2i64, vec![RowValue::I64(2), RowValue::F64(0.0)]),
            (1i64, vec![RowValue::I64(1), RowValue::F64(0.0)]),
        ];
        assert!(matches!(
            t.bulk_load(&mut store, &unsorted, 2),
            Err(StorageError::BulkLoad(_))
        ));
        // Loading into a non-empty table is refused.
        t.insert(&mut store, 9, &[RowValue::I64(9), RowValue::F64(1.0)])
            .unwrap();
        let sorted = vec![(10i64, vec![RowValue::I64(10), RowValue::F64(0.0)])];
        assert!(matches!(
            t.bulk_load(&mut store, &sorted, 2),
            Err(StorageError::BulkLoad(_))
        ));
    }

    #[test]
    fn rejected_bulk_load_leaves_the_store_untouched() {
        // A batch mixing a LOB-spilling row with a later row whose inline
        // encoding exceeds the leaf-record limit must fail *before* the
        // spill pre-pass writes anything: no orphan LOB pages, no counter
        // drift.
        let mut store = PageStore::new();
        let schema = Schema::new(&[
            ("id", ColType::I64),
            ("a", ColType::Blob),
            ("b", ColType::Blob),
        ]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let spilling = vec![
            RowValue::I64(0),
            RowValue::Bytes(vec![1; 50_000]), // > inline limit: would spill
            RowValue::Bytes(vec![2; 8]),
        ];
        let oversized_inline = vec![
            RowValue::I64(1),
            // Both blobs inline (≤ 8000) but together past MAX_PAYLOAD.
            RowValue::Bytes(vec![3; 8000]),
            RowValue::Bytes(vec![4; 8000]),
        ];
        let rows = vec![(0i64, spilling), (1i64, oversized_inline)];
        let pages_before = store.page_count();
        let stats_before = store.stats();
        assert!(matches!(
            t.bulk_load(&mut store, &rows, 2),
            Err(StorageError::RecordTooLarge { .. })
        ));
        assert_eq!(store.page_count(), pages_before);
        assert_eq!(store.stats(), stats_before);
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn bulk_load_empty_rows_is_a_noop() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        t.bulk_load(&mut store, &[], 4).unwrap();
        assert_eq!(t.row_count(), 0);
        assert!(rows_of(&store, &t).is_empty());
    }

    #[test]
    fn delete_removes_rows_and_frees_lob_chains() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let big = vec![0xEE; 60_000];
        for k in 0..10 {
            t.insert(
                &mut store,
                k,
                &[RowValue::I64(k), RowValue::Bytes(big.clone())],
            )
            .unwrap();
        }
        assert!(store.free_pages().is_empty());
        assert_eq!(
            apply_ops(&mut t, &mut store, &[(4, RowOp::Delete)]).unwrap(),
            1
        );
        assert_eq!(t.row_count(), 9);
        assert_eq!(t.get(&mut store, 4).unwrap(), None);
        // The deleted row's LOB chain (root + 8 chunks) is on the free list.
        assert_eq!(store.free_pages().len(), 9);
        // Deleting a missing key reports false and frees nothing.
        assert_eq!(
            apply_ops(&mut t, &mut store, &[(4, RowOp::Delete)]).unwrap(),
            0
        );
        assert_eq!(store.free_pages().len(), 9);
        // Remaining rows are intact.
        let row = t.get(&mut store, 5).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), big);
    }

    #[test]
    fn update_recycles_lob_pages() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let big = vec![0x11; 60_000];
        t.insert(&mut store, 1, &[RowValue::I64(1), RowValue::Bytes(big)])
            .unwrap();
        // Replace the LOB with a same-size value. The new chain is written
        // before the old one is freed (crash safety), so the first UPDATE
        // grows the file by one chain — and every later one recycles it.
        let newer = vec![0x22; 60_000];
        assert_eq!(
            apply_ops(
                &mut t,
                &mut store,
                &[(
                    1,
                    RowOp::Update(vec![RowValue::I64(1), RowValue::Bytes(newer.clone())].into())
                )]
            )
            .unwrap(),
            1
        );
        let steady = store.page_count();
        for _ in 0..3 {
            assert_eq!(
                apply_ops(
                    &mut t,
                    &mut store,
                    &[(
                        1,
                        RowOp::Update(
                            vec![RowValue::I64(1), RowValue::Bytes(newer.clone())].into()
                        )
                    )]
                )
                .unwrap(),
                1
            );
        }
        assert_eq!(store.page_count(), steady);
        let row = t.get(&mut store, 1).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), newer);
        // Updating a missing key writes nothing.
        assert_eq!(
            apply_ops(
                &mut t,
                &mut store,
                &[(
                    2,
                    RowOp::Update(vec![RowValue::I64(2), RowValue::Bytes(vec![1; 9000])].into())
                )]
            )
            .unwrap(),
            0
        );
        assert_eq!(store.page_count(), steady);
    }

    #[test]
    fn update_shrinks_lob_to_inline_and_back() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        t.insert(
            &mut store,
            1,
            &[RowValue::I64(1), RowValue::Bytes(vec![9; 40_000])],
        )
        .unwrap();
        // LOB → inline: the chain is freed.
        let small = vec![5u8; 100];
        assert_eq!(
            apply_ops(
                &mut t,
                &mut store,
                &[(
                    1,
                    RowOp::Update(vec![RowValue::I64(1), RowValue::Bytes(small.clone())].into())
                )]
            )
            .unwrap(),
            1
        );
        assert!(!store.free_pages().is_empty());
        assert_eq!(
            t.get(&mut store, 1).unwrap().unwrap()[1],
            RowValue::Bytes(small)
        );
        // Inline → LOB again: freed pages are recycled.
        let grown = vec![6u8; 40_000];
        let pages = store.page_count();
        assert_eq!(
            apply_ops(
                &mut t,
                &mut store,
                &[(
                    1,
                    RowOp::Update(vec![RowValue::I64(1), RowValue::Bytes(grown.clone())].into())
                )]
            )
            .unwrap(),
            1
        );
        assert_eq!(store.page_count(), pages);
        let row = t.get(&mut store, 1).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), grown);
    }

    #[test]
    fn a_refused_row_spills_no_lob_chain() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[
            ("id", ColType::I64),
            ("a", ColType::Blob),
            ("b", ColType::I32),
            ("c", ColType::Blob),
            ("d", ColType::Blob),
        ]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let big = || RowValue::Bytes(vec![0xAB; 100_000]);
        let small = || RowValue::Bytes(vec![1; 10]);
        let ok = [RowValue::I64(1), big(), RowValue::I32(0), small(), small()];
        t.insert(&mut store, 1, &ok).unwrap();
        let mistyped = [
            RowValue::I64(2),
            big(),
            RowValue::F64(0.0),
            small(),
            small(),
        ];
        let (wide, d) = (vec![2; 8000], vec![3; 200]);
        let too_long = [
            RowValue::I64(3),
            big(),
            RowValue::I32(0),
            RowValue::Bytes(wide),
            RowValue::Bytes(d),
        ];
        let refused = [
            ("duplicate", 1, RowOp::Insert(Cow::Borrowed(&ok))),
            ("mistyped", 2, RowOp::Insert(Cow::Borrowed(&mistyped))),
            ("too long", 3, RowOp::Insert(Cow::Borrowed(&too_long))),
            (
                "mistyped update",
                1,
                RowOp::Update(Cow::Borrowed(&mistyped)),
            ),
        ];
        for (what, key, op) in refused {
            let before = (store.page_count(), store.free_pages().len());
            let wal = store.stats().wal_bytes;
            let got = apply_ops(&mut t, &mut store, &[(key, op)]);
            assert!(
                matches!(
                    got,
                    Err(StorageError::DuplicateKey { .. }
                        | StorageError::SchemaMismatch(_)
                        | StorageError::RecordTooLarge { .. })
                ),
                "{what}: {got:?}"
            );
            assert_eq!(
                (store.page_count(), store.free_pages().len()),
                before,
                "{what}"
            );
            assert_eq!(store.stats().wal_bytes, wal, "{what}");
        }
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn table_from_parts_reopens_the_tree() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 500, 4);
        let reopened = Table::from_parts(t.name().to_string(), t.schema().clone(), t.tree_parts());
        assert_eq!(reopened.row_count(), 500);
        assert_eq!(
            reopened.get(&mut store, 123).unwrap(),
            t.get(&mut store, 123).unwrap()
        );
        assert_eq!(rows_of(&store, &reopened).len(), 500);
    }

    #[test]
    fn range_scan_decodes() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 100, 2);
        let parts = t.partition_keys(&store, 1, 10..=14).unwrap();
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let mut seen = Vec::new();
        t.scan_partition(&mut r, &parts[0], |_, k, bytes| {
            seen.push((k, row::decode_col(t.schema(), bytes, 0)?));
            Ok(true)
        })
        .unwrap();
        let expect: Vec<_> = (10..=14).map(|k| (k, RowValue::I64(k))).collect();
        assert_eq!(seen, expect);
    }
}
