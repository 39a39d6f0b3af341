//! Out-of-page blob storage — the `VARBINARY(MAX)` LOB structure.
//!
//! "Blobs larger than 8 kB are stored out-of-page as B-trees. Access to
//! out-of-page data is significantly slower than on-page data because (a)
//! traversing B-trees is more expensive than simply addressing on-page
//! data, and (b) out-of-page data has to go through the [...] binary stream
//! wrapper" — which, crucially, "supports reading only parts of the binary
//! data if the whole array is not required" (§3.3).
//!
//! Layout (inode-style tree):
//! * **root page** (`BLOB_ROOT`): `type u8 | pad[3] | total_len u64 |
//!   n_chunks u32 | chunk ids u64...`. Up to [`ROOT_DIRECT`] direct chunk
//!   ids; larger blobs store [`ROOT_DIRECT`]−1 direct ids plus a
//!   continuation id in the last slot.
//! * **index page** (`BLOB_INDEX`): `type u8 | pad[3] | count u32 |
//!   next u64 | chunk ids u64...` — a chain holding the remaining ids.
//! * **chunk page** (`BLOB_CHUNK`): `type u8 | pad[15] | data...` with
//!   [`CHUNK_DATA`] payload bytes.

use crate::errors::{Result, StorageError};
use crate::page::{page_type, PageId, PAGE_SIZE};
use crate::store::{PageRead, PageStore};

/// Identifier of a blob: its root page.
pub type BlobId = PageId;

/// One byte range of a blob payload: `(offset, len)`.
pub type ByteRun = (usize, usize);

/// Payload bytes per chunk page.
pub const CHUNK_DATA: usize = PAGE_SIZE - 16;
/// Chunk-id slots in the root page.
pub const ROOT_DIRECT: usize = (PAGE_SIZE - 16) / 8;
/// Chunk-id slots in one index page.
pub const INDEX_IDS: usize = (PAGE_SIZE - 16) / 8;

/// Writes a blob, returning its id. Zero-length blobs are valid.
///
/// Pages come from [`PageStore::allocate_reuse`], so the chunk chain of a
/// previously [`free_blob`]-ed value is recycled before the file grows —
/// UPDATE churn on LOB columns stays bounded.
pub fn write_blob(store: &mut PageStore, data: &[u8]) -> Result<BlobId> {
    let n_chunks = data.len().div_ceil(CHUNK_DATA);

    // Write the chunks.
    let mut chunk_ids = Vec::with_capacity(n_chunks);
    for c in 0..n_chunks {
        let id = store.allocate_reuse();
        let start = c * CHUNK_DATA;
        let end = ((c + 1) * CHUNK_DATA).min(data.len());
        store.write(id, |bytes| {
            bytes[0] = page_type::BLOB_CHUNK;
            bytes[16..16 + (end - start)].copy_from_slice(&data[start..end]);
        })?;
        chunk_ids.push(id);
    }

    // Build the continuation chain for ids that do not fit the root.
    let direct = if n_chunks <= ROOT_DIRECT {
        n_chunks
    } else {
        ROOT_DIRECT - 1
    };
    let mut continuation: Option<PageId> = None;
    if n_chunks > direct {
        // Chain pages are built back to front so each can point at the next.
        let overflow: Vec<PageId> = chunk_ids[direct..].to_vec();
        let mut next: Option<PageId> = None;
        for chunk_slice in overflow.chunks(INDEX_IDS).rev() {
            let id = store.allocate_reuse();
            let next_val = next.unwrap_or(u64::MAX);
            store.write(id, |bytes| {
                bytes[0] = page_type::BLOB_INDEX;
                bytes[4..8].copy_from_slice(&(chunk_slice.len() as u32).to_le_bytes());
                bytes[8..16].copy_from_slice(&next_val.to_le_bytes());
                for (i, &cid) in chunk_slice.iter().enumerate() {
                    bytes[16 + 8 * i..24 + 8 * i].copy_from_slice(&cid.to_le_bytes());
                }
            })?;
            next = Some(id);
        }
        continuation = next;
    }

    // Root last, so the blob becomes visible atomically.
    let root = store.allocate_reuse();
    store.write(root, |bytes| {
        bytes[0] = page_type::BLOB_ROOT;
        bytes[4..12].copy_from_slice(&(data.len() as u64).to_le_bytes());
        bytes[12..16].copy_from_slice(&(n_chunks as u32).to_le_bytes());
        for (i, &cid) in chunk_ids[..direct].iter().enumerate() {
            bytes[16 + 8 * i..24 + 8 * i].copy_from_slice(&cid.to_le_bytes());
        }
        if let Some(cont) = continuation {
            let slot = ROOT_DIRECT - 1;
            bytes[16 + 8 * slot..24 + 8 * slot].copy_from_slice(&cont.to_le_bytes());
        }
    })?;
    Ok(root)
}

/// Total length of a blob in bytes.
///
/// Generic over [`PageRead`], so both the serial store and a parallel
/// scan worker's reader can resolve LOB lengths.
pub fn blob_len<R: PageRead + ?Sized>(reader: &mut R, id: BlobId) -> Result<usize> {
    Ok(root_info(reader, id)?.0)
}

/// Number of pages a blob occupies (root + index chain + chunks), for
/// storage accounting.
pub fn blob_pages(store: &mut PageStore, id: BlobId) -> Result<u64> {
    let (total_len, n_chunks) = root_info(store, id)?;
    let _ = total_len;
    let mut pages = 1 + n_chunks as u64;
    if n_chunks > ROOT_DIRECT {
        let overflow = n_chunks - (ROOT_DIRECT - 1);
        pages += overflow.div_ceil(INDEX_IDS) as u64;
    }
    Ok(pages)
}

/// Overwrites `data.len()` bytes of blob `id` starting at `offset`,
/// touching only the chunk pages the range intersects — the storage half
/// of the paper's `ArrayUpdate`: a small slice update of a multi-megabyte
/// array costs a handful of page writes, never a full rewrite.
///
/// The blob's length is unchanged and the root page is not rewritten;
/// ranges past the end are rejected with
/// [`StorageError::BlobRangeOutOfBounds`]. Returns the number of chunk
/// pages written.
pub fn update_blob_range(
    store: &mut PageStore,
    id: BlobId,
    offset: usize,
    data: &[u8],
) -> Result<u64> {
    let (total, n_chunks) = root_info(store, id)?;
    // checked_add: `offset + len` could wrap and pass a naive bounds check.
    if offset
        .checked_add(data.len())
        .map_or(true, |end| end > total)
    {
        return Err(StorageError::BlobRangeOutOfBounds {
            offset,
            len: data.len(),
            total,
        });
    }
    if data.is_empty() {
        return Ok(0);
    }
    // lint:allow(L003, reason = "offset + data.len() was bounds-checked against total with checked_add above and data is non-empty here, so offset + data.len() - 1 cannot wrap")
    let end = offset + data.len();
    let needed: Vec<usize> = (offset / CHUNK_DATA..=(end - 1) / CHUNK_DATA).collect();
    let pages = resolve_chunk_pages(store, id, n_chunks, &needed)?;
    for (&c, &pid) in needed.iter().zip(&pages) {
        {
            let bytes = store.read(pid)?;
            if bytes[0] != page_type::BLOB_CHUNK {
                return Err(StorageError::PageTypeMismatch {
                    page: pid,
                    expected: page_type::BLOB_CHUNK,
                    got: bytes[0],
                });
            }
        }
        let chunk_start = c * CHUNK_DATA;
        // The overlap of [offset, end) with this chunk, chunk-relative.
        let lo = offset.max(chunk_start) - chunk_start;
        let hi = end.min(chunk_start + CHUNK_DATA) - chunk_start;
        let src = chunk_start + lo - offset;
        store.write(pid, |bytes| {
            bytes[16 + lo..16 + hi].copy_from_slice(&data[src..src + (hi - lo)]);
        })?;
    }
    Ok(needed.len() as u64)
}

/// Frees every page of a blob — chunks, then the index chain, then the
/// root — returning the number of pages released to the store's free
/// list. Freed pages are recycled by [`PageStore::allocate_reuse`], so
/// UPDATE/DELETE churn on LOB columns does not grow the file.
pub fn free_blob(store: &mut PageStore, id: BlobId) -> Result<u64> {
    let (_, n_chunks) = root_info(store, id)?;
    let direct = direct_count(n_chunks);
    let mut chunks: Vec<PageId> = Vec::with_capacity(n_chunks);
    let mut continuation: Option<PageId> = None;
    {
        let bytes = store.read(id)?;
        for c in 0..direct {
            chunks.push(sqlarray_core::le::u64_at(bytes, 16 + 8 * c));
        }
        if n_chunks > direct {
            let slot = ROOT_DIRECT - 1;
            continuation = Some(sqlarray_core::le::u64_at(bytes, 16 + 8 * slot));
        }
    }
    let mut index_pages: Vec<PageId> = Vec::new();
    let mut page = continuation;
    while chunks.len() < n_chunks {
        let (bytes, count, next) = index_page(store, page, chunks.len(), n_chunks)?;
        for i in 0..count {
            chunks.push(sqlarray_core::le::u64_at(bytes, 16 + 8 * i));
        }
        index_pages.extend(page); // `Some`: `index_page` refuses a missing one
        page = next;
    }
    // Chunks first, then the chain, root last: `allocate_reuse` is LIFO,
    // so the next `write_blob` grabs the root page first.
    let mut freed = 0u64;
    for pid in chunks.into_iter().chain(index_pages).chain([id]) {
        store.free_page(pid)?;
        freed += 1;
    }
    Ok(freed)
}

/// A blob's byte length and chunk count, read off its root page: the
/// count is the one the length implies, and no more than the file has
/// pages, or the root is corrupt.
fn root_info<R: PageRead + ?Sized>(reader: &mut R, id: BlobId) -> Result<(usize, usize)> {
    let file_pages = reader.page_count();
    let bytes = reader.read_page(id)?;
    if bytes[0] != page_type::BLOB_ROOT {
        return Err(StorageError::PageTypeMismatch {
            page: id,
            expected: page_type::BLOB_ROOT,
            got: bytes[0],
        });
    }
    let total = sqlarray_core::le::u64_at(bytes, 4) as usize;
    let n_chunks = sqlarray_core::le::u32_at(bytes, 12) as usize;
    if n_chunks != total.div_ceil(CHUNK_DATA) || n_chunks as u64 > file_pages {
        return Err(StorageError::RowCorrupt(format!(
            "blob root {id} lists {n_chunks} chunks for {total} bytes in a {file_pages}-page file"
        )));
    }
    Ok((total, n_chunks))
}

/// Reads `page`, the index page of a blob of `n_chunks` chunks whose ids
/// start at chunk `base`: its bytes, how many ids it holds, and the next
/// index page. A missing page, a count outside `1..=INDEX_IDS` or one that
/// runs past `n_chunks` is a corrupt chain — so a chain that loops back on
/// itself ends, at the latest, once it has claimed more than `n_chunks`.
fn index_page<R: PageRead + ?Sized>(
    reader: &mut R,
    page: Option<PageId>,
    base: usize,
    n_chunks: usize,
) -> Result<(&[u8], usize, Option<PageId>)> {
    let Some(pid) = page else {
        return Err(StorageError::RowCorrupt(
            "blob index chain shorter than chunk count".into(),
        ));
    };
    let bytes = reader.read_page(pid)?;
    if bytes[0] != page_type::BLOB_INDEX {
        return Err(StorageError::PageTypeMismatch {
            page: pid,
            expected: page_type::BLOB_INDEX,
            got: bytes[0],
        });
    }
    let count = sqlarray_core::le::u32_at(bytes, 4) as usize;
    if !(1..=INDEX_IDS).contains(&count) {
        return Err(StorageError::RowCorrupt(format!(
            "blob index page {pid} holds {count} ids, not 1 to {INDEX_IDS}"
        )));
    }
    if count > n_chunks - base {
        return Err(StorageError::RowCorrupt(format!(
            "blob index chain longer than chunk count: page {pid} lists chunks {base} to {} of {n_chunks}",
            base + count - 1
        )));
    }
    let next = sqlarray_core::le::u64_at(bytes, 8);
    Ok((bytes, count, (next != u64::MAX).then_some(next)))
}

/// Number of directly rooted chunk ids for a blob of `n_chunks` chunks.
fn direct_count(n_chunks: usize) -> usize {
    if n_chunks <= ROOT_DIRECT {
        n_chunks
    } else {
        ROOT_DIRECT - 1
    }
}

/// Resolves the page ids of the (ascending, distinct) chunk indices in
/// `needed`, returning them in the same order. The root page is read once
/// and the continuation chain is walked **at most once**, so resolving a
/// whole region costs `1 + ⌈chained-span/INDEX_IDS⌉` index-page touches
/// instead of one chain walk per chunk.
fn resolve_chunk_pages<R: PageRead + ?Sized>(
    reader: &mut R,
    id: BlobId,
    n_chunks: usize,
    needed: &[usize],
) -> Result<Vec<PageId>> {
    assert!(needed.windows(2).all(|w| w[0] < w[1]));
    assert!(needed.last().map_or(true, |&c| c < n_chunks));
    let direct = direct_count(n_chunks);
    let mut out = Vec::with_capacity(needed.len());
    let mut continuation: Option<PageId> = None;
    {
        let bytes = reader.read_page(id)?;
        if bytes[0] != page_type::BLOB_ROOT {
            return Err(StorageError::PageTypeMismatch {
                page: id,
                expected: page_type::BLOB_ROOT,
                got: bytes[0],
            });
        }
        for &c in needed.iter().take_while(|&&c| c < direct) {
            out.push(sqlarray_core::le::u64_at(bytes, 16 + 8 * c));
        }
        if needed.last().is_some_and(|&c| c >= direct) {
            let slot = ROOT_DIRECT - 1;
            continuation = Some(sqlarray_core::le::u64_at(bytes, 16 + 8 * slot));
        }
    }
    // Walk the continuation chain once for the rest.
    let mut rest = needed.iter().copied().filter(|&c| c >= direct).peekable();
    let mut base = direct; // first chunk index covered by the current page
    let mut page = continuation;
    while rest.peek().is_some() {
        let (bytes, count, next) = index_page(reader, page, base, n_chunks)?;
        while let Some(&c) = rest.peek() {
            if c >= base + count {
                break;
            }
            let rel = c - base;
            out.push(sqlarray_core::le::u64_at(bytes, 16 + 8 * rel));
            rest.next();
        }
        base += count;
        page = next;
    }
    Ok(out)
}

/// Reads `buf.len()` bytes starting at `offset` — the partial-read path.
/// Only the chunk pages covering the range are touched. Generic over
/// [`PageRead`]: scan workers read LOB ranges through their live-pool
/// [`crate::PartitionReader`] exactly like the serial store path.
pub fn read_blob_range<R: PageRead + ?Sized>(
    reader: &mut R,
    id: BlobId,
    offset: usize,
    buf: &mut [u8],
) -> Result<()> {
    let len = buf.len();
    read_blob_runs(reader, id, &[(offset, len)], buf)
}

/// Vectored partial read: fetches a set of byte runs into `out` (which
/// must be exactly the runs' total length), run after run.
///
/// This is the page-ranged backbone of `Subarray` pushdown: byte-adjacent
/// runs are coalesced, the run set is mapped to the minimal set of chunk
/// pages (root read once, continuation chain walked at most once), and
/// every page touch goes through `reader` — so the touches land in the
/// live pool with the caller's stamps and classify into its
/// [`crate::IoStats`] just like leaf-page reads, keeping parallel scans
/// bit-identical to serial. Before each chunk read, `reader` is told the
/// chunk pages still ahead ([`PageRead::read_ahead`]), so a scan worker
/// verifies cold chunks a group at a time.
pub fn read_blob_runs<R: PageRead + ?Sized>(
    reader: &mut R,
    id: BlobId,
    runs: &[ByteRun],
    out: &mut [u8],
) -> Result<()> {
    let mut cursor = 0usize;
    copy_runs(reader, id, runs, out.len(), |piece| {
        out[cursor..cursor + piece.len()].copy_from_slice(piece);
        cursor += piece.len();
    })?;
    assert_eq!(cursor, out.len());
    Ok(())
}

/// Reads the entire blob. Each byte of the result is written once, by the
/// copy from its chunk page.
pub fn read_blob<R: PageRead + ?Sized>(reader: &mut R, id: BlobId) -> Result<Vec<u8>> {
    let len = blob_len(reader, id)?;
    let mut out = Vec::with_capacity(len);
    copy_runs(reader, id, &[(0, len)], len, |piece| {
        out.extend_from_slice(piece)
    })?;
    Ok(out)
}

/// The copy loop behind [`read_blob_runs`] and [`read_blob`]: checks
/// `runs` against the blob's length and their total against `want`, the
/// bytes the caller takes, then hands `sink` the runs' bytes in order, one
/// chunk page's share at a time.
fn copy_runs<R: PageRead + ?Sized>(
    reader: &mut R,
    id: BlobId,
    runs: &[ByteRun],
    want: usize,
    mut sink: impl FnMut(&[u8]),
) -> Result<()> {
    let (total, n_chunks) = root_info(reader, id)?;
    let mut need_len = 0usize;
    for &(offset, len) in runs {
        // checked_add: `offset + len` could wrap for a corrupt run and
        // turn an out-of-range request into a passing bounds check.
        if offset.checked_add(len).map_or(true, |end| end > total) {
            return Err(StorageError::BlobRangeOutOfBounds { offset, len, total });
        }
        need_len += len;
    }
    if need_len != want {
        return Err(StorageError::RowCorrupt(format!(
            "vectored blob read plans {need_len} bytes into a {want}-byte buffer"
        )));
    }
    if need_len == 0 {
        return Ok(());
    }

    // Coalesce byte-adjacent runs: the region planner emits runs in
    // ascending order, and neighbouring rows of a region often abut.
    let mut segments: Vec<ByteRun> = Vec::with_capacity(runs.len());
    for &(offset, len) in runs {
        if len == 0 {
            continue;
        }
        match segments.last_mut() {
            Some((seg_off, seg_len)) if *seg_off + *seg_len == offset => *seg_len += len,
            _ => segments.push((offset, len)),
        }
    }

    // Distinct chunk indices, ascending, then one batched id resolution.
    let mut needed: Vec<usize> = Vec::new();
    for &(offset, len) in &segments {
        // lint:allow(L003, reason = "segments merge runs already bounds-checked against total with checked_add above, and len > 0 here, so offset + len - 1 < total cannot wrap")
        for c in offset / CHUNK_DATA..=(offset + len - 1) / CHUNK_DATA {
            match needed.binary_search(&c) {
                Ok(_) => {}
                Err(pos) => needed.insert(pos, c),
            }
        }
    }
    let pages = resolve_chunk_pages(reader, id, n_chunks, &needed)?;

    for &(offset, len) in &segments {
        let mut pos = offset;
        let mut remaining = len;
        while remaining > 0 {
            let c = pos / CHUNK_DATA;
            let lo = pos - c * CHUNK_DATA;
            let take = (CHUNK_DATA - lo).min(remaining);
            // lint:allow(L005, reason = "the planning loop above inserted every chunk index each segment touches into `needed`, so only planned chunks are looked up")
            let k = needed.binary_search(&c).expect("chunk was planned");
            let page = pages[k];
            reader.read_ahead(&pages[k..]);
            let bytes = reader.read_page(page)?;
            if bytes[0] != page_type::BLOB_CHUNK {
                return Err(StorageError::PageTypeMismatch {
                    page,
                    expected: page_type::BLOB_CHUNK,
                    got: bytes[0],
                });
            }
            sink(&bytes[16 + lo..16 + lo + take]);
            pos += take;
            remaining -= take;
        }
    }
    Ok(())
}

/// A streamed view over one blob, implementing the array crate's
/// [`ArraySource`](sqlarray_core::stream::ArraySource) so that
/// `ArrayReader` can subset max arrays straight off the page store.
///
/// Generic over [`PageRead`]: `BlobStream::open(&mut store, id)` serves
/// the serial path, `BlobStream::open(&mut partition_reader, id)` gives a
/// parallel-scan worker the same lazy view through the live pool. The
/// [`read_runs`](sqlarray_core::stream::ArraySource::read_runs) override
/// routes a planned region through the vectored [`read_blob_runs`], so a
/// `Subarray` touches the minimal set of chunk pages.
pub struct BlobStream<'a, R: PageRead + ?Sized = PageStore> {
    reader: &'a mut R,
    id: BlobId,
    len: usize,
}

impl<'a, R: PageRead + ?Sized> BlobStream<'a, R> {
    /// Opens a stream over blob `id` (one root-page read).
    pub fn open(reader: &'a mut R, id: BlobId) -> Result<BlobStream<'a, R>> {
        let len = blob_len(reader, id)?;
        Ok(BlobStream { reader, id, len })
    }
}

impl<R: PageRead + ?Sized> sqlarray_core::stream::ArraySource for BlobStream<'_, R> {
    fn blob_len(&self) -> usize {
        self.len
    }

    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> sqlarray_core::Result<()> {
        read_blob_range(self.reader, self.id, offset, buf)
            .map_err(|e| sqlarray_core::ArrayError::Io(e.to_string()))
    }

    fn read_runs(&mut self, runs: &[(usize, usize)], out: &mut [u8]) -> sqlarray_core::Result<()> {
        read_blob_runs(self.reader, self.id, runs, out)
            .map_err(|e| sqlarray_core::ArrayError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// A root whose slot 1 names chunk 0's page — a correctly logged
    /// write made it so — is freed up to the page it names twice: that
    /// free is refused, typed, before it is logged, so no page leaks into
    /// the free list twice and the log still replays, cut at the last
    /// commit or committed past the refusal.
    #[test]
    fn a_root_naming_one_chunk_twice_frees_it_once() {
        let mut store = PageStore::new();
        let id = write_blob(&mut store, &pattern(3 * CHUNK_DATA - 100)).unwrap();
        let first = sqlarray_core::le::u64_at(store.raw_page(id).unwrap(), 16);
        store
            .write(id, |b| b[24..32].copy_from_slice(&first.to_le_bytes()))
            .unwrap();
        store.commit(b"linked twice");
        let logged = store.stats().wal_records;
        assert_eq!(
            free_blob(&mut store, id),
            Err(StorageError::PageAlreadyFree { page: first })
        );
        assert_eq!(store.free_pages(), [first]);
        assert_eq!(
            store.stats().wal_records,
            logged + 1,
            "the refused free logs nothing"
        );
        let rec = PageStore::open(&store.crash_image()).unwrap();
        assert!(rec.store.free_pages().is_empty());
        store.commit(b"after the refusal");
        let rec = PageStore::open(&store.crash_image()).unwrap();
        assert_eq!(rec.store.free_pages(), [first]);
    }

    #[test]
    fn small_blob_round_trip() {
        let mut store = PageStore::new();
        let data = pattern(100);
        let id = write_blob(&mut store, &data).unwrap();
        assert_eq!(blob_len(&mut store, id).unwrap(), 100);
        assert_eq!(read_blob(&mut store, id).unwrap(), data);
        assert_eq!(blob_pages(&mut store, id).unwrap(), 2); // root + 1 chunk
    }

    #[test]
    fn empty_blob() {
        let mut store = PageStore::new();
        let id = write_blob(&mut store, &[]).unwrap();
        assert_eq!(blob_len(&mut store, id).unwrap(), 0);
        assert_eq!(read_blob(&mut store, id).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn exact_chunk_boundary() {
        let mut store = PageStore::new();
        for len in [CHUNK_DATA - 1, CHUNK_DATA, CHUNK_DATA + 1, 3 * CHUNK_DATA] {
            let data = pattern(len);
            let id = write_blob(&mut store, &data).unwrap();
            assert_eq!(read_blob(&mut store, id).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn six_megabyte_blob_round_trip() {
        // The turbulence use case's 6 MB velocity blobs (§2.1).
        let mut store = PageStore::new();
        let data = pattern(6 * 1024 * 1024);
        let id = write_blob(&mut store, &data).unwrap();
        assert_eq!(read_blob(&mut store, id).unwrap(), data);
    }

    #[test]
    fn range_reads_match_full_read() {
        let mut store = PageStore::new();
        let data = pattern(5 * CHUNK_DATA + 123);
        let id = write_blob(&mut store, &data).unwrap();
        for (off, len) in [
            (0usize, 10usize),
            (CHUNK_DATA - 5, 10),         // straddles a chunk boundary
            (2 * CHUNK_DATA, CHUNK_DATA), // exactly one chunk
            (data.len() - 7, 7),          // tail
            (1234, 3 * CHUNK_DATA),       // multi-chunk middle
        ] {
            let mut buf = vec![0u8; len];
            read_blob_range(&mut store, id, off, &mut buf).unwrap();
            assert_eq!(buf, &data[off..off + len], "range ({off}, {len})");
        }
    }

    #[test]
    fn out_of_bounds_range_rejected() {
        let mut store = PageStore::new();
        let id = write_blob(&mut store, &pattern(100)).unwrap();
        let mut buf = vec![0u8; 10];
        assert!(matches!(
            read_blob_range(&mut store, id, 95, &mut buf),
            Err(StorageError::BlobRangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn partial_read_touches_fewer_pages() {
        let mut store = PageStore::new();
        let data = pattern(768 * CHUNK_DATA); // ~6 MB, 768 chunks
        let id = write_blob(&mut store, &data).unwrap();
        store.clear_cache();
        store.reset_stats();
        let mut buf = vec![0u8; 64];
        read_blob_range(&mut store, id, 100 * CHUNK_DATA, &mut buf).unwrap();
        let partial_pages = store.stats().pages_read;
        assert!(
            partial_pages <= 3,
            "partial read touched {partial_pages} pages"
        );

        store.clear_cache();
        store.reset_stats();
        let _ = read_blob(&mut store, id).unwrap();
        assert!(store.stats().pages_read >= 768);
    }

    #[test]
    fn huge_blob_uses_index_chain() {
        // > ROOT_DIRECT chunks forces the continuation chain:
        // 1200 chunks ≈ 9.4 MB.
        let mut store = PageStore::new();
        let data = pattern(1200 * CHUNK_DATA);
        let id = write_blob(&mut store, &data).unwrap();
        const _: () = assert!(1200 > ROOT_DIRECT);
        assert_eq!(read_blob(&mut store, id).unwrap(), data);
        // Check a read that lands entirely in the chained region.
        let off = 1100 * CHUNK_DATA + 17;
        let mut buf = vec![0u8; 100];
        read_blob_range(&mut store, id, off, &mut buf).unwrap();
        assert_eq!(buf, &data[off..off + 100]);
        let pages = blob_pages(&mut store, id).unwrap();
        assert_eq!(pages, 1 + 1200 + 1); // root + chunks + one index page
    }

    #[test]
    fn blob_stream_feeds_array_reader() {
        use sqlarray_core::prelude::*;
        let mut store = PageStore::new();
        // A 64³ float64 max array: 2 MB payload, comfortably out-of-page.
        let a = SqlArray::from_fn(StorageClass::Max, &[64, 64, 64], |idx| {
            (idx[0] + 64 * idx[1] + 4096 * idx[2]) as f64
        })
        .unwrap();
        let id = write_blob(&mut store, a.as_blob()).unwrap();

        store.clear_cache();
        store.reset_stats();
        let stream = BlobStream::open(&mut store, id).unwrap();
        let mut reader = ArrayReader::open(stream).unwrap();
        let sub = reader.subarray(&[10, 20, 30], &[8, 8, 8], false).unwrap();
        assert_eq!(sub.dims(), &[8, 8, 8]);
        assert_eq!(
            sub.item(&[0, 0, 0]).unwrap(),
            Scalar::F64((10 + 64 * 20 + 4096 * 30) as f64)
        );
        // The 8³ kernel subset must touch far fewer pages than the 256-page
        // full blob.
        let pages = store.stats().pages_read;
        assert!(pages < 80, "streamed subarray touched {pages} pages");
    }

    #[test]
    fn vectored_runs_match_scalar_ranges() {
        let mut store = PageStore::new();
        let data = pattern(10 * CHUNK_DATA + 77);
        let id = write_blob(&mut store, &data).unwrap();
        let runs = [
            (5usize, 100usize),
            (105, 50), // adjacent to the previous run: coalesces
            (CHUNK_DATA - 3, 10),
            (3 * CHUNK_DATA, 2 * CHUNK_DATA),
            (data.len() - 9, 9),
        ];
        let total: usize = runs.iter().map(|r| r.1).sum();
        let mut out = vec![0u8; total];
        read_blob_runs(&mut store, id, &runs, &mut out).unwrap();
        let mut expect = Vec::new();
        for &(o, l) in &runs {
            expect.extend_from_slice(&data[o..o + l]);
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn vectored_runs_touch_minimal_pages() {
        let mut store = PageStore::new();
        let data = pattern(1300 * CHUNK_DATA); // > ROOT_DIRECT: chained
        let id = write_blob(&mut store, &data).unwrap();
        store.clear_cache();
        store.reset_stats();
        // 32 scattered 40-byte runs, one per chunk, in the chained region.
        let runs: Vec<ByteRun> = (0..32)
            .map(|i| ((1250 + i) * CHUNK_DATA + 11, 40))
            .collect();
        let mut out = vec![0u8; 32 * 40];
        read_blob_runs(&mut store, id, &runs, &mut out).unwrap();
        let st = store.stats();
        // 32 chunk pages + root + the index chain (≤ 2 pages).
        assert!(st.pages_read <= 32 + 3, "touched {st:?}");
        for (i, &(o, _)) in runs.iter().enumerate() {
            assert_eq!(&out[i * 40..(i + 1) * 40], &data[o..o + 40]);
        }
    }

    #[test]
    fn vectored_runs_validate_bounds_and_buffer() {
        let mut store = PageStore::new();
        let data = pattern(100);
        let id = write_blob(&mut store, &data).unwrap();
        let mut buf = vec![0u8; 10];
        assert!(matches!(
            read_blob_runs(&mut store, id, &[(95, 10)], &mut buf),
            Err(StorageError::BlobRangeOutOfBounds { .. })
        ));
        // Planned bytes must equal the output buffer exactly.
        assert!(read_blob_runs(&mut store, id, &[(0, 5)], &mut buf).is_err());
        read_blob_runs(&mut store, id, &[(0, 4), (4, 6)], &mut buf).unwrap();
        assert_eq!(buf, &data[..10]);
    }

    #[test]
    fn partition_reader_reads_blobs_through_the_live_pool() {
        // A scan worker resolves LOBs through its own reader: same bytes,
        // counters classified into the worker's ScanIo, pool touched live.
        let mut store = PageStore::new();
        let data = pattern(3 * CHUNK_DATA);
        let id = write_blob(&mut store, &data).unwrap();
        store.clear_cache();
        store.reset_stats();
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let got = read_blob(&mut r, id).unwrap();
        assert_eq!(got, data);
        let io = r.finish();
        assert_eq!(io.io.pages_read, 4); // root + 3 chunks, cold
        drop(scan);
        store.finish_scan([&io]);
        assert_eq!(store.stats().pages_read, 4);
        // The pages are now resident: a serial re-read is all cache hits.
        let before = store.stats();
        let again = read_blob(&mut store, id).unwrap();
        assert_eq!(again, data);
        assert_eq!(store.stats().since(&before).pages_read, 0);
    }

    #[test]
    fn update_range_rewrites_only_touched_chunks() {
        let mut store = PageStore::new();
        let mut data = pattern(6 * CHUNK_DATA + 123);
        let id = write_blob(&mut store, &data).unwrap();
        let off = 2 * CHUNK_DATA - 5;
        let patch: Vec<u8> = (0..CHUNK_DATA + 10).map(|i| (i % 7) as u8 ^ 0xAA).collect();
        let before = store.stats();
        let touched = update_blob_range(&mut store, id, off, &patch).unwrap();
        assert_eq!(touched, 3); // straddles chunks 1, 2 and 3
        assert_eq!(store.stats().since(&before).pages_written, 3);
        data[off..off + patch.len()].copy_from_slice(&patch);
        assert_eq!(read_blob(&mut store, id).unwrap(), data);
    }

    #[test]
    fn update_range_validates_bounds() {
        let mut store = PageStore::new();
        let id = write_blob(&mut store, &pattern(100)).unwrap();
        assert!(matches!(
            update_blob_range(&mut store, id, 95, &pattern(10)),
            Err(StorageError::BlobRangeOutOfBounds { .. })
        ));
        // An offset that would wrap `offset + len` must also be rejected.
        assert!(matches!(
            update_blob_range(&mut store, id, usize::MAX, &pattern(2)),
            Err(StorageError::BlobRangeOutOfBounds { .. })
        ));
        // Empty updates are no-ops.
        let before = store.stats();
        assert_eq!(update_blob_range(&mut store, id, 50, &[]).unwrap(), 0);
        assert_eq!(store.stats().since(&before).pages_written, 0);
    }

    #[test]
    fn small_slice_update_of_16mb_array_is_bounded() {
        // The paper's ArrayUpdate use case: patch a 0.78 % slice of a
        // 16 MB array and prove the write cost is proportional to the
        // slice, not the array.
        let mut store = PageStore::new();
        let len = 16 * 1024 * 1024;
        let data = pattern(len);
        let id = write_blob(&mut store, &data).unwrap();
        let slice = vec![0x5Au8; len / 128]; // 0.78 % of the array
        let before = store.stats();
        let touched = update_blob_range(&mut store, id, 7 * CHUNK_DATA + 11, &slice).unwrap();
        let bound = slice.len().div_ceil(CHUNK_DATA) as u64 + 1; // intersecting chunks
        assert!(touched <= bound, "touched {touched} pages, bound {bound}");
        assert_eq!(store.stats().since(&before).pages_written, touched);
        let mut expect = data;
        expect[7 * CHUNK_DATA + 11..7 * CHUNK_DATA + 11 + slice.len()].copy_from_slice(&slice);
        assert_eq!(read_blob(&mut store, id).unwrap(), expect);
    }

    #[test]
    fn free_blob_releases_every_page_for_reuse() {
        let mut store = PageStore::new();
        let data = pattern(3 * CHUNK_DATA + 9);
        let id = write_blob(&mut store, &data).unwrap();
        let pages = blob_pages(&mut store, id).unwrap();
        let count_before = store.page_count();
        let freed = free_blob(&mut store, id).unwrap();
        assert_eq!(freed, pages);
        assert_eq!(store.free_pages().len() as u64, pages);
        // A same-size rewrite recycles every freed page: no file growth.
        let id2 = write_blob(&mut store, &data).unwrap();
        assert_eq!(store.page_count(), count_before);
        assert_eq!(read_blob(&mut store, id2).unwrap(), data);
        assert!(store.free_pages().is_empty());
    }

    #[test]
    fn free_blob_covers_the_index_chain() {
        let mut store = PageStore::new();
        let data = pattern(1100 * CHUNK_DATA); // > ROOT_DIRECT: chained
        let id = write_blob(&mut store, &data).unwrap();
        let pages = blob_pages(&mut store, id).unwrap();
        assert_eq!(pages, 1 + 1100 + 1); // root + chunks + one index page
        let freed = free_blob(&mut store, id).unwrap();
        assert_eq!(freed, pages);
        assert_eq!(store.free_pages().len() as u64, pages);
    }

    /// `read_blob` (which appends into a buffer it never zero-fills) and
    /// `read_blob_runs` (which copies into the caller's) return the bytes
    /// written, through the serial store and through a scan worker, at
    /// lengths around one chunk and one chunk past what the root holds.
    #[test]
    fn a_full_read_returns_every_byte_once() {
        let mut store = PageStore::new();
        let lens = [
            0,
            1,
            CHUNK_DATA - 1,
            CHUNK_DATA,
            CHUNK_DATA + 1,
            (ROOT_DIRECT + 1) * CHUNK_DATA,
        ];
        let blobs: Vec<(BlobId, Vec<u8>)> = lens
            .iter()
            .map(|&len| {
                let data = pattern(len);
                (write_blob(&mut store, &data).unwrap(), data)
            })
            .collect();
        store.clear_cache();
        for (id, data) in &blobs {
            let len = data.len();
            assert_eq!(read_blob(&mut store, *id).unwrap(), *data, "len {len}");
            let scan = store.begin_scan();
            let mut r = store.reader(&scan, 0);
            assert_eq!(read_blob(&mut r, *id).unwrap(), *data, "len {len}, worker");
            let mut out = vec![0xEEu8; len];
            read_blob_runs(
                &mut r,
                *id,
                &[(0, len / 2), (len / 2, len - len / 2)],
                &mut out,
            )
            .unwrap();
            assert_eq!(out, *data, "len {len}, runs");
        }
    }

    /// A scan worker's reads with read-ahead hints dropped: how LOB pages
    /// were read before hints existed.
    struct Unhinted<'r, 'a>(&'r mut crate::PartitionReader<'a>);

    impl PageRead for Unhinted<'_, '_> {
        fn read_page(&mut self, id: PageId) -> Result<&[u8]> {
            self.0.read(id)
        }

        fn page_count(&self) -> u64 {
            PageRead::page_count(&*self.0)
        }
    }

    /// A LOB read through a scan worker sums cold chunks a group at a time
    /// and still fails like one page at a time: the same `PageCorrupt`
    /// payload, counters and pool order when the flipped chunk is first,
    /// in the middle or last in its group — for a full read and for a
    /// vectored one that skips chunks.
    #[test]
    fn a_corrupt_chunk_fails_a_grouped_lob_read_like_a_page_by_page_one() {
        const G: usize = crate::wal::SUM_GROUP;
        let data = pattern(3 * G * CHUNK_DATA + 5);
        let runs: Vec<ByteRun> = (0..3 * G)
            .step_by(2)
            .map(|c| (c * CHUNK_DATA + 9, 40))
            .collect();
        let read = |flipped: Option<usize>, vectored: bool, hinted: bool| {
            let mut store = PageStore::new();
            let id = write_blob(&mut store, &data).unwrap();
            let chunks =
                resolve_chunk_pages(&mut store, id, 3 * G + 1, &(0..=3 * G).collect::<Vec<_>>())
                    .unwrap();
            if let Some(c) = flipped {
                store.corrupt_byte(chunks[c], 500);
            }
            store.clear_cache();
            let scan = store.begin_scan();
            let mut r = store.reader(&scan, 0);
            let mut out = vec![0u8; runs.len() * 40];
            let res = match (vectored, hinted) {
                (false, true) => read_blob(&mut r, id).map(drop),
                (false, false) => read_blob(&mut Unhinted(&mut r), id).map(drop),
                (true, true) => read_blob_runs(&mut r, id, &runs, &mut out),
                (true, false) => read_blob_runs(&mut Unhinted(&mut r), id, &runs, &mut out),
            };
            let io = r.finish();
            drop(scan);
            store.finish_scan([&io]);
            let named = res.as_ref().err().map(|e| match e {
                StorageError::PageCorrupt { page, .. } => chunks.iter().position(|p| p == page),
                other => panic!("{other:?}"),
            });
            (res.err(), named, io.io, store.pool().keys_mru_order())
        };
        for vectored in [false, true] {
            for flipped in [
                None,
                Some(G),
                Some(G + G / 2),
                Some(2 * G - 1),
                Some(2 * G + 2),
            ] {
                let hinted = read(flipped, vectored, true);
                assert_eq!(hinted, read(flipped, vectored, false), "chunk {flipped:?}");
                let read_there = flipped.filter(|c| !vectored || c % 2 == 0);
                assert_eq!(
                    hinted.1,
                    read_there.map(Some),
                    "chunk {flipped:?}, vectored {vectored}"
                );
            }
        }
    }

    /// Damaged root and index pages — written through the store, so their
    /// checksums hold — are `RowCorrupt` for every reader of the blob, not
    /// a panic, an abort-sized allocation or an endless walk: a chunk
    /// count that disagrees with the length or exceeds the file, an index
    /// count of 0 or past the page, and a chain that loops back on itself.
    #[test]
    fn damaged_root_and_index_pages_are_typed_errors() {
        let mut store = PageStore::new();
        let n_chunks = ROOT_DIRECT + 78;
        let data = pattern(n_chunks * CHUNK_DATA - 3);
        let id = write_blob(&mut store, &data).unwrap();
        let index = sqlarray_core::le::u64_at(store.read(id).unwrap(), 16 + 8 * (ROOT_DIRECT - 1));
        let root_fields = |total: u64, n: u32| {
            move |b: &mut [u8]| {
                b[4..12].copy_from_slice(&total.to_le_bytes());
                b[12..16].copy_from_slice(&n.to_le_bytes());
            }
        };
        let index_fields = |count: u32, next: u64| {
            move |b: &mut [u8]| {
                b[4..8].copy_from_slice(&count.to_le_bytes());
                b[8..16].copy_from_slice(&next.to_le_bytes());
            }
        };
        let (total, n) = (data.len() as u64, n_chunks as u32);
        type Damage = Box<dyn Fn(&mut [u8])>;
        let cases: [(&str, PageId, Damage, &str); 7] = [
            (
                "one chunk too many",
                id,
                Box::new(root_fields(total, n + 1)),
                "lists",
            ),
            (
                "one chunk too few",
                id,
                Box::new(root_fields(total, n - 1)),
                "lists",
            ),
            (
                "more chunks than the file has pages",
                id,
                Box::new(root_fields(
                    u64::from(u32::MAX) * CHUNK_DATA as u64,
                    u32::MAX,
                )),
                "page file",
            ),
            (
                "an empty index page",
                index,
                Box::new(index_fields(0, u64::MAX)),
                "holds 0 ids",
            ),
            (
                "an empty index page naming itself next",
                index,
                Box::new(index_fields(0, index)),
                "holds 0 ids",
            ),
            (
                "an index count past the page",
                index,
                Box::new(index_fields(INDEX_IDS as u32 + 1, u64::MAX)),
                "not 1 to",
            ),
            (
                "a chain that loops back on itself",
                index,
                Box::new(index_fields(40, index)),
                "longer than chunk count",
            ),
        ];
        let tail = data.len() - 10;
        let ops = |store: &mut PageStore| -> [Result<()>; 4] {
            let mut buf = [0u8; 10];
            [
                read_blob(store, id).map(drop),
                read_blob_runs(store, id, &[(tail, 10)], &mut buf),
                update_blob_range(store, id, tail, &[7; 10]).map(drop),
                free_blob(store, id).map(drop),
            ]
        };
        for (what, page, damage, says) in &cases {
            let intact = store.read(*page).unwrap().to_vec();
            store.write(*page, |b| damage(b)).unwrap();
            for (op, res) in [
                "read_blob",
                "read_blob_runs",
                "update_blob_range",
                "free_blob",
            ]
            .iter()
            .zip(ops(&mut store))
            {
                match res {
                    Err(StorageError::RowCorrupt(msg)) => {
                        assert!(msg.contains(says), "{what}, {op}: {msg}")
                    }
                    other => panic!("{what}, {op}: {other:?}"),
                }
            }
            store.write(*page, |b| b.copy_from_slice(&intact)).unwrap();
        }
        let [read, runs, update, free] = ops(&mut store);
        assert!(
            read.is_ok() && runs.is_ok() && update.is_ok(),
            "the intact blob reads"
        );
        assert!(free.is_ok());
    }

    #[test]
    fn wrong_page_type_detected() {
        let mut store = PageStore::new();
        let data_page = store.allocate();
        assert!(matches!(
            blob_len(&mut store, data_page),
            Err(StorageError::PageTypeMismatch { .. })
        ));
    }
}
