//! Slotted-page layout.
//!
//! Every page is [`PAGE_SIZE`] = 8192 bytes, the SQL Server data-page size
//! that drives the short/max array split ("blobs smaller than 8 kB are
//! stored on-page, as they fit into the 8 kB storage engine data pages",
//! §3.3). Record pages use the classic slotted layout:
//!
//! ```text
//! 0                16                          free              8192
//! +----------------+---------------------------+----//----+------+
//! | page header    | records (grow upward)     |   free   | slot |
//! |                |                           |          | dir  |
//! +----------------+---------------------------+----//----+------+
//! ```
//!
//! Header: `type u8 | reserved u8 | slot_count u16 | free_off u16 |
//! next_page u64 | pad`. The slot directory at the page tail stores
//! `(offset u16, len u16)` per record, growing downward.

use crate::errors::{Result, StorageError};
use std::ops::Range;

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Identifier of a page within the store.
pub type PageId = u64;

/// Byte offset where record data starts.
pub const PAGE_HEADER_LEN: usize = 16;
/// Bytes per slot-directory entry.
pub const SLOT_LEN: usize = 4;

/// Page type tags (first header byte).
pub mod page_type {
    /// B-tree leaf page.
    pub const BTREE_LEAF: u8 = 1;
    /// B-tree internal page.
    pub const BTREE_INTERNAL: u8 = 2;
    /// Blob root (LOB descriptor) page.
    pub const BLOB_ROOT: u8 = 3;
    /// Blob data chunk page.
    pub const BLOB_CHUNK: u8 = 4;
    /// Blob chunk-id continuation page.
    pub const BLOB_INDEX: u8 = 5;
}

/// In-place view over a page's bytes implementing the slotted layout.
///
/// `SlottedPage` borrows the raw bytes; it holds no state of its own, so a
/// page can be re-viewed freely after round-tripping through the store.
pub struct SlottedPage<'a> {
    bytes: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Initializes the slotted structure on zeroed bytes.
    pub fn init(bytes: &'a mut [u8], ptype: u8) -> SlottedPage<'a> {
        assert_eq!(bytes.len(), PAGE_SIZE);
        bytes[0] = ptype;
        bytes[1] = 0;
        bytes[2..4].copy_from_slice(&0u16.to_le_bytes());
        bytes[4..6].copy_from_slice(&(PAGE_HEADER_LEN as u16).to_le_bytes());
        bytes[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        SlottedPage { bytes }
    }

    /// Views existing page bytes, checking the type tag.
    pub fn open(bytes: &'a mut [u8], expect_type: u8, page: PageId) -> Result<SlottedPage<'a>> {
        if bytes[0] != expect_type {
            return Err(StorageError::PageTypeMismatch {
                page,
                expected: expect_type,
                got: bytes[0],
            });
        }
        Ok(SlottedPage { bytes })
    }

    /// The page type byte.
    pub fn page_type(&self) -> u8 {
        self.bytes[0]
    }

    /// Number of records.
    pub fn slot_count(&self) -> usize {
        u16::from_le_bytes([self.bytes[2], self.bytes[3]]) as usize
    }

    fn free_off(&self) -> usize {
        u16::from_le_bytes([self.bytes[4], self.bytes[5]]) as usize
    }

    fn set_slot_count(&mut self, n: usize) {
        self.bytes[2..4].copy_from_slice(&(n as u16).to_le_bytes());
    }

    fn set_free_off(&mut self, off: usize) {
        self.bytes[4..6].copy_from_slice(&(off as u16).to_le_bytes());
    }

    /// Sibling link (next leaf in key order); `u64::MAX` means none.
    pub fn next_page(&self) -> Option<PageId> {
        let v = sqlarray_core::le::u64_at(self.bytes, 6);
        (v != u64::MAX).then_some(v)
    }

    /// Sets the sibling link.
    pub fn set_next_page(&mut self, next: Option<PageId>) {
        let v = next.unwrap_or(u64::MAX);
        self.bytes[6..14].copy_from_slice(&v.to_le_bytes());
    }

    /// Free bytes available for one more record (slot entry included).
    pub fn free_space(&self) -> usize {
        free_tail(self.bytes, self.slot_count()).saturating_sub(SLOT_LEN)
    }

    /// Largest record this layout can ever hold in one page.
    pub const fn max_record() -> usize {
        PAGE_SIZE - PAGE_HEADER_LEN - SLOT_LEN
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let base = PAGE_SIZE - (i + 1) * SLOT_LEN;
        let off = u16::from_le_bytes([self.bytes[base], self.bytes[base + 1]]) as usize;
        let len = u16::from_le_bytes([self.bytes[base + 2], self.bytes[base + 3]]) as usize;
        (off, len)
    }

    fn write_slot(&mut self, i: usize, off: usize, len: usize) {
        let base = PAGE_SIZE - (i + 1) * SLOT_LEN;
        self.bytes[base..base + 2].copy_from_slice(&(off as u16).to_le_bytes());
        self.bytes[base + 2..base + 4].copy_from_slice(&(len as u16).to_le_bytes());
    }

    /// Returns record `i`.
    pub fn record(&self, i: usize) -> Result<&[u8]> {
        if i >= self.slot_count() {
            return Err(StorageError::BadSlot {
                slot: i,
                count: self.slot_count(),
            });
        }
        let (off, len) = self.slot(i);
        Ok(&self.bytes[off..off + len])
    }

    /// Inserts a record at slot position `i`, shifting later slots down.
    /// Record bytes always append at the free offset; only the 4-byte slot
    /// directory entries move.
    pub fn insert_record(&mut self, i: usize, rec: &[u8]) -> Result<()> {
        let count = self.slot_count();
        if i > count {
            return Err(StorageError::BadSlot { slot: i, count });
        }
        if rec.len() > self.free_space() {
            return Err(StorageError::RecordTooLarge {
                bytes: rec.len(),
                limit: self.free_space(),
            });
        }
        let off = self.free_off();
        self.bytes[off..off + rec.len()].copy_from_slice(rec);
        // Shift slots [i, count) one position toward the page start: their
        // directory entries move 4 bytes down, in one move.
        let dir = PAGE_SIZE - count * SLOT_LEN;
        self.bytes
            .copy_within(dir..PAGE_SIZE - i * SLOT_LEN, dir - SLOT_LEN);
        self.write_slot(i, off, rec.len());
        self.set_slot_count(count + 1);
        self.set_free_off(off + rec.len());
        Ok(())
    }

    /// Appends a record after the last slot.
    pub fn push_record(&mut self, rec: &[u8]) -> Result<usize> {
        let i = self.slot_count();
        self.insert_record(i, rec)?;
        Ok(i)
    }

    /// Replaces record `i` in place. A record that shrank (or kept its
    /// size) overwrites its own bytes; one that grew is appended at the
    /// free offset and the slot repointed (the old bytes become dead space
    /// until the page is compacted). Fails with
    /// [`StorageError::RecordTooLarge`] when the grown record does not fit
    /// the remaining free space — the caller compacts or splits then.
    pub fn replace_record(&mut self, i: usize, rec: &[u8]) -> Result<()> {
        let count = self.slot_count();
        if i >= count {
            return Err(StorageError::BadSlot { slot: i, count });
        }
        let (off, len) = self.slot(i);
        if rec.len() <= len {
            self.bytes[off..off + rec.len()].copy_from_slice(rec);
            self.write_slot(i, off, rec.len());
            return Ok(());
        }
        // Growing: the slot entry itself is already paid for, so the only
        // cost is the new record bytes.
        let free = free_tail(self.bytes, count);
        if rec.len() > free {
            return Err(StorageError::RecordTooLarge {
                bytes: rec.len(),
                limit: free,
            });
        }
        let new_off = self.free_off();
        self.bytes[new_off..new_off + rec.len()].copy_from_slice(rec);
        self.write_slot(i, new_off, rec.len());
        self.set_free_off(new_off + rec.len());
        Ok(())
    }

    /// Removes slot `i` (the record bytes become dead space until the page
    /// is compacted): later slots move up one entry in one move, and the
    /// entry at the old last position stays behind, stale.
    pub fn remove_slot(&mut self, i: usize) -> Result<()> {
        let count = self.slot_count();
        if i >= count {
            return Err(StorageError::BadSlot { slot: i, count });
        }
        // Slot `j`'s entry sits at `PAGE_SIZE - (j + 1) * SLOT_LEN`.
        let dir = PAGE_SIZE - count * SLOT_LEN;
        self.bytes
            .copy_within(dir..PAGE_SIZE - (i + 1) * SLOT_LEN, dir + SLOT_LEN);
        self.set_slot_count(count - 1);
        Ok(())
    }

    /// Clears the page back to an empty slotted page of the same type,
    /// keeping the sibling link.
    pub fn reset(&mut self) {
        let t = self.page_type();
        let next = self.next_page();
        for b in self.bytes[..PAGE_HEADER_LEN].iter_mut() {
            *b = 0;
        }
        self.bytes[0] = t;
        self.set_slot_count(0);
        self.set_free_off(PAGE_HEADER_LEN);
        self.set_next_page(next);
    }
}

/// The bytes between the record area and a `count`-slot directory: what
/// one more record's bytes and slot entry, or a replacement's grown bytes,
/// must fit in. The one free-space rule of both page views.
fn free_tail(bytes: &[u8], count: usize) -> usize {
    let free_off = u16::from_le_bytes([bytes[4], bytes[5]]) as usize;
    (PAGE_SIZE - count * SLOT_LEN).saturating_sub(free_off)
}

/// Read-only view over a slotted page (for scans that must not copy).
///
/// Page bytes come from disk, so nothing in them is trusted: `open` checks
/// the slot count once, every directory entry is checked before the record
/// it names is sliced, and a page that fails either is a typed error, never
/// an out-of-bounds panic in a scan worker.
pub struct SlottedRead<'a> {
    bytes: &'a [u8],
    page: PageId,
    /// Slot count, checked by `open` to leave the page header intact.
    count: usize,
}

impl<'a> SlottedRead<'a> {
    /// Views existing page bytes, checking the type tag and that the slot
    /// directory the header declares fits behind the header.
    pub fn open(bytes: &'a [u8], expect_type: u8, page: PageId) -> Result<SlottedRead<'a>> {
        if bytes[0] != expect_type {
            return Err(StorageError::PageTypeMismatch {
                page,
                expected: expect_type,
                got: bytes[0],
            });
        }
        let count = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
        if count > (PAGE_SIZE - PAGE_HEADER_LEN) / SLOT_LEN {
            return Err(StorageError::RowCorrupt(format!(
                "page {page}: a directory of {count} slots overlaps the page header"
            )));
        }
        Ok(SlottedRead { bytes, page, count })
    }

    /// Number of records.
    pub fn slot_count(&self) -> usize {
        self.count
    }

    /// The whole page, for readers that address it by the byte ranges
    /// [`record_ranges`](Self::record_ranges) hands out.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Sibling link; `None` when this is the last page in the chain.
    pub fn next_page(&self) -> Option<PageId> {
        let v = sqlarray_core::le::u64_at(self.bytes, 6);
        (v != u64::MAX).then_some(v)
    }

    /// Free bytes between the records and the slot directory: a new
    /// record needs its bytes plus [`SLOT_LEN`] of them, a grown
    /// replacement only its bytes.
    pub fn free_tail(&self) -> usize {
        free_tail(self.bytes, self.count)
    }

    /// The byte range directory entry `entry` (of slot `i`) names, if it
    /// lies inside the page below the slot directory.
    #[inline]
    fn checked_range(&self, i: usize, entry: &[u8]) -> Result<Range<usize>> {
        let off = u16::from_le_bytes([entry[0], entry[1]]) as usize;
        let end = off + u16::from_le_bytes([entry[2], entry[3]]) as usize;
        if end > PAGE_SIZE - self.count * SLOT_LEN {
            return Err(self.past_record_area(i, off..end));
        }
        Ok(off..end)
    }

    #[cold]
    fn past_record_area(&self, i: usize, named: Range<usize>) -> StorageError {
        StorageError::RowCorrupt(format!(
            "page {}: slot {i} names bytes {named:?}, past the record area",
            self.page
        ))
    }

    /// Returns record `i`.
    pub fn record(&self, i: usize) -> Result<&'a [u8]> {
        Ok(&self.bytes[self.record_range(i)?])
    }

    /// The byte range of record `i` within [`bytes`](Self::bytes).
    pub(crate) fn record_range(&self, i: usize) -> Result<Range<usize>> {
        if i >= self.count {
            return Err(StorageError::BadSlot {
                slot: i,
                count: self.count,
            });
        }
        let base = PAGE_SIZE - (i + 1) * SLOT_LEN;
        self.checked_range(i, &self.bytes[base..base + SLOT_LEN])
    }

    /// The byte ranges of records `slots` within [`bytes`](Self::bytes), in
    /// slot order: one walk over that stretch of the directory, each entry
    /// read and checked once, as [`record`](Self::record) checks it.
    pub fn record_ranges(
        &self,
        slots: Range<usize>,
    ) -> Result<impl Iterator<Item = Result<Range<usize>>> + '_> {
        if slots.end > self.count {
            return Err(StorageError::BadSlot {
                slot: slots.end - 1,
                count: self.count,
            });
        }
        // Slot `i` sits `(i + 1) * SLOT_LEN` bytes before the page end, so
        // ascending slots are descending addresses.
        let first = slots.start.min(slots.end);
        let dir = &self.bytes[PAGE_SIZE - slots.end * SLOT_LEN..PAGE_SIZE - first * SLOT_LEN];
        Ok(dir
            .rchunks_exact(SLOT_LEN)
            .zip(slots)
            .map(|(entry, i)| self.checked_range(i, entry)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        vec![0u8; PAGE_SIZE]
    }

    fn records(p: &SlottedPage<'_>) -> Vec<Vec<u8>> {
        (0..p.slot_count())
            .map(|i| p.record(i).unwrap().to_vec())
            .collect()
    }

    #[test]
    fn read_view_matches_writer() {
        let mut bytes = fresh();
        {
            let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
            p.push_record(b"alpha").unwrap();
            p.push_record(b"beta").unwrap();
            p.set_next_page(Some(9));
        }
        let v = SlottedRead::open(&bytes, page_type::BTREE_LEAF, 0).unwrap();
        assert_eq!(v.slot_count(), 2);
        assert_eq!(v.record(0).unwrap(), b"alpha");
        assert_eq!(v.record(1).unwrap(), b"beta");
        assert_eq!(v.next_page(), Some(9));
        assert!(v.record(2).is_err());
        assert!(SlottedRead::open(&bytes, page_type::BLOB_ROOT, 0).is_err());
    }

    #[test]
    fn a_damaged_directory_is_a_typed_error() {
        let mut bytes = fresh();
        {
            let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
            p.push_record(b"alpha").unwrap();
            p.push_record(b"beta").unwrap();
        }
        let ranges = |bytes: &[u8], slots| {
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, 7)?;
            let found = v.record_ranges(slots)?.collect::<Result<Vec<_>>>();
            found
        };
        assert_eq!(ranges(&bytes, 0..2).unwrap(), [16..21, 21..25]);
        assert_eq!(ranges(&bytes, 1..1).unwrap(), []);
        assert!(matches!(
            ranges(&bytes, 1..3),
            Err(StorageError::BadSlot { slot: 2, count: 2 })
        ));
        // Slot 1's length now carries it into the slot directory (which
        // starts at 8184): `record` used to slice that, or panic past the
        // page end.
        let dir_start = PAGE_SIZE - 2 * SLOT_LEN;
        let entry = PAGE_SIZE - 2 * SLOT_LEN;
        for len in [dir_start - 21 + 1, u16::MAX as usize] {
            bytes[entry + 2..entry + 4].copy_from_slice(&(len as u16).to_le_bytes());
            let v = SlottedRead::open(&bytes, page_type::BTREE_LEAF, 7).unwrap();
            assert_eq!(v.record(0).unwrap(), b"alpha");
            let err = v.record(1).unwrap_err();
            assert!(matches!(err, StorageError::RowCorrupt(_)), "{err}");
            assert_eq!(
                err.to_string(),
                ranges(&bytes, 0..2).unwrap_err().to_string()
            );
        }
        // The last length that fits still reads.
        bytes[entry + 2..entry + 4].copy_from_slice(&((dir_start - 21) as u16).to_le_bytes());
        assert_eq!(ranges(&bytes, 1..2).unwrap().pop(), Some(21..dir_start));
        // A slot count whose directory would run over the header.
        for count in [2045u16, u16::MAX] {
            bytes[2..4].copy_from_slice(&count.to_le_bytes());
            let err = SlottedRead::open(&bytes, page_type::BTREE_LEAF, 7)
                .err()
                .expect("overlapping directory");
            assert!(matches!(err, StorageError::RowCorrupt(_)), "{err}");
        }
        bytes[2..4].copy_from_slice(&2044u16.to_le_bytes());
        assert!(SlottedRead::open(&bytes, page_type::BTREE_LEAF, 7).is_ok());
    }

    #[test]
    fn init_and_open() {
        let mut bytes = fresh();
        SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
        let p = SlottedPage::open(&mut bytes, page_type::BTREE_LEAF, 0).unwrap();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.next_page(), None);
        assert!(SlottedPage::open(&mut bytes, page_type::BLOB_ROOT, 0).is_err());
    }

    #[test]
    fn push_and_read_records() {
        let mut bytes = fresh();
        let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
        let a = p.push_record(b"hello").unwrap();
        let b = p.push_record(b"world!").unwrap();
        assert_eq!(p.record(a).unwrap(), b"hello");
        assert_eq!(p.record(b).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
        assert!(p.record(2).is_err());
    }

    #[test]
    fn insert_in_middle_keeps_order() {
        let mut bytes = fresh();
        let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
        p.push_record(b"a").unwrap();
        p.push_record(b"c").unwrap();
        p.insert_record(1, b"b").unwrap();
        let recs = records(&p);
        assert_eq!(recs, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn remove_slot_shifts() {
        let mut bytes = fresh();
        let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
        for r in [b"x" as &[u8], b"y", b"z"] {
            p.push_record(r).unwrap();
        }
        p.remove_slot(1).unwrap();
        assert_eq!(records(&p), vec![b"x".to_vec(), b"z".to_vec()]);
        assert!(p.remove_slot(5).is_err());
    }

    /// Reference directory shifts for `insert_record` and `remove_slot`:
    /// an entry at a time.
    fn insert_record_by_entry(p: &mut SlottedPage<'_>, i: usize, rec: &[u8]) {
        let count = p.slot_count();
        let off = p.free_off();
        p.bytes[off..off + rec.len()].copy_from_slice(rec);
        for j in (i..count).rev() {
            let (o, l) = p.slot(j);
            p.write_slot(j + 1, o, l);
        }
        p.write_slot(i, off, rec.len());
        p.set_slot_count(count + 1);
        p.set_free_off(off + rec.len());
    }

    fn remove_slot_by_entry(p: &mut SlottedPage<'_>, i: usize) {
        let count = p.slot_count();
        for j in i + 1..count {
            let (o, l) = p.slot(j);
            p.write_slot(j - 1, o, l);
        }
        p.set_slot_count(count - 1);
    }

    /// A page of `count` records of 1 to 5 bytes, whose directory already
    /// carries stale entries past its end and records out of slot order.
    fn page_of(count: usize) -> Vec<u8> {
        let mut bytes = fresh();
        let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
        for k in 0..count + 3 {
            p.insert_record(k / 2, &vec![k as u8; 1 + k % 5]).unwrap();
        }
        for _ in 0..3 {
            p.remove_slot(p.slot_count() / 3).unwrap();
        }
        assert_eq!(p.slot_count(), count);
        bytes
    }

    /// Each directory shift is one move, and leaves every page byte where
    /// the entry-at-a-time loop left it — the stale entry a removal leaves
    /// at the old last position included — at every slot position.
    #[test]
    fn one_move_shifts_are_the_entry_at_a_time_loops() {
        for count in [0usize, 1, 2, 3, 17, 100, 1000] {
            let base = page_of(count);
            for i in 0..=count {
                let (mut want, mut got) = (base.clone(), base.clone());
                let rec = [0xE7, i as u8, 3];
                insert_record_by_entry(&mut SlottedPage { bytes: &mut want }, i, &rec);
                SlottedPage { bytes: &mut got }
                    .insert_record(i, &rec)
                    .unwrap();
                assert!(got == want, "insert at {i} of {count}");
                if i == count {
                    continue;
                }
                let (mut want, mut got) = (base.clone(), base.clone());
                remove_slot_by_entry(&mut SlottedPage { bytes: &mut want }, i);
                SlottedPage { bytes: &mut got }.remove_slot(i).unwrap();
                assert!(got == want, "remove {i} of {count}");
            }
        }
    }

    #[test]
    fn fills_up_and_rejects_overflow() {
        let mut bytes = fresh();
        let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
        let rec = [0u8; 100];
        let mut n = 0;
        while p.free_space() >= rec.len() {
            p.push_record(&rec).unwrap();
            n += 1;
        }
        // 8192 - 16 = 8176 usable; each record costs 104 bytes.
        assert_eq!(n, 8176 / 104);
        assert!(matches!(
            p.push_record(&rec),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut bytes = fresh();
        let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
        let rec = vec![0xEE; SlottedPage::max_record()];
        p.push_record(&rec).unwrap();
        assert_eq!(p.record(0).unwrap().len(), SlottedPage::max_record());
        assert_eq!(p.free_space(), 0);
    }

    #[test]
    fn replace_record_in_place_and_grown() {
        let mut bytes = fresh();
        let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
        p.push_record(b"aaaa").unwrap();
        p.push_record(b"bbbb").unwrap();
        // Shrink in place: same offset, shorter len.
        p.replace_record(0, b"xy").unwrap();
        assert_eq!(p.record(0).unwrap(), b"xy");
        assert_eq!(p.record(1).unwrap(), b"bbbb");
        // Grow: repointed past the current free offset.
        p.replace_record(0, b"longer-than-before").unwrap();
        assert_eq!(p.record(0).unwrap(), b"longer-than-before");
        assert_eq!(p.record(1).unwrap(), b"bbbb");
        assert!(p.replace_record(5, b"z").is_err());
        // Growing past the free space fails typed.
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.replace_record(0, &huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn sibling_link_round_trip() {
        let mut bytes = fresh();
        let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
        p.set_next_page(Some(42));
        assert_eq!(p.next_page(), Some(42));
        p.set_next_page(None);
        assert_eq!(p.next_page(), None);
    }

    #[test]
    fn reset_keeps_type_and_link() {
        let mut bytes = fresh();
        let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_INTERNAL);
        p.push_record(b"junk").unwrap();
        p.set_next_page(Some(7));
        p.reset();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.page_type(), page_type::BTREE_INTERNAL);
        assert_eq!(p.next_page(), Some(7));
        assert_eq!(p.free_space(), PAGE_SIZE - PAGE_HEADER_LEN - SLOT_LEN);
    }

    #[test]
    fn survives_byte_round_trip() {
        let mut bytes = fresh();
        {
            let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
            p.push_record(b"persisted").unwrap();
        }
        let copy = bytes.clone();
        let mut copy2 = copy.clone();
        let p = SlottedPage::open(&mut copy2, page_type::BTREE_LEAF, 3).unwrap();
        assert_eq!(p.record(0).unwrap(), b"persisted");
    }
}
