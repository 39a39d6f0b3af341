//! Where the bytes of a write-ahead log go.
//!
//! [`wal_breakdown`] walks a [`DiskImage`]'s log frame by frame and
//! attributes every byte of it: frame headers (with the page id a write
//! frame names), alloc and free frames, commit payloads (the catalog each
//! commit carries), a torn tail, and the runs of the write frames — by the
//! kind of page written, whether it was fresh (its first write since an
//! alloc frame named it) or existing, and the form of the run: literal
//! bytes, a copy from another page, or a copy from elsewhere on the page
//! itself. It only counts: no run is applied. The parts sum to the log's
//! length.
//!
//! `cargo run --release -p sqlarray-bench --example wal_breakdown` prints
//! the breakdown of the counter golden's write-path log.

use sqlarray_storage::page::page_type;
use sqlarray_storage::wal::{
    self, WalRecord, COPY_RUN_HEADER, FRAME_OVERHEAD, OWN_COPY_RUN_HEADER, RUN_HEADER,
};
use sqlarray_storage::{DiskImage, PageStore, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The kind of page a write frame wrote: the type byte the page holds
/// once the image is recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PageKind {
    /// A B-tree leaf.
    Leaf,
    /// A B-tree internal node.
    Internal,
    /// A blob's root (LOB descriptor) page.
    BlobRoot,
    /// A blob data chunk.
    BlobChunk,
    /// A blob chunk-id continuation page.
    BlobIndex,
    /// Any other type byte, or a page the recovered image does not hold.
    Other,
}

impl PageKind {
    fn of(page: Option<&[u8]>) -> PageKind {
        match page.and_then(|p| p.first()).copied() {
            Some(page_type::BTREE_LEAF) => PageKind::Leaf,
            Some(page_type::BTREE_INTERNAL) => PageKind::Internal,
            Some(page_type::BLOB_ROOT) => PageKind::BlobRoot,
            Some(page_type::BLOB_CHUNK) => PageKind::BlobChunk,
            Some(page_type::BLOB_INDEX) => PageKind::BlobIndex,
            _ => PageKind::Other,
        }
    }
}

/// Log bytes the runs of some write frames take, by run form, each run's
/// header included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBytes {
    /// Literal runs: header and bytes.
    pub literal: u64,
    /// Copy runs from another page.
    pub copy: u64,
    /// Copy runs from the written page itself.
    pub own_copy: u64,
}

impl RunBytes {
    /// All three forms.
    pub fn total(&self) -> u64 {
        self.literal + self.copy + self.own_copy
    }
}

/// Where a log's bytes go; see the module doc.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalBreakdown {
    /// Frames in the log's clean prefix.
    pub frames: u64,
    /// [`FRAME_OVERHEAD`] per frame, plus the page id of each write frame.
    pub frame_headers: u64,
    /// The page ids alloc and free frames carry.
    pub alloc_free: u64,
    /// The catalogs commit frames carry.
    pub commits: u64,
    /// Write-frame runs by the kind of page written and whether it was
    /// fresh (`true`) or existing.
    pub writes: BTreeMap<(PageKind, bool), RunBytes>,
    /// Bytes past the log's clean prefix.
    pub torn: u64,
}

impl WalBreakdown {
    /// Every byte attributed: the log's length.
    pub fn total(&self) -> u64 {
        let runs: u64 = self.writes.values().map(RunBytes::total).sum();
        self.frame_headers + self.alloc_free + self.commits + runs + self.torn
    }
}

impl fmt::Display for WalBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>10} {:>10} {:>10} {:>10}",
            "", "literal", "copy", "own copy", "total"
        )?;
        for (&(kind, fresh), runs) in &self.writes {
            let page = format!("{kind:?} ({})", if fresh { "fresh" } else { "existing" });
            writeln!(
                f,
                "{page:<24} {:>10} {:>10} {:>10} {:>10}",
                runs.literal,
                runs.copy,
                runs.own_copy,
                runs.total()
            )?;
        }
        writeln!(
            f,
            "frame headers ({} frames) {}",
            self.frames, self.frame_headers
        )?;
        writeln!(f, "alloc/free frames        {}", self.alloc_free)?;
        writeln!(f, "commit payloads          {}", self.commits)?;
        writeln!(f, "torn tail                {}", self.torn)?;
        write!(f, "log                      {}", self.total())
    }
}

/// Attributes the bytes of `image`'s log (see the module doc). Every frame
/// of the clean prefix is counted, committed or not. A page's kind is the
/// one it has in the image recovered by [`PageStore::open`], so a page
/// freed and reused as another kind counts as its last; an image that
/// does not recover is refused with the recovery's error.
pub fn wal_breakdown(image: &DiskImage) -> Result<WalBreakdown> {
    let recovered = PageStore::open(image)?.store;
    let scanned = wal::scan(&image.wal);
    // Pages an alloc frame named that no write frame has written since.
    let mut fresh = BTreeSet::new();
    let mut out = WalBreakdown {
        torn: (image.wal.len() - scanned.clean_len) as u64,
        ..WalBreakdown::default()
    };
    let records = &scanned.records;
    let mut i = 0;
    while i < records.len() {
        let lsn = records[i].0;
        let frame_len = records[i..].iter().take_while(|(l, _)| *l == lsn).count();
        let frame = &records[i..i + frame_len];
        i += frame_len;
        out.frames += 1;
        out.frame_headers += FRAME_OVERHEAD as u64;
        match &frame[0].1 {
            WalRecord::Alloc { page } => {
                fresh.insert(*page);
                out.alloc_free += 8;
            }
            WalRecord::Free { .. } => out.alloc_free += 8,
            WalRecord::Commit { catalog } => out.commits += catalog.len() as u64,
            WalRecord::Write { page, .. } | WalRecord::Copy { page, .. } => {
                out.frame_headers += 8;
                let kind = PageKind::of(recovered.raw_page(*page));
                let sum = out.writes.entry((kind, fresh.remove(page))).or_default();
                for (_, rec) in frame {
                    match *rec {
                        WalRecord::Write { bytes, .. } => {
                            sum.literal += (RUN_HEADER + bytes.len()) as u64;
                        }
                        WalRecord::Copy { src, .. } if src == *page => {
                            sum.own_copy += OWN_COPY_RUN_HEADER as u64;
                        }
                        WalRecord::Copy { .. } => sum.copy += COPY_RUN_HEADER as u64,
                        _ => unreachable!("a write frame holds runs of one page"),
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlarray_storage::{blob, ColType, RowValue, Schema, Table};

    /// A small store that writes every page kind, fresh and existing, with
    /// every run form: a bulk load, inserts that split leaves, deletes, a
    /// blob written and patched, and a torn tail. Its parts sum to the
    /// log, and each form shows where it should.
    #[test]
    fn the_parts_sum_to_the_log() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let row = |k: i64, len: usize| vec![RowValue::I64(k), RowValue::Bytes(vec![k as u8; len])];
        let rows: Vec<_> = (0..40).map(|k| (4 * k, row(4 * k, 300))).collect();
        t.bulk_load(&mut store, &rows, 1).unwrap();
        store.commit(b"loaded");
        store.checkpoint();
        for k in 0..40 {
            t.insert(&mut store, 4 * k + 1, &row(4 * k + 1, 300))
                .unwrap();
        }
        let id = blob::write_blob(&mut store, &vec![5u8; 20_000]).unwrap();
        blob::update_blob_range(&mut store, id, 100, &[9u8; 500]).unwrap();
        store.commit(b"grown");
        let mut image = store.crash_image();
        image.wal.extend_from_slice(&[0xA7, 3, 1]);
        let parts = wal_breakdown(&image).unwrap();
        assert_eq!(parts.total(), image.wal.len() as u64, "{parts}");
        assert_eq!(parts.torn, 3);
        assert_eq!(parts.commits, b"grown".len() as u64);
        let runs = |kind, fresh| {
            parts
                .writes
                .get(&(kind, fresh))
                .copied()
                .unwrap_or_default()
        };
        assert!(runs(PageKind::Leaf, false).own_copy > 0, "{parts}");
        assert!(runs(PageKind::Leaf, true).copy > 0, "{parts}");
        assert!(runs(PageKind::BlobChunk, true).literal > 20_000, "{parts}");
        assert!(runs(PageKind::BlobChunk, false).literal >= 500, "{parts}");
        assert!(runs(PageKind::BlobRoot, true).literal > 0, "{parts}");
    }

    /// The counter golden's write-path log, which the example prints,
    /// recovers and is attributed whole.
    #[test]
    fn the_write_path_log_is_attributed_whole() {
        let image = crate::counters::write_path_image();
        let parts = wal_breakdown(&image).unwrap();
        assert_eq!(parts.total(), image.wal.len() as u64, "{parts}");
        assert_eq!(parts.torn, 0);
    }
}
