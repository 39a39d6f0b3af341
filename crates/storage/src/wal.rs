//! Write-ahead log: checksummed, LSN-stamped physiological records.
//!
//! Every mutation of a [`crate::store::PageStore`] — page allocation (fresh
//! or reused from the free list), page free, and page write — appends one
//! frame here *before* the in-memory "disk" state is considered durable.
//! Page writes are **physiological** — physical to a page, logical within
//! it: a B-tree page write logs the slotted-page edits it made (a record
//! inserted, removed or replaced at a slot, the link set, the page rebuilt
//! from a list of records), and replay performs them again through the
//! live write's own function, `page::apply_edit`. Any other page
//! write — a blob page, a bulk-built leaf, [`PageStore::write`] — and a
//! tree write whose edits would take more bytes than they changed logs the
//! byte runs that changed instead, never the whole 8 KiB image. Measured
//! on a half-full leaf of 35 rows of ~110 bytes (frame bytes,
//! [`FRAME_OVERHEAD`] included): an in-place `I32` column update logs
//! 31 B, the byte it changed; an insert 134 B wherever it lands (147 B at
//! the end of the key range and 152 B elsewhere when the slot directory it
//! shifted was found by comparing bytes); a delete 31 B (37 B off the
//! end); a split of a full 76-row leaf in the middle 278 B over 4 frames
//! (456 B), its moved rows named by their slots, an append-side split
//! 286 B over 5 (301 B); and a patch of one 8 176-byte blob chunk 8 206 B
//! in one frame — what it rewrote.
//!
//! A transaction becomes durable with a [`WalRecord::Commit`] marker, which
//! carries the serialized catalog (table name → schema → B-tree roots) as
//! its payload. Recovery ([`crate::store::PageStore::open`]) replays the log
//! from the last checkpoint image **up to the last complete commit record**
//! and discards everything after it — including a torn final record, which
//! the frame checksum detects.
//!
//! ## Frame format
//!
//! ```text
//! magic  u8   = 0xA7
//! kind   u8   (1 = alloc, 2 = free, 3 = write, 4 = commit, 5 = edit)
//! lsn    u64  LE, the previous frame's plus one
//! len    u32  LE, payload byte count
//! payload     (kind-specific, see below)
//! check  u32  LE, checksum32 over magic..payload
//! ```
//!
//! Payloads: `alloc`/`free` are `page u64`; `commit` is the opaque catalog
//! image; `write` is `page u64` followed by one or more literal runs
//! `off u16 | len u16 | bytes[len]` that fill the payload exactly,
//! ascending and non-overlapping, none empty, none past the page end
//! (`off` is relative to the page start); `edit` is `page u64` followed by
//! one or more edits that fill the payload exactly, performed in order:
//!
//! ```text
//! insert   1 | slot u16 | len u16 | record[len]
//! remove   2 | slot u16 | count u16           (slot `slot`, count times)
//! replace  3 | slot u16 | len u16 | record[len]
//! link     4 | next u64                       (u64::MAX: none)
//! rebuild  5 | pieces u16 | kind u8 | next u64 | piece[pieces]
//!   piece  1 | first u16 | count u16          (slots of the written page)
//!          2 | first u16 | count u16 | src u64 (slots of another page)
//!          3 | len u16 | record[len]
//! ```
//!
//! A slot, a slot range or a record never reaches past what a page holds,
//! a record or a slot range is never empty, and a rebuild is of a B-tree
//! page kind. A rebuild's slot pieces are the records of those slots of
//! their page: another page as it stood before the frame — a frame writes
//! only its own page — and the written page as the frame's earlier edits
//! left it. [`scan`] hands a write frame back as consecutive
//! [`WalRecord::Write`] records, one per run, and an edit frame as
//! consecutive [`WalRecord::Edit`] records, one per edit, under the
//! frame's LSN. Replay refuses, as `WalCorrupt`, an edit the live write
//! could not have made: a slot past the page's directory, a record that
//! does not fit, a page that is no B-tree page, or a rebuild from a page
//! that is free, past the file or of another kind.
//!
//! One page write (`PageStore::install`) is one frame. `append_write`
//! finds the changed bytes by comparing the before- and after-image a word
//! at a time: a changed stretch is a maximal stretch of changed 8-byte
//! words, cut back at both ends to its first and last changed byte, so two
//! stretches are always more than a [`RUN_HEADER`] of unchanged bytes
//! apart and logging them separately always pays. A one-run payload is 12
//! bytes plus the run, each further run [`RUN_HEADER`] more — never more
//! than the one span from the first to the last change would take. A tree
//! write hands its edits along, and when their frame is the shorter one it
//! is logged instead: a shifted slot directory, a compacted page and a
//! split's moved records cost a few bytes each, while an update in place,
//! whose edit would carry the whole record, keeps the bytes it changed. On
//! the repo benchmark's `dml_mix` workload (seed 1; a count, the same on
//! any machine) the log takes 1.38 bytes per user byte, where byte
//! comparison that named moved bytes as copies of other bytes took 1.54
//! and the changed bytes alone 4.74.
//!
//! A frame that fails any of this — short, bad magic or kind, bad
//! checksum, a malformed run table or edit list, or an LSN that is not its
//! predecessor's plus one (the first frame of a buffer may carry any LSN:
//! a checkpoint truncates the buffer, not the counter) — ends the scan as
//! a tear at its offset.
//!
//! Because every store mutation happens on `&mut PageStore` (parallel scans
//! only read), the byte stream of the log is a pure function of the logical
//! operation sequence — identical at any DOP. That is what lets the
//! crash-matrix tests enumerate injection points once and assert the count
//! is the same at DOP 1/2/4/8.
//!
//! ## Checksums
//!
//! One sum serves the log and the page file. `block_sum` cuts its input
//! into 64-byte blocks (the last one zero-padded) and adds up, wrapping at
//! 64 bits, one term per block: a `mix` chain over the block's eight
//! little-endian words, seeded by the block's index. Every step of the
//! chain is a bijection of the word it absorbs, so a change confined to
//! one word always changes the sum. A page's stored checksum is its block
//! sum over 128 blocks; a frame's `checksum32` is the block sum of
//! `magic..payload` absorbed into a state seeded with the byte length and
//! folded to 32 bits.
//!
//! Being a sum is what makes a page write cheap to restamp: `append_write`
//! already finds the blocks that hold a changed word, and in the same pass
//! adds each one's new term and subtracts its old one — an old block of
//! zeros (a fresh page's) from a table worked out at compile time. So a
//! one-row insert pays for the few blocks it touched rather than for 8 KiB,
//! and a page whose bytes went bad in memory, behind the log's back, keeps
//! its mismatch through later writes instead of having it hashed into a
//! fresh stamp. A full `block_sum` runs only where a page comes from
//! "disk": on a pool miss, at [`open`], and once per page a replay wrote.
//! Where several such pages are known at once — [`open`]'s verify pass, a
//! scan worker told which pages it reads next — `block_sums` sums a group
//! of them together, lane for lane the same values, so that their cache
//! misses overlap.
//!
//! [`open`]: crate::store::PageStore::open
//! [`PageStore::write`]: crate::store::PageStore::write

use crate::errors::{Result, StorageError};
use crate::page::{tree_kind, Piece, SlotEdit, SlottedPage, PAGE_HEADER_LEN, PAGE_SIZE, SLOT_LEN};
use sqlarray_core::le;
use std::borrow::Cow;

/// First byte of every WAL frame.
pub(crate) const WAL_MAGIC: u8 = 0xA7;

/// Fixed framing overhead per record: magic + kind + lsn + len + check.
pub const FRAME_OVERHEAD: usize = FRAME_HEADER + 4;

/// Bytes before a frame's payload: magic + kind + lsn + len.
const FRAME_HEADER: usize = 1 + 1 + 8 + 4;

/// Bytes a write payload spends per run besides the run itself:
/// `off u16 | len u16`.
pub const RUN_HEADER: usize = 2 + 2;

// Run offsets and lengths are logged as `u16`; a page is whole words; and
// the word of unchanged bytes that parts two runs is longer than the
// header the second run costs, so no two runs are worth logging as one.
const _: () = assert!(PAGE_SIZE <= u16::MAX as usize && PAGE_SIZE % 8 == 0 && RUN_HEADER < 8);

const KIND_ALLOC: u8 = 1;
const KIND_FREE: u8 = 2;
const KIND_WRITE: u8 = 3;
const KIND_COMMIT: u8 = 4;
const KIND_EDIT: u8 = 5;

/// Tags of the edits of an edit frame.
const EDIT_INSERT: u8 = 1;
const EDIT_REMOVE: u8 = 2;
const EDIT_REPLACE: u8 = 3;
const EDIT_LINK: u8 = 4;
const EDIT_REBUILD: u8 = 5;

/// Tags of the pieces of a rebuild: slots of the written page, slots of
/// another page, a record's bytes.
const PIECE_OWN: u8 = 1;
const PIECE_OTHER: u8 = 2;
const PIECE_BYTES: u8 = 3;

/// Slots a page's directory can hold: no slot, slot count or slot range
/// of an edit frame reaches past it.
const MAX_SLOTS: usize = (PAGE_SIZE - PAGE_HEADER_LEN) / SLOT_LEN;

/// Bytes in one checksum block: eight little-endian words.
const BLOCK_BYTES: usize = 64;

/// Checksum blocks in a page.
const PAGE_BLOCKS: usize = PAGE_SIZE / BLOCK_BYTES;

const _: () = assert!(PAGE_SIZE % BLOCK_BYTES == 0);

/// Seed of every block's chain, before the block index is absorbed.
const SUM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One checksum step: absorbs `word` into `h`. A bijection of either
/// argument with the other fixed (xor, odd multiply and xor-shift all
/// are), so a changed word always changes the 64-bit state — and, every
/// later step being a bijection of the state, the chain's result.
#[inline(always)]
const fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(0x2545_F491_4F6C_DD1D);
    h ^ (h >> 29)
}

/// The state block `index`'s chain starts from.
#[inline(always)]
const fn block_seed(index: usize) -> u64 {
    mix(SUM_SEED, index as u64)
}

/// Block `index`'s term of the block sum: the `mix` chain over its eight
/// little-endian words, seeded by the index. (The sums below run four
/// such chains side by side; this one-block form defines the table.)
const fn chain(index: usize, words: [u64; 8]) -> u64 {
    let mut h = block_seed(index);
    let mut w = 0;
    while w < 8 {
        h = mix(h, words[w]);
        w += 1;
    }
    h
}

/// The term of an all-zero block at each page position, worked out at
/// compile time: summing blocks of zeros — the free gap of a page, or the
/// whole of a fresh one — is a table lookup, not a chain.
const ZERO_TERMS: [u64; PAGE_BLOCKS] = {
    let mut terms = [0; PAGE_BLOCKS];
    let mut b = 0;
    while b < PAGE_BLOCKS {
        terms[b] = chain(b, [0; 8]);
        b += 1;
    }
    terms
};

/// The block sum of an all-zero page — every fresh allocation's.
pub(crate) const ZERO_PAGE_SUM: u64 = {
    let mut sum = 0u64;
    let mut b = 0;
    while b < PAGE_BLOCKS {
        sum = sum.wrapping_add(ZERO_TERMS[b]);
        b += 1;
    }
    sum
};

/// Bytes in the four blocks whose chains run side by side.
const QUAD_BYTES: usize = 4 * BLOCK_BYTES;

/// The summed terms of the first `n` blocks of `quad` (`QUAD_BYTES`
/// long), block `at` and the three after it. The four chains run side by
/// side, so the multiplies pipeline instead of waiting on each other; four
/// blocks of zeros inside a page take their terms from [`ZERO_TERMS`]
/// instead.
#[inline(always)]
fn quad_terms(quad: &[u8], at: usize, n: usize) -> u64 {
    let word = |k: usize| le::u64_at(quad, k * 8);
    // Stops at the first non-zero word: one compare for a block of data.
    let zero = || (0..QUAD_BYTES / 8).all(|k| word(k) == 0);
    let terms: [u64; 4] = match ZERO_TERMS.get(at..at + 4).filter(|_| zero()) {
        Some(zeros) => std::array::from_fn(|l| zeros[l]),
        None => {
            let mut chains = std::array::from_fn(|l| block_seed(at + l));
            for w in 0..8 {
                for (l, h) in chains.iter_mut().enumerate() {
                    *h = mix(*h, word(l * 8 + w));
                }
            }
            chains
        }
    };
    terms[..n].iter().fold(0u64, |s, &t| s.wrapping_add(t))
}

/// The summed terms of the blocks of `bytes` (the last one zero-padded),
/// the first of which is block `first`: four blocks at a time, the last
/// few padded out to four whose extra terms are left out.
fn terms(bytes: &[u8], first: usize) -> u64 {
    let mut quads = bytes.chunks_exact(QUAD_BYTES);
    let mut sum = 0u64;
    let mut at = first;
    for quad in quads.by_ref() {
        sum = sum.wrapping_add(quad_terms(quad, at, 4));
        at += 4;
    }
    let rest = quads.remainder();
    if rest.is_empty() {
        return sum;
    }
    let mut last = [0u8; QUAD_BYTES];
    last[..rest.len()].copy_from_slice(rest);
    sum.wrapping_add(quad_terms(&last, at, rest.len().div_ceil(BLOCK_BYTES)))
}

/// The block sum of `bytes`: the wrapping sum, over its 64-byte blocks
/// (the last one zero-padded), of each block's term — its `mix` chain,
/// seeded by its index. The store's page checksum, and under
/// [`checksum32`] the log's frame check.
///
/// Because the sum is a sum, a write that changed some blocks moves it by
/// their terms' differences alone ([`append_write`] does exactly that);
/// because each term is a chain of bijections, a change confined to one
/// 8-byte word always changes it.
pub(crate) fn block_sum(bytes: &[u8]) -> u64 {
    terms(bytes, 0)
}

/// How many cold pages [`block_sums`] checksums together: recovery's
/// verify pass and a scan worker's cold reads sum this many at a time.
pub(crate) const SUM_GROUP: usize = 4;

/// The [`block_sum`] of `N` pages at once: lane `k` is
/// `block_sum(pages[k])`, bit for bit. Each block runs its `N` chains side
/// by side, one per page, so the pages' cache misses overlap instead of
/// waiting on each other — one cold page at a time, the chains stall on
/// memory; `N` at a time, they keep `N` misses in flight. Every lane is one
/// page long.
pub(crate) fn block_sums<const N: usize>(pages: [&[u8]; N]) -> [u64; N] {
    assert!(
        pages.iter().all(|p| p.len() == PAGE_SIZE),
        "every lane is one page"
    );
    let pages = pages.map(|p| &p[..PAGE_SIZE]);
    let mut sums = [0u64; N];
    for b in 0..PAGE_BLOCKS {
        let mut chains = [block_seed(b); N];
        for w in 0..BLOCK {
            for (h, page) in chains.iter_mut().zip(pages) {
                *h = mix(*h, le::u64_at(page, b * BLOCK_BYTES + w * 8));
            }
        }
        for (sum, h) in sums.iter_mut().zip(chains) {
            *sum = sum.wrapping_add(h);
        }
    }
    sums
}

/// The 4-byte check of a WAL frame: the `block_sum` of its bytes,
/// absorbed into a state seeded with their length and folded to 32 bits.
pub(crate) fn checksum32(bytes: &[u8]) -> u32 {
    let h = mix(mix(SUM_SEED, bytes.len() as u64), block_sum(bytes));
    (h ^ (h >> 32)) as u32
}

/// One decoded write-ahead log record (payload borrowed from the log).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord<'a> {
    /// A page entered the file: appended at the end (`page == page_count`)
    /// or reclaimed from the free list (`page < page_count`).
    Alloc {
        /// The allocated page id.
        page: u64,
    },
    /// A page was returned to the free list.
    Free {
        /// The freed page id.
        page: u64,
    },
    /// One changed byte run of a page. A write frame holds every run one
    /// page write changed; [`scan`] yields them in ascending order under
    /// the frame's LSN.
    Write {
        /// The written page id.
        page: u64,
        /// Byte offset of the run within the page.
        off: u16,
        /// The new bytes of the run.
        bytes: &'a [u8],
    },
    /// One edit of a B-tree page write. An edit frame holds every edit one
    /// page write made; [`scan`] yields them in the order they were made,
    /// under the frame's LSN.
    Edit {
        /// The written page id.
        page: u64,
        /// The edit.
        edit: SlotEdit<'a>,
    },
    /// Transaction boundary; payload is the serialized catalog at commit.
    Commit {
        /// Opaque catalog image (decoded by the engine, not the store).
        catalog: &'a [u8],
    },
}

impl WalRecord<'_> {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Alloc { .. } => KIND_ALLOC,
            WalRecord::Free { .. } => KIND_FREE,
            WalRecord::Write { .. } => KIND_WRITE,
            WalRecord::Commit { .. } => KIND_COMMIT,
            WalRecord::Edit { .. } => KIND_EDIT,
        }
    }
}

/// Starts a frame at the end of `log` (its length is filled in by
/// [`seal_frame`]) and returns where it starts.
fn open_frame(log: &mut Vec<u8>, kind: u8, lsn: u64) -> usize {
    let start = log.len();
    log.push(WAL_MAGIC);
    log.push(kind);
    le::push_u64(log, lsn);
    le::push_u32(log, 0);
    start
}

/// Closes the frame opened at `start`: everything appended since is its
/// payload. Returns the frame's byte length.
fn seal_frame(log: &mut Vec<u8>, start: usize) -> usize {
    let payload_len = log.len() - start - FRAME_HEADER;
    le::put_u32(log, start + FRAME_HEADER - 4, payload_len as u32);
    let check = checksum32(&log[start..]);
    le::push_u32(log, check);
    log.len() - start
}

/// Appends one run of a write payload.
fn push_run(log: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    assert!(at + bytes.len() <= PAGE_SIZE, "a run lies inside its page");
    le::push_u16(log, at as u16);
    le::push_u16(log, bytes.len() as u16);
    log.extend_from_slice(bytes);
}

/// Appends one tagged item of an edit frame: `tag`, each of `fields` (a
/// slot, a count or a length) as a `u16`, then `bytes`.
fn push_tagged(log: &mut Vec<u8>, tag: u8, fields: &[usize], bytes: &[u8]) {
    log.push(tag);
    for &n in fields {
        assert!(
            n <= PAGE_SIZE,
            "an edit names no slot or length past its page"
        );
        le::push_u16(log, n as u16);
    }
    log.extend_from_slice(bytes);
}

/// Appends one edit of an edit frame of `page`.
fn push_edit(log: &mut Vec<u8>, page: u64, edit: &SlotEdit<'_>) {
    let link = |next: &Option<u64>| next.unwrap_or(u64::MAX).to_le_bytes();
    match edit {
        SlotEdit::Insert(slot, rec) => push_tagged(log, EDIT_INSERT, &[*slot, rec.len()], rec),
        SlotEdit::Replace(slot, rec) => push_tagged(log, EDIT_REPLACE, &[*slot, rec.len()], rec),
        SlotEdit::Remove(slot, count) => push_tagged(log, EDIT_REMOVE, &[*slot, *count], &[]),
        SlotEdit::Link(next) => push_tagged(log, EDIT_LINK, &[], &link(next)),
        SlotEdit::Rebuild(kind, next, records) => {
            push_tagged(log, EDIT_REBUILD, &[records.len()], &[*kind]);
            log.extend_from_slice(&link(next));
            for piece in records {
                match piece {
                    Piece::Slots(src, s) if *src == page => {
                        push_tagged(log, PIECE_OWN, &[s.start, s.len()], &[])
                    }
                    Piece::Slots(src, s) => {
                        push_tagged(log, PIECE_OTHER, &[s.start, s.len()], &src.to_le_bytes())
                    }
                    Piece::Bytes(rec) => push_tagged(log, PIECE_BYTES, &[rec.len()], rec),
                }
            }
        }
    }
}

/// Appends the edit frame of `edits`, the edits of one write of `page`,
/// returning its byte length.
fn append_edits(log: &mut Vec<u8>, lsn: u64, page: u64, edits: &[SlotEdit<'_>]) -> usize {
    let start = open_frame(log, KIND_EDIT, lsn);
    le::push_u64(log, page);
    edits.iter().for_each(|edit| push_edit(log, page, edit));
    seal_frame(log, start)
}

/// Appends one framed record to `log`, returning the frame's byte length.
/// A [`WalRecord::Write`] becomes a one-run write frame, a
/// [`WalRecord::Edit`] a one-edit edit frame.
pub fn append_record(log: &mut Vec<u8>, lsn: u64, rec: &WalRecord<'_>) -> usize {
    let start = open_frame(log, rec.kind(), lsn);
    match rec {
        WalRecord::Alloc { page } | WalRecord::Free { page } => le::push_u64(log, *page),
        WalRecord::Write { page, off, bytes } => {
            le::push_u64(log, *page);
            push_run(log, usize::from(*off), bytes);
        }
        WalRecord::Commit { catalog } => log.extend_from_slice(catalog),
        WalRecord::Edit { page, edit } => {
            le::push_u64(log, *page);
            push_edit(log, *page, edit);
        }
    }
    seal_frame(log, start)
}

/// 8-byte words in a page.
const WORDS: usize = PAGE_SIZE / 8;
/// Words in the block [`find_word`] rules out at once: one checksum block.
const BLOCK: usize = BLOCK_BYTES / 8;

/// The first word at or after `from` that changed (`CHANGED`) or that kept
/// its value (`!CHANGED`), `WORDS` if there is none; `diff(j)` is word `j`
/// of one page image XOR the other. An aligned block holding no such word
/// is ruled out by one branch-free reduction, which compiles to vector
/// compares — so a long unchanged stretch and a long rewritten one both
/// cost a fraction of a nanosecond per word (once `diff` and `CHANGED` are
/// folded into the loop, hence the forced inlining).
#[inline(always)]
fn find_word<const CHANGED: bool>(diff: &impl Fn(usize) -> u64, from: usize) -> usize {
    let hit = |j: usize| (diff(j) != 0) == CHANGED;
    let mut j = from;
    while j < WORDS {
        if j % BLOCK == 0
            && j + BLOCK <= WORDS
            && !(j..j + BLOCK).fold(false, |any, k| any | hit(k))
        {
            j += BLOCK;
        } else if hit(j) {
            return j;
        } else {
            j += 1;
        }
    }
    WORDS
}

/// Appends the frame that logs the write of page `page` from image
/// `before` to `after`, and returns its byte length — or 0, leaving `log`
/// and `sum` alone, when the images are identical.
///
/// The literal frame holds the changed byte runs, copied straight from
/// `after`. A changed stretch is a maximal stretch of changed 8-byte
/// words, cut back at both ends to its first and last changed byte, so
/// finding them is one scan alternating between the next changed and the
/// next unchanged word: a page with one changed row and a wholly rewritten
/// page both cost about one pass of word compares. Two stretches are at
/// least a word of unchanged bytes apart, more than the [`RUN_HEADER`] the
/// second one costs, so splitting there always pays.
///
/// `edits` are the slotted-page edits that made `after` from `before`
/// (`&[]`: the write is not a B-tree write); when their edit frame is
/// shorter than the literal one, it is logged instead. So a tree write
/// never logs more than the bytes it changed, and an in-place update,
/// whose edit would carry the whole record, logs the few bytes it changed.
///
/// The same pass restamps `sum`, the page's stored `block_sum`: each
/// 64-byte block holding a changed word adds its term in `after` and
/// subtracts its term in `before` — a block of zeros from a table, so a
/// fresh page costs one chain per block written, no more than a full
/// checksum. Blocks the write left alone are never read, and what `sum`
/// stood at against `before` is carried over: a stored sum that did not
/// match the page before the write does not match it after.
pub(crate) fn append_write(
    log: &mut Vec<u8>,
    lsn: u64,
    page: u64,
    before: &[u8],
    after: &[u8],
    sum: &mut u64,
    edits: &[SlotEdit<'_>],
) -> usize {
    assert!(before.len() == PAGE_SIZE && after.len() == PAGE_SIZE);
    // Non-zero in the bytes that changed, lowest page offset in the lowest
    // bits.
    let diff = |j: usize| le::u64_at(before, j * 8) ^ le::u64_at(after, j * 8);
    let mut first = find_word::<true>(&diff, 0);
    if first == WORDS {
        return 0;
    }
    let start = open_frame(log, KIND_WRITE, lsn);
    le::push_u64(log, page);
    // Blocks below this one are restamped already (two runs can share one).
    let mut restamped = 0;
    while first < WORDS {
        let past = find_word::<false>(&diff, first + 1);
        let from = first * 8 + (diff(first).trailing_zeros() / 8) as usize;
        let to = past * 8 - (diff(past - 1).leading_zeros() / 8) as usize;
        push_run(log, from, &after[from..to]);
        let blocks = (first / BLOCK).max(restamped)..past.div_ceil(BLOCK);
        let bytes = blocks.start * BLOCK_BYTES..blocks.end * BLOCK_BYTES;
        let new = terms(&after[bytes.clone()], blocks.start);
        let old = terms(&before[bytes], blocks.start);
        *sum = sum.wrapping_add(new).wrapping_sub(old);
        restamped = blocks.end;
        first = find_word::<true>(&diff, past);
    }
    let literal = seal_frame(log, start);
    if edits.is_empty() {
        return literal;
    }
    // The edit frame goes after the literal one; the longer one goes.
    let edited = append_edits(log, lsn, page, edits);
    if edited >= literal {
        log.truncate(start + literal);
        return literal;
    }
    log.drain(start..start + literal);
    edited
}

/// The result of walking a (possibly torn) log buffer.
#[derive(Debug)]
pub struct WalScan<'a> {
    /// The records of every complete, verified frame in log order, each
    /// with its frame's LSN (a write frame yields one record per run).
    pub records: Vec<(u64, WalRecord<'a>)>,
    /// Frame-end byte offset of each record in `records` — where the frame
    /// after record `i`'s starts, which recovery uses to report how many
    /// trailing bytes it discarded past the last complete commit.
    pub ends: Vec<usize>,
    /// Byte length of the clean prefix (everything before the tear).
    pub clean_len: usize,
    /// Byte offset of the torn/corrupt tail, if the buffer did not end
    /// exactly on a record boundary.
    pub tear: Option<usize>,
}

/// Walks `buf` from the front, decoding frames until the buffer ends or a
/// frame fails to verify (short frame, bad magic, checksum mismatch,
/// malformed run table, LSN out of sequence). A failing frame is reported
/// as a tear, never an error — a torn tail is the *expected* state after a
/// crash.
pub fn scan(buf: &[u8]) -> WalScan<'_> {
    let mut s = WalScan {
        records: Vec::new(),
        ends: Vec::new(),
        clean_len: 0,
        tear: None,
    };
    let mut due_lsn = None;
    while s.clean_len < buf.len() {
        let Some((lsn, next)) = decode_frame(buf, s.clean_len, due_lsn, &mut s.records) else {
            s.tear = Some(s.clean_len);
            break;
        };
        s.ends.resize(s.records.len(), next);
        s.clean_len = next;
        due_lsn = lsn.checked_add(1);
    }
    s
}

/// Like [`scan`] but a torn tail is a typed error: the caller wants the
/// log to be whole (integrity checks, tests) rather than crash-tolerant.
pub fn scan_strict(buf: &[u8]) -> Result<Vec<(u64, WalRecord<'_>)>> {
    let s = scan(buf);
    match s.tear {
        Some(offset) => Err(StorageError::WalTorn { offset }),
        None => Ok(s.records),
    }
}

/// Decodes the frame starting at `off` into `out`, returning its LSN and
/// end offset; `None` — with `out` as it was — if the frame is incomplete,
/// has a bad magic/kind/payload, fails its checksum, or carries an LSN
/// other than `due_lsn` (`None` = the buffer's first frame, any LSN).
fn decode_frame<'a>(
    buf: &'a [u8],
    off: usize,
    due_lsn: Option<u64>,
    out: &mut Vec<(u64, WalRecord<'a>)>,
) -> Option<(u64, usize)> {
    let header_end = off.checked_add(FRAME_HEADER)?;
    if header_end > buf.len() || buf[off] != WAL_MAGIC {
        return None;
    }
    let kind = buf[off + 1];
    let lsn = le::u64_at(buf, off + 2);
    let payload_len = le::u32_at(buf, off + 10) as usize;
    let payload_end = header_end.checked_add(payload_len)?;
    let frame_end = payload_end.checked_add(4)?;
    if frame_end > buf.len()
        || checksum32(&buf[off..payload_end]) != le::u32_at(buf, payload_end)
        || due_lsn.is_some_and(|due| due != lsn)
    {
        return None;
    }
    let payload = &buf[header_end..payload_end];
    match kind {
        KIND_ALLOC if payload_len == 8 => {
            let page = le::u64_at(payload, 0);
            out.push((lsn, WalRecord::Alloc { page }));
        }
        KIND_FREE if payload_len == 8 => {
            let page = le::u64_at(payload, 0);
            out.push((lsn, WalRecord::Free { page }));
        }
        KIND_WRITE | KIND_EDIT => {
            let frame_first = out.len();
            let decoded = match kind {
                KIND_WRITE => decode_runs(payload, lsn, out),
                _ => decode_edits(payload, lsn, out),
            };
            if decoded.is_none() {
                out.truncate(frame_first);
                return None;
            }
        }
        KIND_COMMIT => out.push((lsn, WalRecord::Commit { catalog: payload })),
        _ => return None,
    }
    Some((lsn, frame_end))
}

/// Decodes a write payload into one [`WalRecord::Write`] per run; `None`
/// (with `out` possibly grown) unless it is a page id followed by one or
/// more ascending, non-overlapping, non-empty, in-page runs that fill the
/// payload exactly.
fn decode_runs<'a>(payload: &'a [u8], lsn: u64, out: &mut Vec<(u64, WalRecord<'a>)>) -> Option<()> {
    let mut table = payload.get(8..).filter(|t| !t.is_empty())?;
    let page = le::u64_at(payload, 0);
    let mut floor = 0; // the page offset the next run may not start before
    while !table.is_empty() {
        if table.len() < RUN_HEADER {
            return None;
        }
        let (off, len) = (le::u16_at(table, 0), usize::from(le::u16_at(table, 2)));
        let (start, end) = (usize::from(off), usize::from(off) + len);
        if len == 0 || start < floor || end > PAGE_SIZE {
            return None;
        }
        let bytes = table.get(RUN_HEADER..RUN_HEADER + len)?;
        out.push((lsn, WalRecord::Write { page, off, bytes }));
        floor = end;
        table = &table[RUN_HEADER + len..];
    }
    Some(())
}

/// Reads an edit frame's payload front to back; every read is `None` past
/// its end.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let taken = self.0.get(..n)?;
        self.0 = &self.0[n..];
        Some(taken)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<usize> {
        Some(usize::from(le::u16_at(self.take(2)?, 0)))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(le::u64_at(self.take(8)?, 0))
    }

    fn link(&mut self) -> Option<Option<u64>> {
        self.u64().map(|next| (next != u64::MAX).then_some(next))
    }

    /// A slot a page's directory can hold.
    fn slot(&mut self) -> Option<usize> {
        self.u16().filter(|&s| s < MAX_SLOTS)
    }

    /// A record: a non-empty length no page exceeds, and its bytes.
    fn record(&mut self) -> Option<Cow<'a, [u8]>> {
        let len = self
            .u16()
            .filter(|&l| (1..=SlottedPage::max_record()).contains(&l))?;
        self.take(len).map(Cow::Borrowed)
    }

    /// `count` slots from slot `first`, one at least and none past a
    /// page's directory.
    fn slots(&mut self) -> Option<std::ops::Range<usize>> {
        let (first, count) = (self.u16()?, self.u16()?);
        (count > 0 && first + count <= MAX_SLOTS).then_some(first..first + count)
    }

    /// A piece of a rebuild of `page`; another page never names `page`.
    fn piece(&mut self, page: u64) -> Option<Piece<'a>> {
        Some(match self.u8()? {
            PIECE_OWN => Piece::Slots(page, self.slots()?),
            PIECE_OTHER => {
                let slots = self.slots()?;
                Piece::Slots(self.u64().filter(|&src| src != page)?, slots)
            }
            PIECE_BYTES => Piece::Bytes(self.record()?),
            _ => return None,
        })
    }

    /// An edit of `page`: a known tag, slots and lengths a page can hold,
    /// and no byte missing.
    fn edit(&mut self, page: u64) -> Option<SlotEdit<'a>> {
        Some(match self.u8()? {
            EDIT_INSERT => SlotEdit::Insert(self.slot()?, self.record()?),
            EDIT_REPLACE => SlotEdit::Replace(self.slot()?, self.record()?),
            EDIT_REMOVE => self.slots().map(|s| SlotEdit::Remove(s.start, s.len()))?,
            EDIT_LINK => SlotEdit::Link(self.link()?),
            EDIT_REBUILD => {
                let n = self.u16().filter(|&n| n <= MAX_SLOTS)?;
                let (kind, next) = (self.u8().filter(|&k| tree_kind(k))?, self.link()?);
                let records = (0..n).map(|_| self.piece(page)).collect::<Option<_>>()?;
                SlotEdit::Rebuild(kind, next, records)
            }
            _ => return None,
        })
    }
}

/// Decodes an edit payload into one [`WalRecord::Edit`] per edit; `None`
/// (with `out` possibly grown) unless it is a page id followed by one or
/// more well-formed edits that fill the payload exactly.
fn decode_edits<'a>(
    payload: &'a [u8],
    lsn: u64,
    out: &mut Vec<(u64, WalRecord<'a>)>,
) -> Option<()> {
    let mut c = Cursor(payload.get(8..).filter(|t| !t.is_empty())?);
    let page = le::u64_at(payload, 0);
    while !c.0.is_empty() {
        let edit = c.edit(page)?;
        out.push((lsn, WalRecord::Edit { page, edit }));
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An edit of every kind, the rebuild with a piece of every kind.
    fn sample_edits() -> Vec<SlotEdit<'static>> {
        let rec = |len: usize| Cow::Owned(filler(len));
        let records = vec![
            Piece::Slots(1, 0..5),
            Piece::Bytes(rec(16)),
            Piece::Slots(0, 9..10),
        ];
        vec![
            SlotEdit::Insert(3, rec(40)),
            SlotEdit::Remove(7, 2),
            SlotEdit::Replace(0, rec(9)),
            SlotEdit::Link(Some(12)),
            SlotEdit::Link(None),
            SlotEdit::Rebuild(crate::page::page_type::BTREE_INTERNAL, Some(4), records),
        ]
    }

    /// The one-edit frame of the sample log.
    fn sample_insert() -> WalRecord<'static> {
        let rec = Cow::Owned(filler(20));
        WalRecord::Edit {
            page: 2,
            edit: SlotEdit::Insert(0, rec),
        }
    }

    /// Alloc, literal write, edit (every kind in one frame), one-edit and
    /// free frames (LSNs 1 to 5), then a commit; returns the log and where
    /// the commit starts.
    fn sample_log() -> (Vec<u8>, usize) {
        let mut log = Vec::new();
        append_record(&mut log, 1, &WalRecord::Alloc { page: 0 });
        append_record(
            &mut log,
            2,
            &WalRecord::Write {
                page: 0,
                off: 16,
                bytes: &[1, 2, 3],
            },
        );
        append_edits(&mut log, 3, 1, &sample_edits());
        append_record(&mut log, 4, &sample_insert());
        append_record(&mut log, 5, &WalRecord::Free { page: 0 });
        let commit_at = log.len();
        append_record(&mut log, 6, &WalRecord::Commit { catalog: b"cat" });
        (log, commit_at)
    }

    #[test]
    fn round_trips_every_kind() {
        let (log, _) = sample_log();
        let recs = scan_strict(&log).unwrap();
        let edits = sample_edits();
        assert_eq!(recs.len(), 5 + edits.len());
        assert_eq!(recs[0], (1, WalRecord::Alloc { page: 0 }));
        assert_eq!(
            recs[1],
            (
                2,
                WalRecord::Write {
                    page: 0,
                    off: 16,
                    bytes: &[1, 2, 3]
                }
            )
        );
        for (got, edit) in recs[2..].iter().zip(&edits) {
            let edit = edit.clone();
            assert_eq!(got, &(3, WalRecord::Edit { page: 1, edit }));
        }
        let n = recs.len();
        assert_eq!(recs[n - 3], (4, sample_insert()));
        assert_eq!(recs[n - 2], (5, WalRecord::Free { page: 0 }));
        assert_eq!(recs[n - 1], (6, WalRecord::Commit { catalog: b"cat" }));
        // One edit appended as a record is a one-edit frame, and a frame of
        // several edits takes what their one-edit frames take past the
        // frame header and page id.
        let whole = append_edits(&mut Vec::new(), 3, 1, &edits);
        let mut lens = 0;
        for edit in edits {
            let (mut one, rec) = (Vec::new(), WalRecord::Edit { page: 1, edit });
            lens += append_record(&mut one, 3, &rec) - FRAME_OVERHEAD - 8;
            assert_eq!(scan_strict(&one).unwrap(), [(3, rec)]);
        }
        assert_eq!(whole, FRAME_OVERHEAD + 8 + lens);
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_whole_record() {
        let (log, commit_at) = sample_log();
        // Cut mid-way through the commit frame.
        let torn = &log[..commit_at + 5];
        let s = scan(torn);
        assert_eq!(s.records.len(), scan_strict(&log).unwrap().len() - 1);
        assert_eq!(s.clean_len, commit_at);
        assert_eq!(s.tear, Some(commit_at));
        assert_eq!(
            scan_strict(torn),
            Err(StorageError::WalTorn { offset: commit_at })
        );
    }

    #[test]
    fn every_truncation_point_yields_a_prefix_of_records() {
        let (log, _) = sample_log();
        let whole = scan_strict(&log).unwrap();
        for cut in 0..log.len() {
            let s = scan(&log[..cut]);
            assert!(s.records.len() <= whole.len());
            assert_eq!(s.records, whole[..s.records.len()]);
            assert!(s.clean_len <= cut);
        }
    }

    #[test]
    fn corrupt_byte_fails_the_checksum() {
        let (mut log, _) = sample_log();
        let mid = log.len() / 2;
        log[mid] ^= 0x40;
        let s = scan(&log);
        assert!(s.tear.is_some(), "flipped bit must be detected");
        // Any one bit flipped, in any frame: the scan keeps only the
        // frames before it.
        log[mid] ^= 0x40;
        let clean = log.clone();
        let whole = scan_strict(&clean).unwrap();
        let starts: Vec<usize> = std::iter::once(0)
            .chain(scan(&clean).ends.iter().copied())
            .collect();
        for bit in 0..log.len() * 8 {
            log[bit / 8] ^= 1 << (bit % 8);
            let s = scan(&log);
            let frame = starts.iter().rposition(|&at| at <= bit / 8).unwrap();
            assert_eq!(s.tear, Some(starts[frame]), "bit {bit}");
            assert_eq!(s.records, whole[..frame], "bit {bit}");
            log[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn checksum_is_sensitive_to_position_and_length() {
        assert_ne!(checksum32(&[0, 1]), checksum32(&[1, 0]));
        assert_ne!(checksum32(&[0]), checksum32(&[0, 0]));
        assert_eq!(checksum32(b"abc"), checksum32(b"abc"));
    }

    /// Deterministic non-repeating filler (no two 8-byte words equal).
    fn filler(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                ((i as u64 / 8).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> ((i % 8) * 8)) as u8 ^ 0x5A
            })
            .collect()
    }

    /// Every single-bit flip of `buf` must change its frame check and its
    /// block sum (the page checksum).
    fn assert_every_bit_flip_is_seen(buf: &mut [u8]) {
        let clean = (checksum32(buf), block_sum(buf));
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            let (check, sum) = (checksum32(buf), block_sum(buf));
            assert_ne!(check, clean.0, "frame: bit {bit} of {} bytes", buf.len());
            assert_ne!(sum, clean.1, "sum: bit {bit} of {} bytes", buf.len());
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn every_bit_of_a_page_is_covered() {
        assert_every_bit_flip_is_seen(&mut filler(crate::page::PAGE_SIZE));
        assert_every_bit_flip_is_seen(&mut vec![0u8; crate::page::PAGE_SIZE]);
    }

    /// The page checksum's promise, word by word: whatever a single 8-byte
    /// word of a page changes to, the block sum changes — each chain step
    /// is a bijection of the word it absorbs. Checked for every word of a
    /// page against a handful of replacement values.
    #[test]
    fn any_single_word_change_changes_the_page_sum() {
        for mut page in [filler(PAGE_SIZE), vec![0u8; PAGE_SIZE]] {
            let clean = block_sum(&page);
            for w in 0..PAGE_SIZE / 8 {
                let old = le::u64_at(&page, w * 8);
                for delta in [1, 1 << 63, u64::MAX, 0x0123_4567_89AB_CDEF] {
                    le::put_u64(&mut page, w * 8, old ^ delta);
                    assert_ne!(block_sum(&page), clean, "word {w}, delta {delta:#x}");
                }
                le::put_u64(&mut page, w * 8, old);
            }
        }
    }

    /// Block `b`'s term straight from its definition: the index absorbed
    /// into the seed, then the block's words in order.
    fn reference_term(b: usize, block: &[u8]) -> u64 {
        (0..8).fold(mix(SUM_SEED, b as u64), |h, w| {
            mix(h, le::u64_at(block, w * 8))
        })
    }

    /// The table of zero-block terms is the chains it stands for, the
    /// fresh-page sum is a zero page's, and at every position of a page a
    /// block's term differs from the table's entry by exactly what it adds
    /// to the page's sum.
    #[test]
    fn zero_block_table_is_the_computed_terms() {
        let zero = [0u8; BLOCK_BYTES];
        for (b, &term) in ZERO_TERMS.iter().enumerate() {
            assert_eq!(term, reference_term(b, &zero), "block {b}");
        }
        assert_eq!(ZERO_PAGE_SUM, block_sum(&[0u8; PAGE_SIZE]));
        for b in 0..PAGE_BLOCKS {
            let mut page = vec![0u8; PAGE_SIZE];
            page[b * BLOCK_BYTES + 13] = 0xA5;
            let block = &page[b * BLOCK_BYTES..][..BLOCK_BYTES];
            let want = ZERO_PAGE_SUM
                .wrapping_sub(ZERO_TERMS[b])
                .wrapping_add(reference_term(b, block));
            assert_eq!(block_sum(&page), want, "block {b}");
        }
    }

    /// The four-wide, table-assisted sum is the plain sum of the block
    /// terms, at lengths around the block size and the four-block stride,
    /// with stretches of zero blocks inside the page and past its end (a
    /// frame longer than a page).
    #[test]
    fn block_sum_is_the_sum_of_its_terms() {
        let mut data = filler(PAGE_SIZE + 5 * BLOCK_BYTES + 70);
        for zeros in [2..7, 9..10, 20..24, PAGE_BLOCKS - 2..PAGE_BLOCKS + 3] {
            data[zeros.start * BLOCK_BYTES..zeros.end * BLOCK_BYTES].fill(0);
        }
        let lens = (0..=data.len()).filter(|l| l % 97 == 0 || l % 256 < 2 || l % 256 > 253);
        for len in lens.chain([PAGE_SIZE, data.len()]) {
            let mut padded = data[..len].to_vec();
            padded.resize(len.div_ceil(BLOCK_BYTES) * BLOCK_BYTES, 0);
            let want = padded
                .chunks(BLOCK_BYTES)
                .enumerate()
                .fold(0u64, |s, (b, block)| {
                    s.wrapping_add(reference_term(b, block))
                });
            assert_eq!(block_sum(&data[..len]), want, "len {len}");
        }
    }

    /// `block_sums` is `block_sum` lane by lane, over 2 000 random groups
    /// of pages: random bytes, all zeros, random bytes with whole quads of
    /// blocks zeroed (where `block_sum` takes its table shortcut and
    /// `block_sums` runs the chains), a few words set in a zero page — and
    /// lanes that repeat an earlier lane's page. At the group size the
    /// store uses and at one and eight lanes.
    #[test]
    fn block_sums_is_block_sum_lane_by_lane() {
        use sqlarray_core::rng::{RngCore, SeedableRng, StdRng};
        fn random(rng: &mut StdRng, page: &mut [u8]) {
            for w in page.chunks_exact_mut(8) {
                w.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
        }
        fn page(rng: &mut StdRng) -> Vec<u8> {
            let mut page = vec![0u8; PAGE_SIZE];
            match rng.next_u64() % 4 {
                0 => {}
                1 => random(rng, &mut page),
                2 => {
                    random(rng, &mut page);
                    for quad in page.chunks_exact_mut(QUAD_BYTES) {
                        if rng.next_u64() % 2 == 0 {
                            quad.fill(0);
                        }
                    }
                }
                _ => {
                    for _ in 0..rng.next_u64() % 9 {
                        let at = (rng.next_u64() as usize % WORDS) * 8;
                        le::put_u64(&mut page, at, rng.next_u64());
                    }
                }
            }
            page
        }
        fn check<const N: usize>(rng: &mut StdRng, case: usize) {
            let mut pages: Vec<Vec<u8>> = (0..N).map(|_| page(rng)).collect();
            for k in 1..N {
                if rng.next_u64() % 4 == 0 {
                    pages[k] = pages[rng.next_u64() as usize % k].clone();
                }
            }
            let lanes: [&[u8]; N] = std::array::from_fn(|k| &pages[k][..]);
            assert_eq!(block_sums(lanes), lanes.map(block_sum), "case {case}");
        }
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for case in 0..2000 {
            check::<SUM_GROUP>(&mut rng, case);
        }
        for case in 0..100 {
            check::<1>(&mut rng, case);
            check::<8>(&mut rng, case);
        }
    }

    /// Lengths around the 8-byte word and 64-byte block boundaries: the
    /// padding of the tail block is not confused with data, and the length
    /// itself is part of the frame check.
    #[test]
    fn every_length_up_to_72_is_distinguished_and_fully_covered() {
        let data = filler(72);
        let mut zero_sums = std::collections::HashSet::new();
        let mut data_sums = std::collections::HashSet::new();
        for len in 0..=72 {
            assert!(
                zero_sums.insert(checksum32(&vec![0u8; len])),
                "zeros, len {len}"
            );
            assert!(
                data_sums.insert(checksum32(&data[..len])),
                "prefix, len {len}"
            );
            assert_every_bit_flip_is_seen(&mut data[..len].to_vec());
        }
    }

    /// Words in the same block and in different blocks alike: the frame
    /// check and the block sum depend on where a word sits, not just on
    /// which words are present.
    #[test]
    fn swapping_any_two_words_changes_the_sum() {
        let mut buf = filler(64 * 8 + 5);
        let clean = (checksum32(&buf), block_sum(&buf));
        for a in 0..64 {
            for b in a + 1..64 {
                for k in 0..8 {
                    buf.swap(a * 8 + k, b * 8 + k);
                }
                assert_ne!(checksum32(&buf), clean.0, "frame: words {a} and {b}");
                assert_ne!(block_sum(&buf), clean.1, "sum: words {a} and {b}");
                for k in 0..8 {
                    buf.swap(a * 8 + k, b * 8 + k);
                }
            }
        }
    }

    /// A frame with any one bit flipped — magic, kind, LSN, length, page
    /// id, run table, edit list or the stored check — never decodes, and
    /// neither does any proper prefix of it (a torn write). Once for a
    /// one-run frame as [`append_record`] builds it, once for a three-run
    /// frame, and once for an edit frame holding every edit and piece
    /// kind.
    #[test]
    fn damaged_or_torn_frames_never_decode() {
        let payload = filler(100);
        let mut one_run = Vec::new();
        append_record(
            &mut one_run,
            9,
            &WalRecord::Write {
                page: 3,
                off: 40,
                bytes: &payload,
            },
        );
        let before = filler(PAGE_SIZE);
        let after = edited(&before, &[(0, 3), (4000, 60), (8190, 2)]);
        let mut three_runs = Vec::new();
        append_write(&mut three_runs, 9, 3, &before, &after, &mut 0, &[]);
        let edits = sample_edits();
        let mut edit_frame = Vec::new();
        append_edits(&mut edit_frame, 9, 3, &edits);
        let frames = [(one_run, 1), (three_runs, 3), (edit_frame, edits.len())];
        for (mut frame, records) in frames {
            assert_eq!(scan_strict(&frame).unwrap().len(), records);
            for bit in 0..frame.len() * 8 {
                frame[bit / 8] ^= 1 << (bit % 8);
                let s = scan(&frame);
                assert!(s.records.is_empty() && s.tear == Some(0), "bit {bit}");
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            for cut in 1..frame.len() {
                let s = scan(&frame[..cut]);
                assert!(s.records.is_empty() && s.tear == Some(0), "cut {cut}");
            }
        }
    }

    /// The LSN chain is part of what a frame must verify: whole,
    /// checksum-valid frames left over from an older log generation end
    /// the scan where the live log was cut.
    #[test]
    fn stale_lsns_after_a_cut_end_the_scan() {
        let (log, cut) = sample_log(); // LSNs 1..=5, then the commit at `cut`
        let mut spliced = log[..cut].to_vec();
        for lsn in [2, 3, 4, 5] {
            append_record(&mut spliced, lsn, &WalRecord::Free { page: lsn });
        }
        let s = scan(&spliced);
        let whole = scan_strict(&log).unwrap();
        assert_eq!(s.records, whole[..whole.len() - 1]);
        assert_eq!((s.clean_len, s.tear), (cut, Some(cut)));
        assert_eq!(
            scan_strict(&spliced),
            Err(StorageError::WalTorn { offset: cut })
        );
        // A repeated LSN is a gap too; the right one carries the log on.
        for (lsn, whole) in [(5, false), (7, false), (6, true)] {
            let mut next = log[..cut].to_vec();
            append_record(&mut next, lsn, &WalRecord::Free { page: 0 });
            assert_eq!(scan(&next).tear.is_none(), whole, "lsn {lsn}");
        }
        // A buffer's first frame may carry any LSN: checkpoints truncate
        // the buffer, not the counter.
        let mut late = Vec::new();
        append_record(&mut late, 700, &WalRecord::Alloc { page: 0 });
        append_record(&mut late, 701, &WalRecord::Commit { catalog: b"c" });
        assert_eq!(scan_strict(&late).unwrap().len(), 2);
    }

    /// `before` with each `(at, len)` stretch rewritten (every byte of it
    /// changes).
    fn edited(before: &[u8], stretches: &[(usize, usize)]) -> Vec<u8> {
        let mut after = before.to_vec();
        for &(at, len) in stretches {
            after[at..at + len].iter_mut().for_each(|b| *b ^= 0xFF);
        }
        after
    }

    /// The diff a byte at a time, straight from its definition: maximal
    /// stretches of 8-byte words holding a changed byte, each cut back to
    /// its first and last changed byte.
    fn reference_runs(before: &[u8], after: &[u8]) -> Vec<std::ops::Range<usize>> {
        let changed = |i: &usize| before[*i] != after[*i];
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        for word in (0..before.len()).step_by(8) {
            let Some(first) = (word..word + 8).find(changed) else {
                continue;
            };
            let past = (word..word + 8).rfind(changed).unwrap() + 1;
            match runs.last_mut() {
                Some(run) if run.end + 8 > word => run.end = past,
                _ => runs.push(first..past),
            }
        }
        runs
    }

    /// Logs `before` → `after` behind a stretch of earlier log bytes and
    /// checks everything the write frame promises: identical images leave
    /// the log alone; otherwise the frame scans whole, its runs are the
    /// reference diff (so ascending, disjoint, and changed at both ends),
    /// replaying them onto `before` gives `after`, and it is no longer
    /// than the frame that logged the one span from the first to the last
    /// change. The restamp moves `before`'s block sum to `after`'s — and a
    /// sum that was off by some amount stays off by exactly that amount.
    /// Returns the number of runs.
    fn check_write_frame(before: &[u8], after: &[u8]) -> usize {
        let earlier = filler(21);
        let mut log = earlier.clone();
        let mut sum = block_sum(before);
        let frame_len = append_write(&mut log, 7, 3, before, after, &mut sum, &[]);
        assert_eq!(sum, block_sum(after), "the restamp is a full recompute");
        let mut off_sum = block_sum(before).wrapping_add(0x51);
        append_write(&mut Vec::new(), 7, 3, before, after, &mut off_sum, &[]);
        assert_eq!(
            off_sum,
            block_sum(after).wrapping_add(0x51),
            "a mismatch survives"
        );
        assert_eq!(log.len(), earlier.len() + frame_len);
        assert_eq!(log[..earlier.len()], earlier[..]);
        let want = reference_runs(before, after);
        if want.is_empty() {
            assert_eq!(frame_len, 0, "identical images log nothing");
            return 0;
        }
        let mut replayed = before.to_vec();
        let mut got = Vec::new();
        for (lsn, rec) in scan_strict(&log[earlier.len()..]).unwrap() {
            let WalRecord::Write {
                page: 3,
                off,
                bytes,
            } = rec
            else {
                panic!("a write frame holds runs of its page, got {rec:?}");
            };
            assert_eq!(lsn, 7);
            let run = usize::from(off)..usize::from(off) + bytes.len();
            replayed[run.clone()].copy_from_slice(bytes);
            got.push(run);
        }
        assert_eq!(got, want);
        assert_eq!(replayed, after);
        let logged: usize = want.iter().map(|r| RUN_HEADER + r.len()).sum();
        assert_eq!(frame_len, FRAME_OVERHEAD + 8 + logged);
        let span = want[want.len() - 1].end - want[0].start;
        assert!(frame_len <= FRAME_OVERHEAD + 8 + RUN_HEADER + span);
        want.len()
    }

    #[test]
    fn write_frames_hold_exactly_the_changed_runs() {
        for before in [vec![0u8; PAGE_SIZE], filler(PAGE_SIZE)] {
            let check = |stretches: &[(usize, usize)]| {
                check_write_frame(&before, &edited(&before, stretches))
            };
            assert_eq!(check(&[]), 0);
            assert_eq!(check(&[(0, 1)]), 1);
            assert_eq!(check(&[(PAGE_SIZE - 1, 1)]), 1);
            assert_eq!(check(&[(0, 1), (PAGE_SIZE - 1, 1)]), 2);
            assert_eq!(check(&[(0, PAGE_SIZE)]), 1, "every byte changed");
            // Runs that start, end and sit astride word boundaries.
            assert_eq!(check(&[(5, 6), (24, 8), (47, 2), (79, 18), (112, 1)]), 5);
            // …and the same with no whole unchanged word between the first three.
            assert_eq!(check(&[(5, 6), (16, 8), (31, 2), (63, 18), (96, 1)]), 3);
            // Two changes `gap` unchanged bytes apart, at every alignment:
            // one run while they share a word or sit in adjacent ones, two
            // once a whole unchanged word lies between them.
            for gap in 0..=16 {
                for at in 200..208 {
                    let runs = check(&[(at, 1), (at + 1 + gap, 1)]);
                    let whole_word_between = (at + 1 + gap) / 8 - at / 8 > 1;
                    assert_eq!(runs, if whole_word_between { 2 } else { 1 }, "{gap} {at}");
                }
            }
        }
        // A fresh page written whole, and a written page back to zeros.
        let (zeros, full) = (vec![0u8; PAGE_SIZE], filler(PAGE_SIZE));
        assert_eq!(check_write_frame(&zeros, &full), 1);
        assert_eq!(check_write_frame(&full, &zeros), 1);
        // Changed words whose bytes partly keep their value (small
        // integers over zeros): a run keeps the unchanged bytes inside it
        // and drops the ones at its ends.
        let mut after = vec![0u8; PAGE_SIZE];
        le::put_u64(&mut after, 512, 0x0100_0000_0000_0100); // bytes 1 and 7
        le::put_u64(&mut after, 520, 0x0000_0000_0001_0000); // byte 2
        le::put_u64(&mut after, 1024, 0x0000_0000_0100_0000); // byte 3
        let mut log = Vec::new();
        append_write(&mut log, 1, 0, &vec![0u8; PAGE_SIZE], &after, &mut 0, &[]);
        let runs: Vec<_> = scan_strict(&log).unwrap();
        let run = |off, bytes| WalRecord::Write {
            page: 0,
            off,
            bytes,
        };
        assert_eq!(runs[0].1, run(513, &after[513..523]));
        assert_eq!(runs[1].1, run(1027, &[1]));
        assert_eq!(check_write_frame(&vec![0u8; PAGE_SIZE], &after), 2);
    }

    /// A log of one frame of `kind` whose payload is page 0's id and
    /// `table`, then a commit.
    fn frame_of(kind: u8, table: &[u8]) -> Vec<u8> {
        let mut log = Vec::new();
        let start = open_frame(&mut log, kind, 1);
        le::push_u64(&mut log, 0);
        log.extend_from_slice(table);
        seal_frame(&mut log, start);
        append_record(&mut log, 2, &WalRecord::Commit { catalog: b"c" });
        log
    }

    /// Each of `bad`, as the bytes after the page id of a `kind` frame,
    /// scans as a tear at 0 and reboots a one-page image to nothing
    /// applied, page 0 untouched; `good` decodes to `records` records, and
    /// replay refuses it, with its typed error, on an image without page 0.
    fn assert_refused(kind: u8, good: &[u8], records: usize, bad: &[(&str, Vec<u8>)]) {
        use crate::store::{DiskImage, PageStore};
        assert_eq!(
            scan_strict(&frame_of(kind, good)).unwrap().len(),
            records + 1
        );
        for (what, table) in bad {
            let log = frame_of(kind, table);
            let s = scan(&log);
            assert!(s.records.is_empty() && s.tear == Some(0), "{what}");
            let image = DiskImage {
                pages: vec![std::sync::Arc::from(vec![0u8; PAGE_SIZE])],
                sums: vec![ZERO_PAGE_SUM],
                free: Vec::new(),
                catalog: None,
                wal: log,
            };
            let rec = PageStore::open(&image).expect(what);
            assert_eq!((rec.applied_records, rec.catalog), (0, None), "{what}");
            assert_eq!(rec.store.raw_page(0).unwrap(), &[0u8; PAGE_SIZE][..]);
        }
        let image = DiskImage {
            pages: Vec::new(),
            sums: Vec::new(),
            free: Vec::new(),
            catalog: None,
            wal: frame_of(kind, good),
        };
        assert!(matches!(
            PageStore::open(&image),
            Err(StorageError::WalCorrupt { offset: 0, .. })
        ));
    }

    /// What a decoder must refuse, as the bytes after the page id of a
    /// write payload, next to a well-formed table so the refusals are not
    /// vacuous. Nothing here may panic, decode, or reach a page.
    #[test]
    fn malformed_run_tables_never_decode() {
        let run = |off: u16, len: u16, bytes: &[u8]| {
            let mut t = Vec::new();
            le::push_u16(&mut t, off);
            le::push_u16(&mut t, len);
            t.extend_from_slice(bytes);
            t
        };
        let page_end = PAGE_SIZE as u16;
        let good = [
            run(10, 2, b"ab"),
            run(12, 1, b"c"),
            run(page_end - 1, 1, b"z"),
        ]
        .concat();
        let bad = [
            ("no run at all", Vec::new()),
            ("empty run", run(10, 0, b"")),
            (
                "empty run after a good one",
                [run(10, 2, b"ab"), run(20, 0, b"")].concat(),
            ),
            ("overlap", [run(10, 4, b"abcd"), run(13, 2, b"ef")].concat()),
            (
                "descending",
                [run(100, 2, b"ab"), run(10, 2, b"cd")].concat(),
            ),
            ("past the page end", run(page_end - 1, 2, b"ab")),
            ("a length past any page", run(10, 0x8002, b"ab")),
            ("trailing bytes", [run(10, 2, b"ab"), vec![0]].concat()),
            (
                "truncated header",
                [run(10, 2, b"ab"), vec![20, 0, 1]].concat(),
            ),
            ("run longer than the payload", run(10, 9, b"ab")),
        ];
        assert_refused(KIND_WRITE, &good, 3, &bad);
    }

    /// The same for an edit payload: an unknown edit or piece tag, a
    /// truncated list, a slot, count or length past what a page holds, an
    /// empty record or slot range, a rebuild of a kind no tree writes, the
    /// written page named as another, and trailing bytes.
    #[test]
    fn malformed_edit_lists_never_decode() {
        let mut good = Vec::new();
        sample_edits()
            .iter()
            .for_each(|e| push_edit(&mut good, 0, e));
        let edit = |tag: u8, fields: &[u16], bytes: &[u8]| {
            let mut t = vec![tag];
            fields.iter().for_each(|&f| le::push_u16(&mut t, f));
            t.extend_from_slice(bytes);
            t
        };
        let rebuild = |kind: u8, pieces: &[u8]| {
            let mut t = vec![EDIT_REBUILD, 1, 0, kind];
            le::push_u64(&mut t, u64::MAX);
            t.extend_from_slice(pieces);
            t
        };
        let leaf = crate::page::page_type::BTREE_LEAF;
        let (max, rec) = (MAX_SLOTS as u16, SlottedPage::max_record() as u16);
        let bad = [
            ("no edit at all", Vec::new()),
            ("an unknown edit tag", edit(9, &[0, 1], b"a")),
            ("a zero edit tag", edit(0, &[0, 1], b"a")),
            ("a truncated insert", edit(EDIT_INSERT, &[0, 4], b"abc")),
            ("a truncated slot", vec![EDIT_REMOVE, 1]),
            ("a truncated link", vec![EDIT_LINK, 1, 2, 3]),
            (
                "an insert past the directory",
                edit(EDIT_INSERT, &[max, 1], b"a"),
            ),
            (
                "a replace past the directory",
                edit(EDIT_REPLACE, &[u16::MAX, 1], b"a"),
            ),
            ("an empty record", edit(EDIT_INSERT, &[0, 0], b"")),
            (
                "a record past any page",
                edit(EDIT_INSERT, &[0, rec + 1], &vec![1; 8200]),
            ),
            ("a removal of no slot", edit(EDIT_REMOVE, &[3, 0], b"")),
            (
                "a removal past the directory",
                edit(EDIT_REMOVE, &[max - 1, 2], b""),
            ),
            (
                "a rebuild of a blob page",
                rebuild(3, &edit(PIECE_OWN, &[0, 1], b"")),
            ),
            (
                "a rebuild of no kind",
                rebuild(0, &edit(PIECE_OWN, &[0, 1], b"")),
            ),
            (
                "an unknown piece tag",
                rebuild(leaf, &edit(7, &[0, 1], b"")),
            ),
            (
                "an empty slot range",
                rebuild(leaf, &edit(PIECE_OWN, &[4, 0], b"")),
            ),
            (
                "slots past the directory",
                rebuild(leaf, &edit(PIECE_OWN, &[max, 1], b"")),
            ),
            (
                "a truncated source page",
                rebuild(leaf, &[PIECE_OTHER, 0, 0, 1, 0, 1, 2]),
            ),
            (
                "another page that is the page itself",
                rebuild(leaf, &[PIECE_OTHER, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            ),
            (
                "an empty record piece",
                rebuild(leaf, &edit(PIECE_BYTES, &[0], b"")),
            ),
            ("a missing piece", rebuild(leaf, b"")),
            ("trailing bytes", [good.clone(), vec![EDIT_LINK]].concat()),
        ];
        assert_refused(KIND_EDIT, &good, sample_edits().len(), &bad);
    }

    /// A tree write logs its edits only when their frame is shorter than
    /// the literal one: inserting a record at the front of a page of 20
    /// (which shifts the whole directory) and removing the first three do;
    /// replacing a record in place does not, whether every byte of it
    /// changed or one did. Either way the restamp is the literal frame's.
    #[test]
    fn an_edit_frame_is_logged_only_when_shorter() {
        let leaf = crate::page::page_type::BTREE_LEAF;
        let mut before = vec![0u8; PAGE_SIZE];
        let rec = |k: u8| Cow::Owned(vec![k; 60]);
        let records = (0..20).map(|k| Piece::Bytes(rec(k))).collect();
        let build = SlotEdit::Rebuild(leaf, None, records);
        crate::page::apply_edit(&mut before, 3, &build, &|_| None).unwrap();
        let mut changed = filler(60);
        for (edit, framed) in [
            (SlotEdit::Insert(0, rec(99)), true),
            (SlotEdit::Replace(4, Cow::Owned(changed.clone())), false),
            (SlotEdit::Remove(0, 3), true),
        ] {
            let mut after = before.clone();
            crate::page::apply_edit(&mut after, 3, &edit, &|_| None).unwrap();
            let (mut literal, mut literal_sum) = (Vec::new(), block_sum(&before));
            let len = append_write(&mut literal, 7, 3, &before, &after, &mut literal_sum, &[]);
            let (mut log, mut sum) = (Vec::new(), block_sum(&before));
            let edits = std::slice::from_ref(&edit);
            let got = append_write(&mut log, 7, 3, &before, &after, &mut sum, edits);
            assert_eq!((sum, got), (literal_sum, log.len()));
            let edit_frame = append_edits(&mut Vec::new(), 7, 3, edits);
            assert_eq!(got, len.min(edit_frame), "{edit:?}");
            let kinds = scan_strict(&log).unwrap();
            assert_eq!(
                matches!(kinds[0].1, WalRecord::Edit { .. }),
                framed,
                "{edit:?}"
            );
            before = after;
        }
        // The replaced record, now at slot 1: one of its bytes changes.
        changed[30] ^= 0xFF;
        let edit = SlotEdit::Replace(1, Cow::Owned(changed));
        let mut after = before.clone();
        crate::page::apply_edit(&mut after, 3, &edit, &|_| None).unwrap();
        let mut log = Vec::new();
        let got = append_write(&mut log, 7, 3, &before, &after, &mut 0, &[edit]);
        assert_eq!(got, FRAME_OVERHEAD + 8 + RUN_HEADER + 1);
    }

    proptest::proptest! {
        /// Random page pairs — a handful of stretches rewritten with
        /// random bytes (some of which land on their old value) over a
        /// zero or a filled page — through [`check_write_frame`].
        #[test]
        fn random_page_pairs_round_trip_through_the_log(
            zero_page in proptest::prelude::any::<bool>(),
            stretches in proptest::collection::vec(
                (0usize..PAGE_SIZE, 1usize..48, proptest::prelude::any::<u64>()),
                0..12,
            ),
        ) {
            let before = if zero_page { vec![0u8; PAGE_SIZE] } else { filler(PAGE_SIZE) };
            let mut after = before.clone();
            for (at, len, seed) in stretches {
                for (i, b) in after[at..(at + len).min(PAGE_SIZE)].iter_mut().enumerate() {
                    // Roughly one byte in four keeps its value.
                    let r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32 * 7);
                    if r & 3 != 0 {
                        *b = (r >> 8) as u8;
                    }
                }
            }
            check_write_frame(&before, &after);
        }
    }
}
