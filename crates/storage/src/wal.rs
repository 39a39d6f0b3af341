//! Write-ahead log: checksummed, LSN-stamped physiological records.
//!
//! Every mutation of a [`crate::store::PageStore`] — page allocation (fresh
//! or reused from the free list), page free, and page write — appends one
//! frame here *before* the in-memory "disk" state is considered durable.
//! Page writes are **physiological**: the frame carries the page id plus
//! the byte runs that changed, not the whole 8 KiB image and not the span
//! from the first to the last change either — a slotted page keeps its
//! header at byte 0 and its slot directory at byte 8191, so that span is
//! the page. Measured on a half-full leaf of 35 rows of ~110 bytes (frame
//! bytes, [`FRAME_OVERHEAD`] included): an in-place `I32` column update
//! logs 31 B; an insert 147 B at the end of the key range, 214 B in the
//! middle and 286 B at the front (the record, the header fields, and four
//! bytes per slot entry that moved); a delete 31, 101 and 168 B (the same
//! less the record); a split of a full 70-row leaf 5.9 KiB over 4 frames
//! (the rows that moved to the new leaf), an append-side split 301 B over
//! 5; and a patch of one 8 176-byte blob chunk 8 206 B in one frame — what
//! it rewrote.
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
//! kind   u8   (1 = alloc, 2 = free, 3 = write, 4 = commit)
//! lsn    u64  LE, the previous frame's plus one
//! len    u32  LE, payload byte count
//! payload     (kind-specific, see below)
//! check  u32  LE, checksum32 over magic..payload
//! ```
//!
//! Payloads: `alloc`/`free` are `page u64`; `commit` is the opaque catalog
//! image; `write` is `page u64` followed by one or more runs
//! `off u16 | len u16 | bytes[len]` (`off` relative to the page start) that
//! fill the payload exactly, ascending and non-overlapping, none empty,
//! none past the page end. One [`PageStore::write`] is one frame however
//! many runs it changed. [`append_write`] finds them by comparing the
//! before- and after-image a word at a time: a run is a maximal stretch of
//! changed 8-byte words, cut back at both ends to its first and last
//! changed byte, so two runs are always more than a [`RUN_HEADER`] of
//! unchanged bytes apart and logging them separately always pays. A
//! one-run payload is 12 bytes plus the run, each further run
//! [`RUN_HEADER`] more — never more than the one span from the first to the
//! last change would take. [`scan`] hands a frame's runs back as
//! consecutive [`WalRecord::Write`] records under the frame's LSN.
//!
//! A frame that fails any of this — short, bad magic or kind, bad
//! checksum, a malformed run table, or an LSN that is not its
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
//! sum over 128 blocks; a frame's [`checksum32`] is the block sum of
//! `magic..payload` absorbed into a state seeded with the byte length and
//! folded to 32 bits.
//!
//! Being a sum is what makes a page write cheap to restamp: [`append_write`]
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
//! [`PageStore::write`]: crate::store::PageStore::write
//! [`open`]: crate::store::PageStore::open

use crate::errors::{Result, StorageError};
use crate::page::PAGE_SIZE;
use sqlarray_core::le;

/// First byte of every WAL frame.
pub const WAL_MAGIC: u8 = 0xA7;

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
pub fn checksum32(bytes: &[u8]) -> u32 {
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

/// Appends one framed record to `log`, returning the frame's byte length.
/// A [`WalRecord::Write`] becomes a one-run write frame.
pub fn append_record(log: &mut Vec<u8>, lsn: u64, rec: &WalRecord<'_>) -> usize {
    let start = open_frame(log, rec.kind(), lsn);
    match rec {
        WalRecord::Alloc { page } | WalRecord::Free { page } => le::push_u64(log, *page),
        WalRecord::Write { page, off, bytes } => {
            le::push_u64(log, *page);
            push_run(log, usize::from(*off), bytes);
        }
        WalRecord::Commit { catalog } => log.extend_from_slice(catalog),
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

/// Appends the write frame that turns page image `before` into `after`:
/// the changed byte runs, copied straight from `after`. Returns the
/// frame's byte length, or 0 — and leaves `log` and `sum` alone — when the
/// images are identical. The frame is a pure function of the two images.
///
/// A run is a maximal stretch of changed 8-byte words, cut back at both
/// ends to its first and last changed byte, so finding the runs is one
/// scan alternating between the next changed and the next unchanged word:
/// a page with one changed row and a wholly rewritten page both cost about
/// one pass of word compares. Two runs are at least a word
/// of unchanged bytes apart, more than the [`RUN_HEADER`] the second one
/// costs, so splitting there always pays.
///
/// The same pass restamps `sum`, the page's stored `block_sum`: each
/// 64-byte block holding a changed word adds its term in `after` and
/// subtracts its term in `before` — a block of zeros from a table, so a
/// fresh page costs one chain per block written, no more than a full
/// checksum. Blocks the write left alone are never read, and what `sum`
/// stood at against `before` is carried over: a stored sum that did not
/// match the page before the write does not match it after.
pub fn append_write(
    log: &mut Vec<u8>,
    lsn: u64,
    page: u64,
    before: &[u8],
    after: &[u8],
    sum: &mut u64,
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
    seal_frame(log, start)
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
        KIND_WRITE => {
            let frame_first = out.len();
            if decode_runs(payload, lsn, out).is_none() {
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
        let bytes = table.get(RUN_HEADER..RUN_HEADER + len)?;
        let (start, end) = (usize::from(off), usize::from(off) + len);
        if len == 0 || start < floor || end > PAGE_SIZE {
            return None;
        }
        out.push((lsn, WalRecord::Write { page, off, bytes }));
        floor = end;
        table = &table[RUN_HEADER + len..];
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        append_record(&mut log, 3, &WalRecord::Free { page: 0 });
        let commit_at = log.len();
        append_record(&mut log, 4, &WalRecord::Commit { catalog: b"cat" });
        (log, commit_at)
    }

    #[test]
    fn round_trips_every_kind() {
        let (log, _) = sample_log();
        let recs = scan_strict(&log).unwrap();
        assert_eq!(recs.len(), 4);
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
        assert_eq!(recs[2], (3, WalRecord::Free { page: 0 }));
        assert_eq!(recs[3], (4, WalRecord::Commit { catalog: b"cat" }));
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_whole_record() {
        let (log, commit_at) = sample_log();
        // Cut mid-way through the commit frame.
        let torn = &log[..commit_at + 5];
        let s = scan(torn);
        assert_eq!(s.records.len(), 3);
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
    /// id, run table or the stored check — never decodes, and neither does
    /// any proper prefix of it (a torn write). Once for a one-run frame as
    /// [`append_record`] builds it, once for a three-run frame.
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
        append_write(&mut three_runs, 9, 3, &before, &after, &mut 0);
        for (mut frame, runs) in [(one_run, 1), (three_runs, 3)] {
            assert_eq!(scan_strict(&frame).unwrap().len(), runs);
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
        let (log, cut) = sample_log(); // LSNs 1..=3, then the commit at `cut`
        let mut spliced = log[..cut].to_vec();
        for lsn in [2, 3, 4] {
            append_record(&mut spliced, lsn, &WalRecord::Free { page: lsn });
        }
        let s = scan(&spliced);
        assert_eq!(s.records, scan_strict(&log).unwrap()[..3]);
        assert_eq!((s.clean_len, s.tear), (cut, Some(cut)));
        assert_eq!(
            scan_strict(&spliced),
            Err(StorageError::WalTorn { offset: cut })
        );
        // A repeated LSN is a gap too; the right one carries the log on.
        for (lsn, whole) in [(3, false), (5, false), (4, true)] {
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
        let frame_len = append_write(&mut log, 7, 3, before, after, &mut sum);
        assert_eq!(sum, block_sum(after), "the restamp is a full recompute");
        let mut off_sum = block_sum(before).wrapping_add(0x51);
        append_write(&mut Vec::new(), 7, 3, before, after, &mut off_sum);
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
        append_write(&mut log, 1, 0, &vec![0u8; PAGE_SIZE], &after, &mut 0);
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

    /// What a decoder must refuse, as the bytes after the page id of a
    /// write payload, next to a well-formed table so the refusals are not
    /// vacuous. Nothing here may panic, decode, or reach a page.
    #[test]
    fn malformed_run_tables_never_decode() {
        use crate::store::{DiskImage, PageStore};
        let run = |off: u16, len: u16, bytes: &[u8]| {
            let mut t = Vec::new();
            le::push_u16(&mut t, off);
            le::push_u16(&mut t, len);
            t.extend_from_slice(bytes);
            t
        };
        let frame_of = |table: &[u8]| {
            let mut log = Vec::new();
            let start = open_frame(&mut log, KIND_WRITE, 1);
            le::push_u64(&mut log, 0);
            log.extend_from_slice(table);
            seal_frame(&mut log, start);
            append_record(&mut log, 2, &WalRecord::Commit { catalog: b"c" });
            log
        };
        let page_end = PAGE_SIZE as u16;
        let good = [
            run(10, 2, b"ab"),
            run(12, 1, b"c"),
            run(page_end - 1, 1, b"z"),
        ]
        .concat();
        assert_eq!(scan_strict(&frame_of(&good)).unwrap().len(), 4);
        let bad: [(&str, Vec<u8>); 9] = [
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
            ("trailing bytes", [run(10, 2, b"ab"), vec![0]].concat()),
            (
                "truncated header",
                [run(10, 2, b"ab"), vec![20, 0, 1]].concat(),
            ),
            ("run longer than the payload", run(10, 9, b"ab")),
        ];
        for (what, table) in &bad {
            let log = frame_of(table);
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
        // A table that decodes but names a page the file does not have is
        // replay's to refuse, with its typed error.
        let image = DiskImage {
            pages: Vec::new(),
            sums: Vec::new(),
            free: Vec::new(),
            catalog: None,
            wal: frame_of(&good),
        };
        assert!(matches!(
            PageStore::open(&image),
            Err(StorageError::WalCorrupt { offset: 0, .. })
        ));
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
