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
//! logs 31 B; an insert 147 B at the end of the key range and 152 B in
//! the middle or at the front (the record, the header fields, the new
//! slot entry, and one 6-byte copy of the slot entries that moved — 214
//! and 286 B when they were logged as bytes); a delete 31 B at the end
//! and 37 B elsewhere (101 and 168 B before); a split of a full 76-row
//! leaf in the middle 456 B over 4 frames (4.1 KiB before the rows that
//! moved to the new leaf were logged as copy runs), an append-side split
//! 301 B over 5; and a patch of one 8 176-byte blob chunk 8 206 B in one
//! frame — what it rewrote.
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
//! image; `write` is `page u64` followed by one or more runs that fill the
//! payload exactly, ascending and non-overlapping, none empty, none past
//! the page end (`off` is relative to the page start), each of one of
//! three forms:
//!
//! ```text
//! literal   off u16 | len u16                         | bytes[len]
//! copy      off u16 | len u16 with bit 15 set         | src u64 | src_off u16
//! own copy  off u16 | len u16 with bits 15 and 14 set | src_off u16
//! ```
//!
//! One rule covers both copy forms: a copy run's `len` bytes are bytes
//! `src_off..` of its source page **as they stood before the frame**, and
//! `src_off + len` lies inside the page. A `copy` names another page `src`
//! (never the frame's own: that is what the 6-byte `own copy` is for); an
//! `own copy` names the frame's own page — bytes that moved within it, as
//! a slot directory shifts when a record goes in or out, or as a leaf
//! rebuilt in place re-packs its records. Both decode to
//! [`WalRecord::Copy`], an own copy with `src` equal to `page`. A frame
//! is replayed as a unit: the bytes its own copies read are gathered from
//! the page first, then its runs are applied in order, so a run may read
//! bytes an earlier run of the same frame overwrote.
//!
//! One page write (`PageStore::install`) is one frame however many runs
//! it changed.
//! [`append_write`] finds them by comparing the before- and after-image a
//! word at a time: a changed stretch is a maximal stretch of changed
//! 8-byte words, cut back at both ends to its first and last changed byte,
//! so two stretches are always more than a [`RUN_HEADER`] of unchanged
//! bytes apart and logging them separately always pays. A stretch is one
//! literal run — unless the write claims ([`MoveClaim`]) that some of its
//! bytes were copied from another page, or from elsewhere on its own.
//! Claimed bytes that still equal their source's bytes before the write —
//! another page's live bytes, or the written page's before-image, which
//! are the bytes replay holds when it reaches the frame — are a copy run
//! instead; claims that continue each other on one source make one run,
//! across the unchanged bytes between two stretches too (a fresh page's
//! records hold words of zeros). A copy run is taken only when the
//! changed bytes it stands for outnumber its header ([`COPY_RUN_HEADER`],
//! or [`OWN_COPY_RUN_HEADER`] on its own page) plus the [`RUN_HEADER`] it
//! may cut a literal run in two with, so it only ever shortens a frame. A
//! one-literal-run payload is 12 bytes plus the run, each further run
//! [`RUN_HEADER`] more — never more than the one span from the first to
//! the last change would take.
//! [`scan`] hands a frame's runs back as consecutive [`WalRecord::Write`]
//! and [`WalRecord::Copy`] records under the frame's LSN.
//!
//! The claims come from the writer, which knows what it moved: a B-tree
//! write records, for each record of the image it builds, the slot of the
//! store's page it came from, and claims the records that moved and the
//! directory entries that shifted. A split's claims on the records it
//! moves onto a fresh page cover most of what a split writes: on the repo
//! benchmark's `dml_mix` workload (seed 1; a count, the same on any
//! machine) the log falls from 4.74 to 2.74 bytes per user byte. The
//! claims on what stayed on a rewritten tree page at another place — slot
//! entries shifted by an insert or a delete, records a compaction or a
//! split's left half re-packed — take it to 1.54.
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

/// Bytes a copy run from another page takes, all of it header: `off u16 |
/// len u16 | src u64 | src_off u16`, with bit 15 of `len` set.
pub const COPY_RUN_HEADER: usize = 2 + 2 + 8 + 2;

/// Bytes a copy run from the written page itself takes, all of it header:
/// `off u16 | len u16 | src_off u16`, with bits 15 and 14 of `len` set.
pub const OWN_COPY_RUN_HEADER: usize = 2 + 2 + 2;

/// The top bit of a run's `len` field: set, the run is a copy run.
const COPY_BIT: u16 = 0x8000;

/// The next bit of a copy run's `len` field: set, the run copies from the
/// written page and names no source page.
const OWN_BIT: u16 = 0x4000;

// Run offsets and lengths are logged as `u16`, and a length leaves the
// two form bits free; a page is whole words; and the word of unchanged
// bytes that parts two runs is longer than the header the second run
// costs, so no two runs are worth logging as one.
const _: () = assert!(PAGE_SIZE < OWN_BIT as usize && PAGE_SIZE % 8 == 0 && RUN_HEADER < 8);

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
    /// One copied run of a page: its `len` bytes at `off` are bytes
    /// `src_off..` of page `src` as they stood before the frame. `src` may
    /// be `page` itself — bytes that moved within the page — so a replay
    /// reads what a frame's runs copy before it writes any of them.
    Copy {
        /// The written page id.
        page: u64,
        /// Byte offset of the run within the page.
        off: u16,
        /// Bytes in the run.
        len: u16,
        /// The page the bytes come from.
        src: u64,
        /// Byte offset of the bytes within `src`.
        src_off: u16,
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
            WalRecord::Write { .. } | WalRecord::Copy { .. } => KIND_WRITE,
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

/// The bytes a copy run of a write frame of `page` takes when it copies
/// from page `src`.
fn copy_run_header(page: u64, src: u64) -> usize {
    if src == page {
        OWN_COPY_RUN_HEADER
    } else {
        COPY_RUN_HEADER
    }
}

/// Appends one copy run of a write payload of `page`: `len` bytes at `at`
/// are bytes `src_at..` of page `src` — in the short form, naming no
/// page, when `src` is `page` itself.
fn push_copy(log: &mut Vec<u8>, page: u64, at: usize, len: usize, src: u64, src_at: usize) {
    assert!(
        at + len <= PAGE_SIZE && src_at + len <= PAGE_SIZE,
        "a copy run lies inside both pages"
    );
    le::push_u16(log, at as u16);
    if src == page {
        le::push_u16(log, len as u16 | COPY_BIT | OWN_BIT);
    } else {
        le::push_u16(log, len as u16 | COPY_BIT);
        le::push_u64(log, src);
    }
    le::push_u16(log, src_at as u16);
}

/// Appends one framed record to `log`, returning the frame's byte length.
/// A [`WalRecord::Write`] or [`WalRecord::Copy`] becomes a one-run write
/// frame — a copy whose `src` is its `page` in the own-page form.
pub fn append_record(log: &mut Vec<u8>, lsn: u64, rec: &WalRecord<'_>) -> usize {
    let start = open_frame(log, rec.kind(), lsn);
    match rec {
        WalRecord::Alloc { page } | WalRecord::Free { page } => le::push_u64(log, *page),
        WalRecord::Write { page, off, bytes } => {
            le::push_u64(log, *page);
            push_run(log, usize::from(*off), bytes);
        }
        WalRecord::Copy {
            page,
            off,
            len,
            src,
            src_off,
        } => {
            le::push_u64(log, *page);
            let (at, src_at) = (usize::from(*off), usize::from(*src_off));
            push_copy(log, *page, at, usize::from(*len), *src, src_at);
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

/// A page writer's claim that the `len` bytes it puts at `dst_off` are
/// bytes `src_off..` of page `src` as it stood before the write: where
/// they were moved from. `src` may be the written page itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveClaim {
    /// The page the bytes were copied from.
    pub src: u64,
    /// Where they start on `src`.
    pub src_off: usize,
    /// Where they start on the written page.
    pub dst_off: usize,
    /// How many bytes were copied.
    pub len: usize,
}

/// What a page write claims it moved: `claims`, ascending and disjoint by
/// `dst_off`, and `source`, which hands out another page's live bytes —
/// `None` for a page a copy run may not name. A claim on the written page
/// itself is checked against the write's before-image instead.
/// [`append_write`] trusts neither: a claim whose bytes do not match is
/// logged literally.
pub struct Moves<'a> {
    /// The claimed moves.
    pub claims: &'a [MoveClaim],
    /// The live bytes of a claim's source page, other than the written one.
    pub source: &'a dyn Fn(u64) -> Option<&'a [u8]>,
}

/// Verified claimed bytes not yet logged: `at..end` of the written page
/// are bytes `src_at..` of page `src`; `covered` of them are changed bytes
/// — what logging them literally would take. Unchanged bytes between two
/// changed stretches may lie inside.
struct Copied {
    at: usize,
    end: usize,
    src: u64,
    src_at: usize,
    covered: usize,
}

impl Copied {
    /// Whether the copy run shortens a frame of `page`: the changed bytes
    /// it stands for outweigh its header and the literal run header it
    /// may cut a changed stretch in two with.
    fn pays(&self, page: u64) -> bool {
        self.covered > copy_run_header(page, self.src) + RUN_HEADER
    }
}

/// The runs of one write frame as [`append_write`] lays them, stretch by
/// stretch.
struct Runs {
    /// The written page.
    page: u64,
    /// Every changed byte below this is logged, or is inside `pending`.
    logged: usize,
    /// Verified claimed bytes not yet logged.
    pending: Option<Copied>,
    /// The first claim that may reach into the current stretch or a later
    /// one.
    next: usize,
}

impl Runs {
    /// Logs the pending copy, if it pays, after the literal bytes from
    /// `logged` up to it; one that does not pay is left to the literal
    /// bytes.
    fn flush(&mut self, log: &mut Vec<u8>, after: &[u8]) {
        let Some(p) = self.pending.take().filter(|p| p.pays(self.page)) else {
            return;
        };
        if self.logged < p.at {
            push_run(log, self.logged, &after[self.logged..p.at]);
        }
        push_copy(log, self.page, p.at, p.end - p.at, p.src, p.src_at);
        self.logged = self.logged.max(p.end);
    }
}

/// Where on its source the bytes `part` of `after` that claim `c` covers
/// start, if they are there: the source's bytes at the spot as they stood
/// before the write — `before`, when `c` names the written page itself —
/// equal them.
fn verify(
    c: &MoveClaim,
    part: std::ops::Range<usize>,
    page: u64,
    (before, after): (&[u8], &[u8]),
    moves: &Moves<'_>,
) -> Option<usize> {
    let src_at = c.src_off.checked_add(part.start - c.dst_off)?;
    let src_end = src_at.checked_add(part.len()).filter(|&e| e <= PAGE_SIZE)?;
    let source = match c.src == page {
        true => before,
        false => (moves.source)(c.src)?,
    };
    (source.get(src_at..src_end)? == &after[part]).then_some(src_at)
}

/// Appends the runs of the changed stretch `stretch` of `after`, the image
/// of `runs.page` that was `before`. The parts the claims cover whose
/// bytes equal their source's bytes before the write — what replay holds
/// when it reaches this frame — are copy runs, verified parts that
/// continue each other on one source one run (across the unchanged bytes
/// between two stretches too, which the claim verified with them), when
/// the run pays; the rest are literal runs. A paying copy that reaches the
/// stretch's end is held, to go on in the next stretch.
fn push_stretch(
    log: &mut Vec<u8>,
    (before, after): (&[u8], &[u8]),
    stretch: std::ops::Range<usize>,
    moves: &Moves<'_>,
    runs: &mut Runs,
) {
    runs.logged = runs.logged.max(stretch.start);
    while let Some(c) = moves.claims.get(runs.next) {
        if c.dst_off >= stretch.end {
            break;
        }
        let claim_end = c.dst_off.saturating_add(c.len);
        let floor = runs.pending.as_ref().map_or(runs.logged, |p| p.end);
        // The claim's part not yet logged or pending, up to the stretch end.
        let (at, end) = (c.dst_off.max(floor), claim_end.min(stretch.end));
        let covered = end.saturating_sub(at.max(stretch.start));
        if at < end {
            let verified = verify(c, at..end, runs.page, (before, after), moves);
            match (verified, &mut runs.pending) {
                (Some(src_at), Some(p))
                    if p.end == at && p.src == c.src && p.src_at + (at - p.at) == src_at =>
                {
                    p.end = end;
                    p.covered += covered;
                }
                (verified, _) => {
                    runs.flush(log, after);
                    runs.pending = verified.map(|src_at| Copied {
                        at,
                        end,
                        src: c.src,
                        src_at,
                        covered,
                    });
                }
            }
        }
        if claim_end > stretch.end {
            break; // the claim reaches on into the next stretch
        }
        runs.next += 1;
    }
    match &runs.pending {
        Some(p) if p.end == stretch.end && p.pays(runs.page) => {
            if runs.logged < p.at {
                push_run(log, runs.logged, &after[runs.logged..p.at]);
            }
        }
        _ => {
            runs.flush(log, after);
            if runs.logged < stretch.end {
                push_run(log, runs.logged, &after[runs.logged..stretch.end]);
            }
        }
    }
    runs.logged = stretch.end;
}

/// Appends the write frame that turns page image `before` into `after`:
/// the changed byte runs, copied straight from `after` — or, where
/// `moves` claims them and the claim holds, named as a copy of bytes of
/// another page or of `before`. Returns the frame's byte length, or 0 —
/// and leaves `log` and `sum` alone — when the images are identical. The
/// frame is a pure function of the two images, the claims and their
/// sources' bytes.
///
/// A stretch is a maximal stretch of changed 8-byte words, cut back at
/// both ends to its first and last changed byte, so finding them is one
/// scan alternating between the next changed and the next unchanged word:
/// a page with one changed row and a wholly rewritten page both cost about
/// one pass of word compares. Two stretches are at least a word of
/// unchanged bytes apart, more than the [`RUN_HEADER`] the second one
/// costs, so splitting there always pays. With no claims, each stretch is
/// one literal run; a claimed part of one is logged as a copy run only
/// when its bytes equal the source's before the write — another page's
/// live bytes, or `before` for the written page — and the run shortens
/// the frame (see `push_stretch`), so a wrong claim costs bytes, never a
/// wrong page.
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
    moves: &Moves<'_>,
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
    let mut runs = Runs {
        page,
        logged: 0,
        pending: None,
        next: 0,
    };
    while first < WORDS {
        let past = find_word::<false>(&diff, first + 1);
        let from = first * 8 + (diff(first).trailing_zeros() / 8) as usize;
        let to = past * 8 - (diff(past - 1).leading_zeros() / 8) as usize;
        push_stretch(log, (before, after), from..to, moves, &mut runs);
        let blocks = (first / BLOCK).max(restamped)..past.div_ceil(BLOCK);
        let bytes = blocks.start * BLOCK_BYTES..blocks.end * BLOCK_BYTES;
        let new = terms(&after[bytes.clone()], blocks.start);
        let old = terms(&before[bytes], blocks.start);
        *sum = sum.wrapping_add(new).wrapping_sub(old);
        restamped = blocks.end;
        first = find_word::<true>(&diff, past);
    }
    runs.flush(log, after);
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

/// Decodes a write payload into one [`WalRecord::Write`] or
/// [`WalRecord::Copy`] per run; `None` (with `out` possibly grown) unless
/// it is a page id followed by one or more ascending, non-overlapping,
/// non-empty, in-page runs that fill the payload exactly, no copy run
/// reaching past its source's end and none in the long form naming the
/// page itself (that is the short form's).
fn decode_runs<'a>(payload: &'a [u8], lsn: u64, out: &mut Vec<(u64, WalRecord<'a>)>) -> Option<()> {
    let mut table = payload.get(8..).filter(|t| !t.is_empty())?;
    let page = le::u64_at(payload, 0);
    let mut floor = 0; // the page offset the next run may not start before
    while !table.is_empty() {
        if table.len() < RUN_HEADER {
            return None;
        }
        let (off, field) = (le::u16_at(table, 0), le::u16_at(table, 2));
        let len = usize::from(field & !(COPY_BIT | OWN_BIT));
        let (start, end) = (usize::from(off), usize::from(off) + len);
        if len == 0 || start < floor || end > PAGE_SIZE {
            return None;
        }
        let used = match (field & COPY_BIT != 0, field & OWN_BIT != 0) {
            (false, false) => {
                let bytes = table.get(RUN_HEADER..RUN_HEADER + len)?;
                out.push((lsn, WalRecord::Write { page, off, bytes }));
                RUN_HEADER + len
            }
            // A literal run's length never reaches the own-page bit.
            (false, true) => return None,
            (true, own) => {
                let header = if own {
                    OWN_COPY_RUN_HEADER
                } else {
                    COPY_RUN_HEADER
                };
                let run = table.get(..header)?;
                // `src_off` closes either form; only the long one names `src`.
                let (src, src_off) = (
                    if own { page } else { le::u64_at(run, 4) },
                    le::u16_at(run, header - 2),
                );
                if (!own && src == page) || usize::from(src_off) + len > PAGE_SIZE {
                    return None;
                }
                let len = len as u16;
                out.push((
                    lsn,
                    WalRecord::Copy {
                        page,
                        off,
                        len,
                        src,
                        src_off,
                    },
                ));
                header
            }
        };
        floor = end;
        table = &table[used..];
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A write that claims nothing.
    const NO_MOVES: Moves<'static> = Moves {
        claims: &[],
        source: &|_| None,
    };

    /// The copy run of the sample log: 40 bytes at 100 of page 1 are bytes
    /// 16.. of page 0.
    const SAMPLE_COPY: WalRecord<'static> = WalRecord::Copy {
        page: 1,
        off: 100,
        len: 40,
        src: 0,
        src_off: 16,
    };

    /// The own-page copy run of the sample log: 40 bytes at 300 of page 1
    /// are bytes 120.. of page 1 as it stood before the frame — a stretch
    /// overlapping the one written.
    const SAMPLE_OWN_COPY: WalRecord<'static> = WalRecord::Copy {
        page: 1,
        off: 300,
        len: 40,
        src: 1,
        src_off: 290,
    };

    /// Alloc, literal write, copy, own-page copy and free frames (LSNs 1
    /// to 5), then a commit; returns the log and where the commit starts.
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
        append_record(&mut log, 3, &SAMPLE_COPY);
        append_record(&mut log, 4, &SAMPLE_OWN_COPY);
        append_record(&mut log, 5, &WalRecord::Free { page: 0 });
        let commit_at = log.len();
        append_record(&mut log, 6, &WalRecord::Commit { catalog: b"cat" });
        (log, commit_at)
    }

    #[test]
    fn round_trips_every_kind() {
        let (log, _) = sample_log();
        let recs = scan_strict(&log).unwrap();
        assert_eq!(recs.len(), 6);
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
        assert_eq!(recs[2], (3, SAMPLE_COPY));
        assert_eq!(recs[3], (4, SAMPLE_OWN_COPY));
        assert_eq!(recs[4], (5, WalRecord::Free { page: 0 }));
        assert_eq!(recs[5], (6, WalRecord::Commit { catalog: b"cat" }));
        // The own-page run takes the short form: the frame names no source
        // page.
        let own = append_record(&mut Vec::new(), 4, &SAMPLE_OWN_COPY);
        let other = append_record(&mut Vec::new(), 3, &SAMPLE_COPY);
        assert_eq!(
            (own, other),
            (
                FRAME_OVERHEAD + 8 + OWN_COPY_RUN_HEADER,
                FRAME_OVERHEAD + 8 + COPY_RUN_HEADER
            )
        );
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_whole_record() {
        let (log, commit_at) = sample_log();
        // Cut mid-way through the commit frame.
        let torn = &log[..commit_at + 5];
        let s = scan(torn);
        assert_eq!(s.records.len(), 5);
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
    /// id, run table or the stored check — never decodes, and neither does
    /// any proper prefix of it (a torn write). Once for a one-run frame as
    /// [`append_record`] builds it, once for a three-run frame, once for a
    /// frame of literal runs around a copy run, and once for a literal run
    /// before an own-page copy run.
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
        append_write(&mut three_runs, 9, 3, &before, &after, &mut 0, &NO_MOVES);
        let source = seeded(PAGE_SIZE, 5);
        let mut after = edited(&before, &[(2000, 10), (2500, 10)]);
        after[2010..2500].copy_from_slice(&source[300..790]);
        let claims = [claim(5, 300, 2010, 490)];
        let mut copied = Vec::new();
        with_moves(&claims, &source, |moves| {
            append_write(&mut copied, 9, 3, &before, &after, &mut 0, moves)
        });
        let kinds = |frame: &[u8]| {
            let recs = scan_strict(frame).unwrap();
            recs.iter()
                .map(|(_, r)| matches!(r, WalRecord::Copy { .. }))
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(&copied), [false, true, false]);
        let mut after = edited(&before, &[(2000, 10)]);
        after[3000..3300].copy_from_slice(&before[3100..3400]);
        let mut own = Vec::new();
        with_moves(&[claim(3, 3100, 3000, 300)], &source, |moves| {
            append_write(&mut own, 9, 3, &before, &after, &mut 0, moves)
        });
        assert_eq!(kinds(&own), [false, true]);
        for (mut frame, runs) in [(one_run, 1), (three_runs, 3), (copied, 3), (own, 2)] {
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
        let (log, cut) = sample_log(); // LSNs 1..=5, then the commit at `cut`
        let mut spliced = log[..cut].to_vec();
        for lsn in [2, 3, 4, 5] {
            append_record(&mut spliced, lsn, &WalRecord::Free { page: lsn });
        }
        let s = scan(&spliced);
        assert_eq!(s.records, scan_strict(&log).unwrap()[..5]);
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

    /// Deterministic filler that differs from [`filler`] and from every
    /// other `seed`'s.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut page = filler(len);
        for (i, b) in page.iter_mut().enumerate() {
            *b ^= (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> (i % 7 * 8)) as u8 | 1;
        }
        page
    }

    fn claim(src: u64, src_off: usize, dst_off: usize, len: usize) -> MoveClaim {
        MoveClaim {
            src,
            src_off,
            dst_off,
            len,
        }
    }

    /// `f` of `claims` over one source page: `source` is the live image of
    /// every page id but 7, a page a copy run may not name — 3, the page
    /// these tests write, included, which `append_write` must not consult:
    /// a claim on the written page is checked against its before-image.
    fn with_moves<R>(claims: &[MoveClaim], source: &[u8], f: impl FnOnce(&Moves<'_>) -> R) -> R {
        let lookup = |src: u64| (src != 7).then_some(source);
        f(&Moves {
            claims,
            source: &lookup,
        })
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
        let frame_len = append_write(&mut log, 7, 3, before, after, &mut sum, &NO_MOVES);
        assert_eq!(sum, block_sum(after), "the restamp is a full recompute");
        let mut off_sum = block_sum(before).wrapping_add(0x51);
        append_write(
            &mut Vec::new(),
            7,
            3,
            before,
            after,
            &mut off_sum,
            &NO_MOVES,
        );
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
        append_write(
            &mut log,
            1,
            0,
            &vec![0u8; PAGE_SIZE],
            &after,
            &mut 0,
            &NO_MOVES,
        );
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
        let copy = |off: u16, len: u16, src: u64, src_off: u16| {
            let mut t = Vec::new();
            le::push_u16(&mut t, off);
            le::push_u16(&mut t, len | COPY_BIT);
            le::push_u64(&mut t, src);
            le::push_u16(&mut t, src_off);
            t
        };
        let own = |off: u16, len: u16, src_off: u16| {
            let mut t = Vec::new();
            le::push_u16(&mut t, off);
            le::push_u16(&mut t, len | COPY_BIT | OWN_BIT);
            le::push_u16(&mut t, src_off);
            t
        };
        let page_end = PAGE_SIZE as u16;
        let good = [
            run(10, 2, b"ab"),
            run(12, 1, b"c"),
            copy(13, 20, 1, page_end - 20),
            own(40, 30, 20),
            run(page_end - 1, 1, b"z"),
        ]
        .concat();
        assert_eq!(scan_strict(&frame_of(&good)).unwrap().len(), 6);
        let bad: [(&str, Vec<u8>); 21] = [
            ("empty own copy run", own(100, 0, 8)),
            ("own copy past its page's end", own(100, 20, page_end - 19)),
            ("truncated own copy run", own(100, 20, 8)[..5].to_vec()),
            (
                "own copy overlapping the run before it",
                [run(10, 4, b"abcd"), own(13, 20, 100)].concat(),
            ),
            (
                "literal run with the own-page bit",
                run(10, 2 | OWN_BIT, b"ab"),
            ),
            ("copy naming its own page", copy(100, 20, 0, 8)),
            (
                "copy past its source's end",
                copy(100, 20, 1, page_end - 19),
            ),
            ("empty copy run", copy(100, 0, 1, 8)),
            (
                "copy overlapping the run before it",
                [run(10, 4, b"abcd"), copy(13, 20, 1, 8)].concat(),
            ),
            (
                "run overlapping the copy before it",
                [copy(10, 20, 1, 8), run(29, 2, b"ab")].concat(),
            ),
            ("copy past the page end", copy(page_end - 19, 20, 1, 8)),
            ("truncated copy run", copy(100, 20, 1, 8)[..11].to_vec()),
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

    /// Logs `before` → `after` of page 3 with `claims` over `source` and
    /// checks what a claimed frame promises: the restamped sum is the one
    /// without claims; the frame scans whole and replays onto `before` —
    /// a copy run from page 3 reading `before`, whatever the frame's
    /// earlier runs wrote, any other from `source` — to `after`; no copy
    /// run names page 7, and each is longer than its header
    /// ([`OWN_COPY_RUN_HEADER`] or [`COPY_RUN_HEADER`]) plus
    /// [`RUN_HEADER`]; and the frame is no longer than the one without
    /// claims. Returns the copy runs and the bytes they cover.
    fn check_claimed_frame(
        before: &[u8],
        after: &[u8],
        source: &[u8],
        claims: &[MoveClaim],
    ) -> (usize, usize) {
        let (mut plain, mut plain_sum) = (Vec::new(), block_sum(before));
        let plain_len = append_write(&mut plain, 7, 3, before, after, &mut plain_sum, &NO_MOVES);
        let (mut log, mut sum) = (Vec::new(), block_sum(before));
        let frame_len = with_moves(claims, source, |moves| {
            append_write(&mut log, 7, 3, before, after, &mut sum, moves)
        });
        assert_eq!(sum, plain_sum, "claims do not touch the restamp");
        assert_eq!(frame_len, log.len());
        assert!(
            frame_len <= plain_len,
            "claims lengthened the frame: {frame_len} > {plain_len}"
        );
        let mut replayed = before.to_vec();
        let (mut runs, mut copied) = (0, 0);
        for (lsn, rec) in scan_strict(&log).unwrap() {
            assert_eq!(lsn, 7);
            match rec {
                WalRecord::Write {
                    page: 3,
                    off,
                    bytes,
                } => replayed[usize::from(off)..][..bytes.len()].copy_from_slice(bytes),
                WalRecord::Copy {
                    page: 3,
                    off,
                    len,
                    src,
                    src_off,
                } => {
                    assert!(src != 7, "a copy run names page {src}");
                    let (at, from, len) =
                        (usize::from(off), usize::from(src_off), usize::from(len));
                    let (bytes, header) = match src {
                        3 => (before, OWN_COPY_RUN_HEADER),
                        _ => (source, COPY_RUN_HEADER),
                    };
                    assert!(
                        len > header + RUN_HEADER,
                        "a {len}-byte copy run from {src}"
                    );
                    replayed[at..at + len].copy_from_slice(&bytes[from..from + len]);
                    (runs, copied) = (runs + 1, copied + len);
                }
                other => panic!("a write frame holds runs of its page, got {other:?}"),
            }
        }
        assert_eq!(replayed, after);
        (runs, copied)
    }

    /// Claimed bytes become a copy run where the claim holds, and stay
    /// literal where it does not: wrong source bytes — on another page or
    /// on the written page before the write — a page without a source,
    /// bytes changed after the copy, or too short a run. Adjacent claims of
    /// adjacent source bytes make one run. On its own page a run pays from
    /// a shorter length.
    #[test]
    fn claimed_bytes_become_copy_runs_only_where_the_claim_holds() {
        let (before, source) = (filler(PAGE_SIZE), seeded(PAGE_SIZE, 5));
        let mut after = before.clone();
        after[1000..1500].copy_from_slice(&source[200..700]);
        after[990..1000].fill(0xEE);
        let check = |after: &[u8], claims: &[MoveClaim]| {
            check_claimed_frame(&before, after, &source, claims)
        };
        assert_eq!(check(&after, &[claim(5, 200, 1000, 500)]), (1, 500));
        let halves = [claim(5, 200, 1000, 250), claim(5, 450, 1250, 250)];
        assert_eq!(check(&after, &halves), (1, 500), "one run of both halves");
        let fifths: Vec<_> = (0..5)
            .map(|i| claim(5, 200 + i * 100, 1000 + i * 100, 100))
            .collect();
        assert_eq!(check(&after, &fifths), (1, 500));
        for wrong in [
            claim(5, 201, 1000, 500),
            claim(3, 200, 1000, 500),
            claim(7, 200, 1000, 500),
            claim(5, PAGE_SIZE - 100, 1000, 500),
            claim(5, usize::MAX - 10, 1000, 500),
        ] {
            assert_eq!(check(&after, &[wrong]), (0, 0), "{wrong:?}");
        }
        // Bytes changed after the copy break the one claim over them, and
        // only that one.
        let mut edited = after.clone();
        edited[1210] ^= 0xFF;
        assert_eq!(check(&edited, &[claim(5, 200, 1000, 500)]), (0, 0));
        assert_eq!(check(&edited, &fifths), (2, 400));
        // A run must beat the literal headers it costs.
        let limit = COPY_RUN_HEADER + RUN_HEADER;
        assert_eq!(check(&after, &[claim(5, 300, 1100, limit)]), (0, 0));
        assert_eq!(
            check(&after, &[claim(5, 300, 1100, limit + 1)]),
            (1, limit + 1)
        );
        // Nothing changed, nothing logged, claims or not.
        assert_eq!(check(&before, &[claim(5, 0, 0, 500)]), (0, 0));
        // Bytes moved within the page, their source overlapping where they
        // land: a claim on page 3 is read off `before`.
        let mut moved = before.clone();
        moved.copy_within(3000..3400, 3100);
        assert_eq!(check(&moved, &[claim(3, 3000, 3100, 400)]), (1, 400));
        assert_eq!(check(&moved, &[claim(3, 3001, 3100, 400)]), (0, 0));
        assert_eq!(check(&moved, &[claim(5, 3000, 3100, 400)]), (0, 0));
        let limit = OWN_COPY_RUN_HEADER + RUN_HEADER;
        assert_eq!(check(&moved, &[claim(3, 3200, 3300, limit)]), (0, 0));
        assert_eq!(
            check(&moved, &[claim(3, 3200, 3300, limit + 1)]),
            (1, limit + 1)
        );
        // Onto a zero page, the copied words of zeros part the changed
        // stretches; one run spans them, and stops where a claim breaks.
        let zeros = vec![0u8; PAGE_SIZE];
        let mut gappy = source.clone();
        gappy[408..432].fill(0);
        gappy[600..640].fill(0);
        let mut fresh = zeros.clone();
        fresh[1000..1500].copy_from_slice(&gappy[200..700]);
        fresh[1000] = 1;
        fresh[1499] = 1;
        gappy[200] = 1;
        gappy[699] = 1;
        let whole = check_claimed_frame(&zeros, &fresh, &gappy, &fifths);
        assert_eq!(whole, (1, 500));
        // Byte 1250 breaks the third claim (1200..1300) only past the zeros
        // at 1208..1232: its part before them holds.
        fresh[1250] ^= 0xFF;
        let broken = check_claimed_frame(&zeros, &fresh, &gappy, &fifths);
        assert_eq!(broken, (2, 408));
    }

    proptest::proptest! {
        /// Random claimed writes through [`check_claimed_frame`]: stretches
        /// copied from a source page or from elsewhere on the written page
        /// as it was (a source that may overlap where the bytes land, or
        /// what an earlier copy wrote) over a zero or a filled page, each
        /// claimed rightly or with a shifted source offset, the wrong page
        /// or a page without a source; later copies and edits overwrite
        /// parts of earlier ones.
        #[test]
        fn claimed_frames_replay_to_the_written_page(
            zero_page in proptest::prelude::any::<bool>(),
            copies in proptest::collection::vec(
                (0usize..PAGE_SIZE, 0usize..PAGE_SIZE, 1usize..600, 0u8..9),
                0..8,
            ),
            edits in proptest::collection::vec((0usize..PAGE_SIZE, 1usize..24), 0..6),
        ) {
            let before = if zero_page { vec![0u8; PAGE_SIZE] } else { filler(PAGE_SIZE) };
            // Words of zeros part the changed stretches of a copy onto a
            // zero page.
            let mut source = seeded(PAGE_SIZE, 9);
            for w in (0..WORDS).step_by(7) {
                source[w * 8..w * 8 + 8].fill(0);
            }
            let mut after = before.clone();
            let mut claims = Vec::new();
            for (dst_off, src_off, len, how) in copies {
                let len = len.min(PAGE_SIZE - dst_off).min(PAGE_SIZE - src_off);
                // Copies 6..=8 move bytes of the written page as it was.
                let from = if how < 6 { &source } else { &before };
                after[dst_off..dst_off + len].copy_from_slice(&from[src_off..src_off + len]);
                claims.push(match how {
                    0..=2 => claim(5, src_off, dst_off, len),
                    3 => claim(5, src_off + 1, dst_off, len),
                    4 => claim(3, src_off, dst_off, len),
                    5 => claim(7, src_off, dst_off, len),
                    6 | 7 => claim(3, src_off, dst_off, len),
                    _ => claim(3, src_off + 1, dst_off, len),
                });
            }
            for (at, len) in edits {
                after[at..(at + len).min(PAGE_SIZE)].iter_mut().for_each(|b| *b ^= 0x3C);
            }
            claims.sort_by_key(|c| c.dst_off);
            check_claimed_frame(&before, &after, &source, &claims);
        }

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
