//! Write-ahead log: checksummed, LSN-stamped physiological records.
//!
//! Every mutation of a [`crate::store::PageStore`] — page allocation (fresh
//! or reused from the free list), page free, and page write — appends one
//! record here *before* the in-memory "disk" state is considered durable.
//! Page writes are **physiological**: the record carries the page id plus
//! the minimal contiguous byte range that changed, not the whole 8 KiB
//! image, so a B-tree slot update logs tens of bytes and a blob-chunk
//! rewrite logs only the chunk payload.
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
//! lsn    u64  LE, strictly increasing from 1
//! len    u32  LE, payload byte count
//! payload     (kind-specific, see below)
//! check  u32  LE, checksum32 over magic..payload
//! ```
//!
//! [`checksum32`] reads its input as little-endian 8-byte words and runs
//! four interleaved lanes (word `i` goes to lane `i % 4`, so one 32-byte
//! stride feeds each lane once); the lanes and the byte length are folded
//! into 32 bits at the end. The same function stamps every store page.
//!
//! Payloads: `alloc`/`free` are `page u64`; `write` is
//! `page u64 | off u32 | bytes…` (the changed range, `off` relative to the
//! page start); `commit` is the opaque catalog image.
//!
//! Because every store mutation happens on `&mut PageStore` (parallel scans
//! only read), the byte stream of the log is a pure function of the logical
//! operation sequence — identical at any DOP. That is what lets the
//! crash-matrix tests enumerate injection points once and assert the count
//! is the same at DOP 1/2/4/8.

use crate::errors::{Result, StorageError};
use sqlarray_core::le;

/// First byte of every WAL frame.
pub const WAL_MAGIC: u8 = 0xA7;

/// Fixed framing overhead per record: magic + kind + lsn + len + check.
pub const FRAME_OVERHEAD: usize = 1 + 1 + 8 + 4 + 4;

const KIND_ALLOC: u8 = 1;
const KIND_FREE: u8 = 2;
const KIND_WRITE: u8 = 3;
const KIND_COMMIT: u8 = 4;

/// Seeds of the four checksum lanes (distinct, so equal words in
/// different lanes contribute differently).
const LANE_SEEDS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xD6E8_FEB8_6659_FD93,
];

/// One checksum step: absorbs `word` into `h`. A bijection of either
/// argument with the other fixed (xor, odd multiply and xor-shift all
/// are), so a changed word always changes the 64-bit state.
#[inline(always)]
fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(0x2545_F491_4F6C_DD1D);
    h ^ (h >> 29)
}

/// A fast non-cryptographic 32-bit checksum. Used both for WAL frame
/// integrity and for the store's per-page checksums verified on cold
/// reads — cheap enough to run on every pool miss.
///
/// The input is read as little-endian 8-byte words (the last one
/// zero-padded) and word `i` is absorbed by lane `i % 4`, so a 32-byte
/// stride advances four independent chains and the multiplies pipeline
/// instead of waiting on each other. The lane states are then absorbed,
/// in order, into a state seeded with the byte length, folded to 32 bits.
pub fn checksum32(bytes: &[u8]) -> u32 {
    let mut lanes = LANE_SEEDS;
    let mut absorb = |stride: &[u8]| {
        for (lane, bytes) in lanes.iter_mut().zip(stride.chunks(8)) {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            *lane = mix(*lane, u64::from_le_bytes(word));
        }
    };
    let mut strides = bytes.chunks_exact(32);
    strides.by_ref().for_each(&mut absorb);
    absorb(strides.remainder());
    let h = lanes
        .iter()
        .fold(LANE_SEEDS[0] ^ bytes.len() as u64, |h, &lane| mix(h, lane));
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
    /// A contiguous byte range of a page changed.
    Write {
        /// The written page id.
        page: u64,
        /// Byte offset of the changed range within the page.
        off: u32,
        /// The new bytes of the changed range.
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

    fn payload_len(&self) -> usize {
        match self {
            WalRecord::Alloc { .. } | WalRecord::Free { .. } => 8,
            WalRecord::Write { bytes, .. } => 12 + bytes.len(),
            WalRecord::Commit { catalog } => catalog.len(),
        }
    }
}

/// Appends one framed record to `log`, returning the frame's byte length.
pub fn append_record(log: &mut Vec<u8>, lsn: u64, rec: &WalRecord<'_>) -> usize {
    let start = log.len();
    log.push(WAL_MAGIC);
    log.push(rec.kind());
    le::push_u64(log, lsn);
    le::push_u32(log, rec.payload_len() as u32);
    match rec {
        WalRecord::Alloc { page } | WalRecord::Free { page } => le::push_u64(log, *page),
        WalRecord::Write { page, off, bytes } => {
            le::push_u64(log, *page);
            le::push_u32(log, *off);
            log.extend_from_slice(bytes);
        }
        WalRecord::Commit { catalog } => log.extend_from_slice(catalog),
    }
    let check = checksum32(&log[start..]);
    le::push_u32(log, check);
    log.len() - start
}

/// The result of walking a (possibly torn) log buffer.
#[derive(Debug)]
pub struct WalScan<'a> {
    /// Complete, checksum-verified records in log order, with their LSNs.
    pub records: Vec<(u64, WalRecord<'a>)>,
    /// Frame-end byte offset of each record in `records` — `ends[i]` is
    /// where record `i + 1` starts, which recovery uses to report how many
    /// trailing bytes it discarded past the last complete commit.
    pub ends: Vec<usize>,
    /// Byte length of the clean prefix (everything before the tear).
    pub clean_len: usize,
    /// Byte offset of the torn/corrupt tail, if the buffer did not end
    /// exactly on a record boundary.
    pub tear: Option<usize>,
}

/// Walks `buf` from the front, decoding records until the buffer ends or a
/// frame fails to verify (short frame, bad magic, checksum mismatch). A
/// failing frame is reported as a tear, never an error — a torn tail is
/// the *expected* state after a crash.
pub fn scan(buf: &[u8]) -> WalScan<'_> {
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut off = 0usize;
    while off < buf.len() {
        match decode_frame(buf, off) {
            Some((lsn, rec, next)) => {
                records.push((lsn, rec));
                ends.push(next);
                off = next;
            }
            None => {
                return WalScan {
                    records,
                    ends,
                    clean_len: off,
                    tear: Some(off),
                }
            }
        }
    }
    WalScan {
        records,
        ends,
        clean_len: off,
        tear: None,
    }
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

/// Decodes the frame starting at `off`; `None` if it is incomplete,
/// has a bad magic/kind, or fails its checksum.
fn decode_frame(buf: &[u8], off: usize) -> Option<(u64, WalRecord<'_>, usize)> {
    let header_end = off.checked_add(14)?;
    if header_end > buf.len() {
        return None;
    }
    if buf[off] != WAL_MAGIC {
        return None;
    }
    let kind = buf[off + 1];
    let lsn = le::u64_at(buf, off + 2);
    let payload_len = le::u32_at(buf, off + 10) as usize;
    let payload_end = header_end.checked_add(payload_len)?;
    let frame_end = payload_end.checked_add(4)?;
    if frame_end > buf.len() {
        return None;
    }
    let stored = le::u32_at(buf, payload_end);
    if checksum32(&buf[off..payload_end]) != stored {
        return None;
    }
    let payload = &buf[header_end..payload_end];
    let rec = match kind {
        KIND_ALLOC if payload_len == 8 => WalRecord::Alloc {
            page: le::u64_at(payload, 0),
        },
        KIND_FREE if payload_len == 8 => WalRecord::Free {
            page: le::u64_at(payload, 0),
        },
        KIND_WRITE if payload_len >= 12 => WalRecord::Write {
            page: le::u64_at(payload, 0),
            off: le::u32_at(payload, 8),
            bytes: &payload[12..],
        },
        KIND_COMMIT => WalRecord::Commit { catalog: payload },
        _ => return None,
    };
    Some((lsn, rec, frame_end))
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

    /// Every single-bit flip of `buf` must change its checksum.
    fn assert_every_bit_flip_is_seen(buf: &mut [u8]) {
        let clean = checksum32(buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum32(buf), clean, "bit {bit} of {} bytes", buf.len());
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn every_bit_of_a_page_is_covered() {
        assert_every_bit_flip_is_seen(&mut filler(crate::page::PAGE_SIZE));
        assert_every_bit_flip_is_seen(&mut vec![0u8; crate::page::PAGE_SIZE]);
    }

    /// Lengths around the 8-byte word and 32-byte stride boundaries: the
    /// tail words land in the right lanes, the padding is not confused
    /// with data, and the length itself is part of the sum.
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

    /// Words in the same lane and in different lanes alike: the sum
    /// depends on where a word sits, not just on which words are present.
    #[test]
    fn swapping_any_two_words_changes_the_sum() {
        let mut buf = filler(64 * 8 + 5);
        let clean = checksum32(&buf);
        for a in 0..64 {
            for b in a + 1..64 {
                for k in 0..8 {
                    buf.swap(a * 8 + k, b * 8 + k);
                }
                assert_ne!(checksum32(&buf), clean, "words {a} and {b}");
                for k in 0..8 {
                    buf.swap(a * 8 + k, b * 8 + k);
                }
            }
        }
    }

    /// A frame with any one bit flipped — magic, kind, LSN, length,
    /// payload or the stored check — never decodes, and neither does any
    /// proper prefix of it (a torn write).
    #[test]
    fn damaged_or_torn_frames_never_decode() {
        let payload = filler(100);
        let mut frame = Vec::new();
        append_record(
            &mut frame,
            9,
            &WalRecord::Write {
                page: 3,
                off: 40,
                bytes: &payload,
            },
        );
        assert_eq!(scan_strict(&frame).unwrap().len(), 1);
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
