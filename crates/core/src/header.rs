//! The binary blob header.
//!
//! "The arrays are stored as plain binary blobs decorated with a very simple
//! header. In case of short arrays the header is 24 bytes long. We have
//! flags to identify the type (short or max) and the underlying data type of
//! the array [...] The number of dimensions, the number of all elements and
//! the sizes of the dimensions (up to six in case of short arrays or any
//! number in case of max arrays) are also stored in the header. Because max
//! arrays support any number of dimensions the header size may vary." (§3.5)
//!
//! Concrete layout (little-endian):
//!
//! ```text
//! short (24 bytes):                    max (16 + 4*rank bytes):
//!   0  u8   flags (bit0 = 0)            0  u8   flags (bit0 = 1)
//!   1  u8   element type code           1  u8   element type code
//!   2  u8   rank (1..=6)                2  u8   reserved (0)
//!   3  u8   reserved (0)                3  u8   reserved (0)
//!   4  u64  element count               4  u32  rank (>= 1)
//!  12  i16  dims[0..6] (unused = 0)     8  u64  element count
//!                                      16  i32  dims[0..rank]
//! ```
//!
//! Short arrays index with `i16` and are capped at 6 dimensions; max arrays
//! index with `i32` with unbounded rank (§3.3).

use crate::element::ElementType;
use crate::errors::{ArrayError, Result};
use crate::shape::Shape;

/// Whether the blob is stored in-page (short) or out-of-page (max).
///
/// Analogous to `VARBINARY(8000)` vs `VARBINARY(MAX)` column types; the
/// storage engine places short blobs inside the row and max blobs in a
/// separate LOB B-tree (see `sqlarray-storage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageClass {
    /// On-page array: ≤ [`SHORT_MAX_BYTES`] total, rank ≤ `SHORT_MAX_RANK`,
    /// dimensions fit `i16`.
    Short,
    /// Out-of-page array: unlimited rank, dimensions fit `i32`, streamed
    /// through the LOB interface with partial-read support.
    Max,
}

impl StorageClass {
    /// Byte length of the header for an array of the given rank.
    pub(crate) const fn header_len(self, rank: usize) -> usize {
        match self {
            StorageClass::Short => SHORT_HEADER_LEN,
            StorageClass::Max => MAX_FIXED_HEADER_LEN + 4 * rank,
        }
    }
}

impl std::fmt::Display for StorageClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StorageClass::Short => "short",
            StorageClass::Max => "max",
        })
    }
}

/// Fixed header size of short arrays (bytes).
pub(crate) const SHORT_HEADER_LEN: usize = 24;
/// Fixed (rank-independent) part of the max-array header (bytes).
pub(crate) const MAX_FIXED_HEADER_LEN: usize = 16;
/// Maximum rank of a short array.
pub(crate) const SHORT_MAX_RANK: usize = 6;
/// Maximum total blob size (header + payload) of a short array: the
/// `VARBINARY(8000)` in-page budget.
pub const SHORT_MAX_BYTES: usize = 8000;
/// Largest dimension size representable by the short index type (`i16`).
pub(crate) const SHORT_MAX_DIM: usize = i16::MAX as usize;
/// Largest dimension size representable by the max index type (`i32`).
pub(crate) const MAX_MAX_DIM: usize = i32::MAX as usize;

const FLAG_MAX_CLASS: u8 = 0b0000_0001;
/// Bits 1..7 of the flag byte are reserved and must be zero in version 1.
const FLAG_KNOWN_MASK: u8 = 0b0000_0001;

/// Decoded array header.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Storage class (short = in-page, max = out-of-page).
    pub class: StorageClass,
    /// Element base type.
    pub elem: ElementType,
    /// Array shape.
    pub shape: Shape,
}

impl Header {
    /// Builds and validates a header for a new array.
    #[inline]
    pub fn new(class: StorageClass, elem: ElementType, shape: Shape) -> Result<Header> {
        let h = Header { class, elem, shape };
        h.validate()?;
        Ok(h)
    }

    /// Checks the storage-class constraints (rank, index width, page budget).
    #[inline]
    fn validate(&self) -> Result<()> {
        let rank = self.shape.rank();
        match self.class {
            StorageClass::Short => {
                if rank > SHORT_MAX_RANK {
                    return Err(ArrayError::BadRank {
                        rank,
                        max: SHORT_MAX_RANK,
                    });
                }
                for (axis, &d) in self.shape.dims().iter().enumerate() {
                    if d > SHORT_MAX_DIM {
                        return Err(ArrayError::BadDimension { dim: axis, size: d });
                    }
                }
                let total = self.blob_len();
                if total > SHORT_MAX_BYTES {
                    return Err(ArrayError::ShortTooLarge {
                        bytes: total,
                        limit: SHORT_MAX_BYTES,
                    });
                }
            }
            StorageClass::Max => {
                for (axis, &d) in self.shape.dims().iter().enumerate() {
                    if d > MAX_MAX_DIM {
                        return Err(ArrayError::BadDimension { dim: axis, size: d });
                    }
                }
            }
        }
        Ok(())
    }

    /// Header length in bytes.
    #[inline]
    pub fn header_len(&self) -> usize {
        self.class.header_len(self.shape.rank())
    }

    /// Payload length in bytes (`count * elem_size`).
    #[inline]
    pub(crate) fn payload_len(&self) -> usize {
        self.shape.count() * self.elem.size()
    }

    /// Total blob length (header + payload).
    #[inline]
    pub fn blob_len(&self) -> usize {
        self.header_len() + self.payload_len()
    }

    /// Serializes the header into `out`, which must be at least
    /// [`header_len`](Self::header_len) bytes.
    pub(crate) fn encode(&self, out: &mut [u8]) {
        let dims = self.shape.dims();
        match self.class {
            StorageClass::Short => {
                out[0] = 0;
                out[1] = self.elem.code();
                out[2] = dims.len() as u8;
                out[3] = 0;
                out[4..12].copy_from_slice(&(self.shape.count() as u64).to_le_bytes());
                for slot in 0..SHORT_MAX_RANK {
                    let d = dims.get(slot).copied().unwrap_or(0) as i16;
                    out[12 + 2 * slot..14 + 2 * slot].copy_from_slice(&d.to_le_bytes());
                }
            }
            StorageClass::Max => {
                out[0] = FLAG_MAX_CLASS;
                out[1] = self.elem.code();
                out[2] = 0;
                out[3] = 0;
                out[4..8].copy_from_slice(&(dims.len() as u32).to_le_bytes());
                out[8..16].copy_from_slice(&(self.shape.count() as u64).to_le_bytes());
                for (slot, &d) in dims.iter().enumerate() {
                    out[16 + 4 * slot..20 + 4 * slot].copy_from_slice(&(d as i32).to_le_bytes());
                }
            }
        }
    }

    /// Decodes and validates a header from the start of `buf`.
    ///
    /// `buf` only needs to contain the header bytes, not the payload — this
    /// is what lets the max-array stream interface fetch the header first
    /// and then issue targeted partial reads for the payload.
    #[inline]
    pub fn decode(buf: &[u8]) -> Result<Header> {
        if buf.len() < 4 {
            return Err(ArrayError::HeaderTooShort {
                got: buf.len(),
                need: 4,
            });
        }
        let flags = buf[0];
        if flags & !FLAG_KNOWN_MASK != 0 {
            return Err(ArrayError::BadFlags(flags));
        }
        let elem = ElementType::from_code(buf[1])?;
        if flags & FLAG_MAX_CLASS == 0 {
            // Short header.
            if buf.len() < SHORT_HEADER_LEN {
                return Err(ArrayError::HeaderTooShort {
                    got: buf.len(),
                    need: SHORT_HEADER_LEN,
                });
            }
            let rank = buf[2] as usize;
            if rank == 0 || rank > SHORT_MAX_RANK {
                return Err(ArrayError::BadRank {
                    rank,
                    max: SHORT_MAX_RANK,
                });
            }
            let count = crate::le::u64_at(buf, 4) as usize;
            let shape = decode_dims(rank, |slot| crate::le::i16_at(buf, 12 + 2 * slot).into())?;
            if shape.count() != count {
                return Err(ArrayError::CountMismatch {
                    dims_product: shape.count(),
                    count,
                });
            }
            Header::new(StorageClass::Short, elem, shape)
        } else {
            // Max header.
            if buf.len() < MAX_FIXED_HEADER_LEN {
                return Err(ArrayError::HeaderTooShort {
                    got: buf.len(),
                    need: MAX_FIXED_HEADER_LEN,
                });
            }
            let rank = crate::le::u32_at(buf, 4) as usize;
            if rank == 0 {
                return Err(ArrayError::BadRank {
                    rank,
                    max: usize::MAX,
                });
            }
            let need = MAX_FIXED_HEADER_LEN + 4 * rank;
            if buf.len() < need {
                return Err(ArrayError::HeaderTooShort {
                    got: buf.len(),
                    need,
                });
            }
            let count = crate::le::u64_at(buf, 8) as usize;
            let shape = decode_dims(rank, |slot| crate::le::i32_at(buf, 16 + 4 * slot).into())?;
            if shape.count() != count {
                return Err(ArrayError::CountMismatch {
                    dims_product: shape.count(),
                    count,
                });
            }
            Header::new(StorageClass::Max, elem, shape)
        }
    }

    /// Plans the blob-absolute byte runs covering the rectangular region
    /// `[offset, offset + size)` — the region → byte-run planner that
    /// `Subarray` pushdown hands to a vectored source read.
    ///
    /// Each run is `(byte_offset, byte_len)` with the header length
    /// already folded into the offsets; runs are emitted in ascending
    /// order (reusing `Shape::region_runs`, so full leading axes fuse
    /// into long contiguous ranges) and cover exactly the region's
    /// payload bytes. The region is bounds-checked against the shape.
    pub fn region_byte_runs(
        &self,
        offset: &[usize],
        size: &[usize],
    ) -> Result<Vec<(usize, usize)>> {
        self.shape.validate_subarray(offset, size)?;
        let es = self.elem.size();
        let hlen = self.header_len();
        Ok(self
            .shape
            .region_runs(offset, size)
            .map(|(start, len)| (hlen + start * es, len * es))
            .collect())
    }

    /// How many leading bytes of a blob must be fetched before
    /// [`decode`](Self::decode) can succeed. For short blobs this is the
    /// whole fixed header; for max blobs the fixed part is enough to learn
    /// the rank, after which the caller extends the read.
    pub fn probe_len(buf: &[u8]) -> Result<usize> {
        if buf.is_empty() {
            return Err(ArrayError::HeaderTooShort { got: 0, need: 4 });
        }
        if buf[0] & FLAG_MAX_CLASS == 0 {
            Ok(SHORT_HEADER_LEN)
        } else {
            if buf.len() < 8 {
                return Err(ArrayError::HeaderTooShort {
                    got: buf.len(),
                    need: 8,
                });
            }
            let rank = crate::le::u32_at(buf, 4) as usize;
            Ok(MAX_FIXED_HEADER_LEN + 4 * rank)
        }
    }
}

/// The shape of `rank` stored dimensions, `dim(slot)` each: a
/// non-positive one is [`ArrayError::BadDimension`]. A rank up to
/// [`SHORT_MAX_RANK`] is gathered on the stack, so the shape it builds
/// allocates nothing.
#[inline]
fn decode_dims(rank: usize, dim: impl Fn(usize) -> i64) -> Result<Shape> {
    let read = |slot: usize| match dim(slot) {
        d if d <= 0 => Err(ArrayError::BadDimension { dim: slot, size: 0 }),
        d => Ok(d as usize),
    };
    if rank <= SHORT_MAX_RANK {
        let mut dims = [0usize; SHORT_MAX_RANK];
        for (slot, d) in dims[..rank].iter_mut().enumerate() {
            *d = read(slot)?;
        }
        Shape::inline(dims, rank)
    } else {
        Shape::from_vec((0..rank).map(read).collect::<Result<_>>()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims).unwrap()
    }

    /// `h` serialized into a fresh buffer of exactly the header length.
    fn encode_vec(h: &Header) -> Vec<u8> {
        let mut v = vec![0u8; h.header_len()];
        h.encode(&mut v);
        v
    }

    #[test]
    fn short_header_is_24_bytes() {
        let h = Header::new(StorageClass::Short, ElementType::Float64, shape(&[5])).unwrap();
        assert_eq!(h.header_len(), 24);
        assert_eq!(encode_vec(&h).len(), 24);
        assert_eq!(h.blob_len(), 24 + 5 * 8);
    }

    #[test]
    fn max_header_grows_with_rank() {
        for rank in 1..10 {
            let dims = vec![2usize; rank];
            let h = Header::new(StorageClass::Max, ElementType::Int8, shape(&dims)).unwrap();
            assert_eq!(h.header_len(), 16 + 4 * rank);
        }
    }

    #[test]
    fn round_trip_short() {
        let h = Header::new(StorageClass::Short, ElementType::Int16, shape(&[4, 3, 2])).unwrap();
        let buf = encode_vec(&h);
        let d = Header::decode(&buf).unwrap();
        assert_eq!(d, h);
    }

    #[test]
    fn round_trip_max_high_rank() {
        let h = Header::new(
            StorageClass::Max,
            ElementType::Complex64,
            shape(&[2, 3, 4, 5, 6, 7, 8]),
        )
        .unwrap();
        let buf = encode_vec(&h);
        assert_eq!(Header::decode(&buf).unwrap(), h);
    }

    #[test]
    fn short_rank_limit_is_six() {
        let ok = Header::new(
            StorageClass::Short,
            ElementType::Int8,
            shape(&[2, 2, 2, 2, 2, 2]),
        );
        assert!(ok.is_ok());
        let err = Header::new(
            StorageClass::Short,
            ElementType::Int8,
            shape(&[2, 2, 2, 2, 2, 2, 2]),
        );
        assert!(matches!(err, Err(ArrayError::BadRank { rank: 7, max: 6 })));
    }

    #[test]
    fn short_page_budget_enforced() {
        // 997 doubles -> 24 + 7976 = 8000 bytes: exactly at the limit.
        let ok = Header::new(StorageClass::Short, ElementType::Float64, shape(&[997]));
        assert!(ok.is_ok());
        let err = Header::new(StorageClass::Short, ElementType::Float64, shape(&[998]));
        assert!(matches!(err, Err(ArrayError::ShortTooLarge { .. })));
    }

    #[test]
    fn short_dim_must_fit_i16() {
        // A one-byte element type lets a single dimension reach the i16 cap
        // before the page budget does... but 8000 bytes < 32767, so craft a
        // rank-2 case where one dim is large.
        let err = Header::new(
            StorageClass::Max,
            ElementType::Int8,
            shape(&[MAX_MAX_DIM + 1]),
        );
        assert!(matches!(err, Err(ArrayError::BadDimension { .. })));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Header::decode(&[]).is_err());
        assert!(Header::decode(&[0xFF, 1, 1, 0]).is_err()); // bad flags
        assert!(Header::decode(&[0, 42, 1, 0]).is_err()); // bad type code

        // Truncated short header.
        let h = Header::new(StorageClass::Short, ElementType::Int32, shape(&[3])).unwrap();
        let buf = encode_vec(&h);
        assert!(matches!(
            Header::decode(&buf[..10]),
            Err(ArrayError::HeaderTooShort { .. })
        ));
    }

    #[test]
    fn decode_rejects_count_mismatch() {
        let h = Header::new(StorageClass::Short, ElementType::Int32, shape(&[3, 2])).unwrap();
        let mut buf = encode_vec(&h);
        buf[4..12].copy_from_slice(&7u64.to_le_bytes()); // corrupt the count
        assert!(matches!(
            Header::decode(&buf),
            Err(ArrayError::CountMismatch {
                dims_product: 6,
                count: 7
            })
        ));
    }

    #[test]
    fn decode_rejects_zero_rank() {
        let h = Header::new(StorageClass::Max, ElementType::Int32, shape(&[3])).unwrap();
        let mut buf = encode_vec(&h);
        buf[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Header::decode(&buf),
            Err(ArrayError::BadRank { .. })
        ));
    }

    #[test]
    fn probe_len_short_and_max() {
        let hs = Header::new(StorageClass::Short, ElementType::Int8, shape(&[2])).unwrap();
        assert_eq!(Header::probe_len(&encode_vec(&hs)).unwrap(), 24);
        let hm = Header::new(StorageClass::Max, ElementType::Int8, shape(&[2, 2, 2])).unwrap();
        assert_eq!(Header::probe_len(&encode_vec(&hm)).unwrap(), 16 + 12);
        // The probe only needs the first 8 bytes for max arrays.
        assert_eq!(Header::probe_len(&encode_vec(&hm)[..8]).unwrap(), 16 + 12);
    }

    #[test]
    fn region_byte_runs_cover_the_region_in_order() {
        let h = Header::new(StorageClass::Max, ElementType::Float64, shape(&[6, 5, 4])).unwrap();
        let runs = h.region_byte_runs(&[1, 2, 0], &[3, 2, 4]).unwrap();
        let total: usize = runs.iter().map(|r| r.1).sum();
        assert_eq!(total, 3 * 2 * 4 * 8);
        let mut prev_end = h.header_len();
        for &(off, len) in &runs {
            assert!(off >= prev_end, "runs out of order or overlapping");
            assert!(off + len <= h.blob_len());
            prev_end = off + len;
        }
        // Full leading axes fuse into one long run.
        let fused = h.region_byte_runs(&[0, 0, 1], &[6, 5, 2]).unwrap();
        assert_eq!(fused, vec![(h.header_len() + 6 * 5 * 8, 6 * 5 * 2 * 8)]);
        // Bounds are enforced.
        assert!(h.region_byte_runs(&[4, 0, 0], &[3, 1, 1]).is_err());
    }

    #[test]
    fn negative_dim_rejected_on_decode() {
        let h = Header::new(StorageClass::Max, ElementType::Int8, shape(&[2, 2])).unwrap();
        let mut buf = encode_vec(&h);
        buf[16..20].copy_from_slice(&(-5i32).to_le_bytes());
        assert!(matches!(
            Header::decode(&buf),
            Err(ArrayError::BadDimension { dim: 0, .. })
        ));
    }
}
