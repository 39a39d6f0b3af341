//! Streamed (partial-read) access to array blobs.
//!
//! Max arrays "have to be read via the binary stream wrapper which has one
//! important benefit: it supports reading only parts of the binary data if
//! the whole array is not required. The latter can significantly speed up
//! certain array subsetting operations." (§3.3)
//!
//! [`ArraySource`] abstracts anything that can serve byte ranges of a blob
//! (an in-memory buffer here; the storage engine's LOB B-tree stream in
//! `sqlarray-storage`). [`ArrayReader`] decodes the header from a prefix
//! read and then plans minimal byte-range reads for `Item` and `Subarray`.

use crate::array::SqlArray;
use crate::errors::{ArrayError, Result};
use crate::header::Header;
use crate::scalar::Scalar;

/// A random-access byte source holding one array blob.
pub trait ArraySource {
    /// Total length of the blob in bytes.
    fn blob_len(&self) -> usize;

    /// Reads `buf.len()` bytes starting at `offset`. Must fill the whole
    /// buffer or fail.
    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> Result<()>;

    /// Vectored read: fills `out` with the bytes of `runs` (a sequence of
    /// `(offset, len)` ranges), run after run. `out` must be exactly the
    /// runs' total length.
    ///
    /// The default implementation issues one [`read_at`](Self::read_at)
    /// per run. Sources backed by paged storage override it to map the
    /// whole run set onto the minimal set of pages in one pass — this is
    /// the hook `Subarray` pushdown reads a region through.
    fn read_runs(&mut self, runs: &[(usize, usize)], out: &mut [u8]) -> Result<()> {
        let mut cursor = 0usize;
        for &(offset, len) in runs {
            let end = cursor + len;
            if end > out.len() {
                return Err(ArrayError::Io(format!(
                    "vectored read plans more than the {}-byte buffer",
                    out.len()
                )));
            }
            self.read_at(offset, &mut out[cursor..end])?;
            cursor = end;
        }
        if cursor != out.len() {
            return Err(ArrayError::Io(format!(
                "vectored read plans {cursor} bytes into a {}-byte buffer",
                out.len()
            )));
        }
        Ok(())
    }
}

/// The trivial in-memory source (a blob already fetched into RAM).
impl ArraySource for &[u8] {
    fn blob_len(&self) -> usize {
        self.len()
    }

    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> Result<()> {
        let end = offset + buf.len();
        if end > self.len() {
            return Err(ArrayError::Io(format!(
                "read past end of blob: {end} > {}",
                self.len()
            )));
        }
        buf.copy_from_slice(&self[offset..end]);
        Ok(())
    }
}

/// Streamed reader over an [`ArraySource`].
///
/// Tracks `bytes_read` so benchmarks can compare the I/O volume of partial
/// subsetting against fetching the entire blob (experiment E6).
pub struct ArrayReader<S: ArraySource> {
    source: S,
    header: Header,
    bytes_read: usize,
}

impl<S: ArraySource> ArrayReader<S> {
    /// Opens a blob: reads just enough leading bytes to decode the header.
    pub fn open(mut source: S) -> Result<Self> {
        // First probe: enough to classify and (for max blobs) learn rank.
        let mut probe = [0u8; 8];
        let probe_take = probe.len().min(source.blob_len());
        source.read_at(0, &mut probe[..probe_take])?;
        let header_len = Header::probe_len(&probe[..probe_take])?;
        let mut hbuf = vec![0u8; header_len];
        source.read_at(0, &mut hbuf)?;
        let header = Header::decode(&hbuf)?;
        Ok(ArrayReader {
            source,
            header,
            bytes_read: probe_take + header_len,
        })
    }

    /// The decoded header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Reads a single element without fetching the rest of the payload.
    pub fn item(&mut self, idx: &[usize]) -> Result<Scalar> {
        let lin = self.header.shape.linear_index(idx)?;
        let es = self.header.elem.size();
        let off = self.header.header_len() + lin * es;
        let mut buf = [0u8; 16];
        self.source.read_at(off, &mut buf[..es])?;
        self.bytes_read += es;
        Ok(Scalar::read_le(self.header.elem, &buf))
    }

    /// Extracts a rectangular subarray by reading only the contiguous runs
    /// that cover it. Returns a fully materialized array of the same
    /// element type and storage class (squeeze semantics as in
    /// [`crate::ops::subarray`]).
    ///
    /// The whole region is planned up front ([`Header::region_byte_runs`])
    /// and fetched in **one** vectored
    /// [`read_runs`](ArraySource::read_runs) call, so a paged source can
    /// coalesce the runs and touch each backing page once — the parent
    /// payload is never materialized.
    pub fn subarray(
        &mut self,
        offset: &[usize],
        size: &[usize],
        squeeze: bool,
    ) -> Result<SqlArray> {
        let out_shape = self.header.shape.validate_subarray(offset, size)?;
        let final_shape = if squeeze {
            out_shape.squeeze()
        } else {
            out_shape.clone()
        };

        let out_header = Header::new(self.header.class, self.header.elem, final_shape)?;
        let out_hlen = out_header.header_len();
        let mut out = vec![0u8; out_header.blob_len()];
        out_header.encode(&mut out);

        let runs = self.header.region_byte_runs(offset, size)?;
        self.source.read_runs(&runs, &mut out[out_hlen..])?;
        self.bytes_read += out.len() - out_hlen;
        SqlArray::from_blob(out)
    }

    /// Fetches the whole blob (the non-streamed path, for comparison and
    /// for operations that need every element).
    pub fn read_full(&mut self) -> Result<SqlArray> {
        let mut buf = vec![0u8; self.source.blob_len()];
        self.source.read_at(0, &mut buf)?;
        self.bytes_read += buf.len();
        SqlArray::from_blob(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::StorageClass;

    fn cube() -> SqlArray {
        // 8x8x8 max array of f64, value = linear index.
        SqlArray::from_fn(StorageClass::Max, &[8, 8, 8], |idx| {
            (idx[0] + 8 * idx[1] + 64 * idx[2]) as f64
        })
        .unwrap()
    }

    #[test]
    fn open_reads_only_header() {
        let a = cube();
        let blob = a.as_blob();
        let r = ArrayReader::open(blob).unwrap();
        assert_eq!(r.header().shape.dims(), &[8, 8, 8]);
        // 8-byte probe + 28-byte header, nowhere near the 4 KiB payload.
        assert!(r.bytes_read < 64, "read {} bytes", r.bytes_read);
    }

    #[test]
    fn item_reads_one_element() {
        let a = cube();
        let mut r = ArrayReader::open(a.as_blob()).unwrap();
        let before = r.bytes_read;
        let v = r.item(&[3, 4, 5]).unwrap();
        assert_eq!(v, Scalar::F64((3 + 8 * 4 + 64 * 5) as f64));
        assert_eq!(r.bytes_read - before, 8);
    }

    #[test]
    fn subarray_matches_in_memory_result() {
        let a = cube();
        let mut r = ArrayReader::open(a.as_blob()).unwrap();
        let offset = [1, 2, 3];
        let size = [4, 4, 2];
        let streamed = r.subarray(&offset, &size, false).unwrap();
        let direct = crate::ops::subarray::subarray(&a, &offset, &size, false).unwrap();
        assert_eq!(streamed, direct);
    }

    #[test]
    fn subarray_reads_fewer_bytes_than_full_blob() {
        let a = cube();
        let mut r = ArrayReader::open(a.as_blob()).unwrap();
        let sub = r.subarray(&[0, 0, 0], &[2, 2, 2], false).unwrap();
        assert_eq!(sub.count(), 8);
        // 8 elements * 8 bytes = 64 payload bytes vs 4096 for the full cube.
        assert!(r.bytes_read < 256, "read {} bytes", r.bytes_read);
    }

    #[test]
    fn read_full_round_trips() {
        let a = cube();
        let mut r = ArrayReader::open(a.as_blob()).unwrap();
        let full = r.read_full().unwrap();
        assert_eq!(full, a);
        assert!(r.bytes_read >= a.as_blob().len());
    }

    #[test]
    fn short_blob_streams_too() {
        let a = SqlArray::from_vec(StorageClass::Short, &[5], &[1i32, 2, 3, 4, 5]).unwrap();
        let mut r = ArrayReader::open(a.as_blob()).unwrap();
        assert_eq!(r.item(&[4]).unwrap(), Scalar::I32(5));
    }

    #[test]
    fn read_past_end_fails() {
        let a = SqlArray::from_vec(StorageClass::Short, &[2], &[1i32, 2]).unwrap();
        let blob = a.as_blob();
        let truncated = &blob[..blob.len() - 4];
        // Header decodes fine (it's intact), but the payload read fails.
        let mut r = ArrayReader::open(truncated).unwrap();
        assert!(r.item(&[1]).is_err());
    }
}
