//! Fixed-width little-endian decoding from byte buffers.
//!
//! Every on-disk structure in the workspace — array headers, slotted-page
//! headers, row images, blob chunk tables, serialized aggregate state —
//! is a sequence of fixed-width little-endian fields read out of a buffer
//! whose overall length was validated once, up front. These accessors
//! replace the `buf[a..b].try_into().unwrap()` idiom at every such field:
//! one place owns the (already-guaranteed) length reasoning instead of a
//! scattering of per-field unwraps, and the decode sites stay free of
//! `unwrap` (clippy's `unwrap_used`, L005).
//!
//! All accessors panic (via the slice bounds check) if `off` lies too
//! close to the end of `buf` — the same behavior the `try_into().unwrap()`
//! pattern had, with the same "validated once, up front" justification.

macro_rules! le_accessor {
    ($(#[$doc:meta] $name:ident -> $t:ty),+ $(,)?) => {$(
        #[$doc]
        #[inline]
        pub fn $name(buf: &[u8], off: usize) -> $t {
            const N: usize = std::mem::size_of::<$t>();
            let mut bytes = [0u8; N];
            bytes.copy_from_slice(&buf[off..off + N]);
            <$t>::from_le_bytes(bytes)
        }
    )+};
}

le_accessor! {
    /// Reads a little-endian `u16` at byte offset `off`.
    u16_at -> u16,
    /// Reads a little-endian `u32` at byte offset `off`.
    u32_at -> u32,
    /// Reads a little-endian `u64` at byte offset `off`.
    u64_at -> u64,
    /// Reads a little-endian `i16` at byte offset `off`.
    i16_at -> i16,
    /// Reads a little-endian `i32` at byte offset `off`.
    i32_at -> i32,
    /// Reads a little-endian `i64` at byte offset `off`.
    i64_at -> i64,
    /// Reads a little-endian IEEE-754 `f32` at byte offset `off`.
    f32_at -> f32,
    /// Reads a little-endian IEEE-754 `f64` at byte offset `off`.
    f64_at -> f64,
}

macro_rules! le_putter {
    ($(#[$doc:meta] $name:ident <- $t:ty),+ $(,)?) => {$(
        #[$doc]
        #[inline]
        pub fn $name(buf: &mut [u8], off: usize, v: $t) {
            const N: usize = std::mem::size_of::<$t>();
            buf[off..off + N].copy_from_slice(&v.to_le_bytes());
        }
    )+};
}

le_putter! {
    /// Writes a little-endian `u16` at byte offset `off`.
    put_u16 <- u16,
    /// Writes a little-endian `u32` at byte offset `off`.
    put_u32 <- u32,
    /// Writes a little-endian `u64` at byte offset `off`.
    put_u64 <- u64,
}

macro_rules! le_appender {
    ($(#[$doc:meta] $name:ident <- $t:ty),+ $(,)?) => {$(
        #[$doc]
        #[inline]
        pub fn $name(out: &mut Vec<u8>, v: $t) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    )+};
}

le_appender! {
    /// Appends a little-endian `u16` to `out`.
    push_u16 <- u16,
    /// Appends a little-endian `u32` to `out`.
    push_u32 <- u32,
    /// Appends a little-endian `u64` to `out`.
    push_u64 <- u64,
}

/// Appends a length-prefixed (`u32` LE) byte slice to `out` — the framing
/// every variable-width field in a WAL record or catalog image uses.
#[inline]
pub fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    push_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Reads a length-prefixed (`u32` LE) byte slice at `off`, returning the
/// slice and the offset just past it, or `None` if `buf` is too short —
/// the checked counterpart of [`push_bytes`] for decoding images whose
/// length was *not* validated up front (WAL tails, recovered catalogs).
#[inline]
pub fn take_bytes(buf: &[u8], off: usize) -> Option<(&[u8], usize)> {
    if off + 4 > buf.len() {
        return None;
    }
    let len = u32_at(buf, off) as usize;
    let end = off.checked_add(4)?.checked_add(len)?;
    if end > buf.len() {
        return None;
    }
    Some((&buf[off + 4..end], end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_every_width_at_an_offset() {
        let mut buf = vec![0xAAu8; 3];
        buf.extend_from_slice(&0x1122u16.to_le_bytes());
        buf.extend_from_slice(&0x3344_5566u32.to_le_bytes());
        buf.extend_from_slice(&0x7788_99AA_BBCC_DDEEu64.to_le_bytes());
        buf.extend_from_slice(&(-5i16).to_le_bytes());
        buf.extend_from_slice(&(-6i32).to_le_bytes());
        buf.extend_from_slice(&(-7i64).to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(&(-2.5f64).to_le_bytes());
        let mut off = 3;
        assert_eq!(u16_at(&buf, off), 0x1122);
        off += 2;
        assert_eq!(u32_at(&buf, off), 0x3344_5566);
        off += 4;
        assert_eq!(u64_at(&buf, off), 0x7788_99AA_BBCC_DDEE);
        off += 8;
        assert_eq!(i16_at(&buf, off), -5);
        off += 2;
        assert_eq!(i32_at(&buf, off), -6);
        off += 4;
        assert_eq!(i64_at(&buf, off), -7);
        off += 8;
        assert_eq!(f32_at(&buf, off), 1.5);
        off += 4;
        assert_eq!(f64_at(&buf, off), -2.5);
    }

    #[test]
    #[should_panic]
    fn short_buffer_panics_like_the_old_idiom() {
        let _ = u64_at(&[0u8; 7], 0);
    }
}
