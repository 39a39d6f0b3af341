//! Row format: schema-driven encoding of heterogeneous column values.
//!
//! Mirrors the two test tables of §6.2: `Tscalar` stores a vector as five
//! scalar `float` columns; `Tvector` stores it as one binary column holding
//! an array blob. Blob columns follow SQL Server's in-row rule: payloads up
//! to [`INLINE_BLOB_LIMIT`] bytes stay in the row, larger ones move to the
//! LOB store and leave a 16-byte pointer behind.

use crate::blob::{self, BlobId};
use crate::errors::{Result, StorageError};
use crate::store::PageStore;
use sqlarray_core::batch::{Batch, BytesVec, ColVec};

/// Largest blob stored inside the row — the `VARBINARY(8000)` budget that
/// also caps short arrays.
pub const INLINE_BLOB_LIMIT: usize = 8000;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// `bigint`.
    I64,
    /// `int`.
    I32,
    /// `float`.
    F64,
    /// `real`.
    F32,
    /// Binary payload: in-row when ≤ [`INLINE_BLOB_LIMIT`] bytes,
    /// out-of-page LOB otherwise (`VARBINARY(MAX)` semantics).
    Blob,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (case-insensitive lookups in the engine).
    pub name: String,
    /// Data type.
    pub ctype: ColType,
}

impl Column {
    /// Shorthand constructor.
    pub fn new(name: &str, ctype: ColType) -> Column {
        Column {
            name: name.to_string(),
            ctype,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// The columns, in storage order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(cols: &[(&str, ColType)]) -> Schema {
        Schema {
            columns: cols.iter().map(|&(n, t)| Column::new(n, t)).collect(),
        }
    }

    /// Index of a column by case-insensitive name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// A single column value.
#[derive(Debug, Clone, PartialEq)]
pub enum RowValue {
    /// `bigint` value.
    I64(i64),
    /// `int` value.
    I32(i32),
    /// `float` value.
    F64(f64),
    /// `real` value.
    F32(f32),
    /// Blob payload held in the row.
    Bytes(Vec<u8>),
    /// Blob moved out of page: LOB id and byte length.
    LobRef(BlobId, u64),
}

impl RowValue {
    /// Fetches the full payload of a blob-typed value, reading through the
    /// LOB store when out of page.
    pub fn blob_bytes(&self, store: &mut PageStore) -> Result<Vec<u8>> {
        match self {
            RowValue::Bytes(b) => Ok(b.clone()),
            RowValue::LobRef(id, _) => blob::read_blob(store, *id),
            other => Err(StorageError::SchemaMismatch(format!(
                "value {other:?} is not a blob"
            ))),
        }
    }
}

/// A borrowed view of one decoded column value — the zero-copy sibling of
/// [`RowValue`] for callers that only inspect a value (predicates, LOB-ref
/// checks) and would otherwise pay a heap copy per inline blob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowValueRef<'a> {
    /// `bigint` value.
    I64(i64),
    /// `int` value.
    I32(i32),
    /// `float` value.
    F64(f64),
    /// `real` value.
    F32(f32),
    /// Blob payload held in the row, borrowed from the encoded bytes.
    Bytes(&'a [u8]),
    /// Blob moved out of page: LOB id and byte length.
    LobRef(BlobId, u64),
}

// Value tags inside encoded blob columns.
const BLOB_INLINE: u8 = 0;
const BLOB_LOB: u8 = 1;

/// Encodes a row. Blob values larger than the in-row limit are written to
/// the LOB store as a side effect.
pub fn encode_row(store: &mut PageStore, schema: &Schema, values: &[RowValue]) -> Result<Vec<u8>> {
    encode_row_impl(Some(store), schema, values)
}

/// Encodes a row **without** touching the store — the pure-CPU path the
/// parallel bulk loader fans out over worker threads. Oversized blob
/// values are an error here; [`Table::bulk_load`](crate::Table::bulk_load)
/// spills them to the LOB store in a serial pre-pass (replacing them with
/// [`RowValue::LobRef`]) before handing rows to the workers.
pub fn encode_row_inline(schema: &Schema, values: &[RowValue]) -> Result<Vec<u8>> {
    encode_row_impl(None, schema, values)
}

/// Computes the encoded length of a row **without encoding it** (and
/// without touching any store), validating arity and column types along
/// the way. Oversized blob values are costed as LOB pointers (17 bytes),
/// matching what [`encode_row`] produces after spilling — this is the
/// bulk loader's pre-flight check, run before any store mutation.
///
/// Kept adjacent to `encode_row_impl` because the two must agree
/// byte-for-byte; `encoded_len_matches_encoding` pins that.
pub fn encoded_len(schema: &Schema, values: &[RowValue]) -> Result<usize> {
    if values.len() != schema.columns.len() {
        return Err(StorageError::SchemaMismatch(format!(
            "row has {} values, schema has {} columns",
            values.len(),
            schema.columns.len()
        )));
    }
    let mut len = 0usize;
    for (col, val) in schema.columns.iter().zip(values) {
        len += match (col.ctype, val) {
            (ColType::I64, RowValue::I64(_)) | (ColType::F64, RowValue::F64(_)) => 8,
            (ColType::I32, RowValue::I32(_)) | (ColType::F32, RowValue::F32(_)) => 4,
            (ColType::Blob, RowValue::Bytes(b)) => {
                if b.len() <= INLINE_BLOB_LIMIT {
                    3 + b.len()
                } else {
                    17
                }
            }
            (ColType::Blob, RowValue::LobRef(..)) => 17,
            (t, v) => {
                return Err(StorageError::SchemaMismatch(format!(
                    "column `{}` of type {t:?} cannot store {v:?}",
                    col.name
                )))
            }
        };
    }
    Ok(len)
}

fn encode_row_impl(
    mut store: Option<&mut PageStore>,
    schema: &Schema,
    values: &[RowValue],
) -> Result<Vec<u8>> {
    if values.len() != schema.columns.len() {
        return Err(StorageError::SchemaMismatch(format!(
            "row has {} values, schema has {} columns",
            values.len(),
            schema.columns.len()
        )));
    }
    let mut out = Vec::with_capacity(64);
    for (col, val) in schema.columns.iter().zip(values) {
        match (col.ctype, val) {
            (ColType::I64, RowValue::I64(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (ColType::I32, RowValue::I32(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (ColType::F64, RowValue::F64(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (ColType::F32, RowValue::F32(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (ColType::Blob, RowValue::Bytes(b)) => {
                if b.len() <= INLINE_BLOB_LIMIT {
                    out.push(BLOB_INLINE);
                    out.extend_from_slice(&(b.len() as u16).to_le_bytes());
                    out.extend_from_slice(b);
                } else {
                    let Some(store) = store.as_deref_mut() else {
                        return Err(StorageError::SchemaMismatch(format!(
                            "column `{}`: {}-byte blob exceeds the in-row limit and no \
                             LOB store is available on this encoding path",
                            col.name,
                            b.len()
                        )));
                    };
                    let id = blob::write_blob(store, b)?;
                    out.push(BLOB_LOB);
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
                }
            }
            (ColType::Blob, RowValue::LobRef(id, len)) => {
                out.push(BLOB_LOB);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            (t, v) => {
                return Err(StorageError::SchemaMismatch(format!(
                    "column `{}` of type {t:?} cannot store {v:?}",
                    col.name
                )))
            }
        }
    }
    Ok(out)
}

/// Decodes a whole row.
pub fn decode_row(schema: &Schema, bytes: &[u8]) -> Result<Vec<RowValue>> {
    let mut out = Vec::with_capacity(schema.columns.len());
    let mut off = 0usize;
    for col in &schema.columns {
        let (v, next) = decode_value(col.ctype, bytes, off, &col.name)?;
        out.push(v);
        off = next;
    }
    if off != bytes.len() {
        return Err(StorageError::RowCorrupt(format!(
            "{} trailing bytes after last column",
            bytes.len() - off
        )));
    }
    Ok(out)
}

/// Decodes a single column without materializing the others (the scan
/// projections of queries 3–5 touch exactly one column per row).
pub fn decode_col(schema: &Schema, bytes: &[u8], col_idx: usize) -> Result<RowValue> {
    if col_idx >= schema.columns.len() {
        return Err(StorageError::SchemaMismatch(format!(
            "column index {col_idx} out of range"
        )));
    }
    let mut off = 0usize;
    for (i, col) in schema.columns.iter().enumerate() {
        if i == col_idx {
            let (v, _) = decode_value(col.ctype, bytes, off, &col.name)?;
            return Ok(v);
        }
        off = skip_value(col.ctype, bytes, off, &col.name)?;
    }
    unreachable!("col_idx checked above")
}

/// Appends the LOB ids a row references to `out`, without materializing any
/// inline payloads. `UPDATE`/`DELETE` walk old and new images through this
/// to free orphaned blobs.
pub fn lob_refs(schema: &Schema, bytes: &[u8], out: &mut Vec<BlobId>) -> Result<()> {
    let mut off = 0usize;
    for col in &schema.columns {
        if col.ctype == ColType::Blob {
            let (v, next) = decode_value_ref(col.ctype, bytes, off, &col.name)?;
            if let RowValueRef::LobRef(id, _) = v {
                out.push(id);
            }
            off = next;
        } else {
            off = skip_value(col.ctype, bytes, off, &col.name)?;
        }
    }
    Ok(())
}

/// Builds an empty [`Batch`] with one column vector per requested schema
/// column (`cols` gives the schema indices, in batch-column order).
pub fn new_batch(schema: &Schema, cols: &[usize]) -> Result<Batch> {
    let mut out = Vec::with_capacity(cols.len());
    for &idx in cols {
        let col = schema.columns.get(idx).ok_or_else(|| {
            StorageError::SchemaMismatch(format!("column index {idx} out of range"))
        })?;
        out.push(match col.ctype {
            ColType::I64 => ColVec::I64(Vec::new()),
            ColType::I32 => ColVec::I32(Vec::new()),
            ColType::F64 => ColVec::F64(Vec::new()),
            ColType::F32 => ColVec::F32(Vec::new()),
            ColType::Blob => ColVec::Blob {
                bytes: BytesVec::new(),
                lob: Vec::new(),
            },
        });
    }
    Ok(Batch::new(out))
}

/// Decodes the projected columns of encoded rows straight into a batch's
/// column vectors, amortizing the per-row schema walk: the directory maps
/// schema index → batch column position once, and decoding stops at the
/// last projected column instead of walking the full row.
#[derive(Debug, Clone)]
pub struct BatchDecoder {
    /// `dir[schema_idx]` = batch column position, if projected.
    dir: Vec<Option<usize>>,
    /// Last projected schema index; columns past it are never touched.
    last: Option<usize>,
}

impl BatchDecoder {
    /// Builds a decoder for the given projected schema indices (`cols` must
    /// match the column order used for [`new_batch`]).
    pub fn new(schema: &Schema, cols: &[usize]) -> Result<BatchDecoder> {
        let mut dir = vec![None; schema.columns.len()];
        let mut last = None;
        for (pos, &idx) in cols.iter().enumerate() {
            if idx >= schema.columns.len() {
                return Err(StorageError::SchemaMismatch(format!(
                    "column index {idx} out of range"
                )));
            }
            if dir[idx].is_some() {
                return Err(StorageError::SchemaMismatch(format!(
                    "column index {idx} projected twice"
                )));
            }
            dir[idx] = Some(pos);
            last = Some(last.map_or(idx, |l: usize| l.max(idx)));
        }
        Ok(BatchDecoder { dir, last })
    }

    /// Appends one encoded row's projected columns to `out` (one push per
    /// projected column; inline blob payloads are copied once, directly
    /// into the batch's packed cell storage).
    pub fn decode_row_into(&self, schema: &Schema, bytes: &[u8], out: &mut [ColVec]) -> Result<()> {
        let Some(last) = self.last else {
            return Ok(());
        };
        let mut off = 0usize;
        for (i, col) in schema.columns.iter().enumerate().take(last + 1) {
            let Some(pos) = self.dir[i] else {
                off = skip_value(col.ctype, bytes, off, &col.name)?;
                continue;
            };
            match (col.ctype, &mut out[pos]) {
                (ColType::I64, ColVec::I64(v)) => {
                    need(bytes, off, 8, &col.name)?;
                    v.push(sqlarray_core::le::i64_at(bytes, off));
                    off += 8;
                }
                (ColType::I32, ColVec::I32(v)) => {
                    need(bytes, off, 4, &col.name)?;
                    v.push(sqlarray_core::le::i32_at(bytes, off));
                    off += 4;
                }
                (ColType::F64, ColVec::F64(v)) => {
                    need(bytes, off, 8, &col.name)?;
                    v.push(sqlarray_core::le::f64_at(bytes, off));
                    off += 8;
                }
                (ColType::F32, ColVec::F32(v)) => {
                    need(bytes, off, 4, &col.name)?;
                    v.push(sqlarray_core::le::f32_at(bytes, off));
                    off += 4;
                }
                (ColType::Blob, ColVec::Blob { bytes: cells, lob }) => {
                    need(bytes, off, 1, &col.name)?;
                    match bytes[off] {
                        BLOB_INLINE => {
                            need(bytes, off + 1, 2, &col.name)?;
                            let len = sqlarray_core::le::u16_at(bytes, off + 1) as usize;
                            need(bytes, off + 3, len, &col.name)?;
                            cells.push(&bytes[off + 3..off + 3 + len]);
                            lob.push(None);
                            off += 3 + len;
                        }
                        BLOB_LOB => {
                            need(bytes, off + 1, 16, &col.name)?;
                            let id = sqlarray_core::le::u64_at(bytes, off + 1);
                            let len = sqlarray_core::le::u64_at(bytes, off + 9);
                            cells.push(&[]);
                            lob.push(Some((id, len)));
                            off += 17;
                        }
                        tag => {
                            return Err(StorageError::RowCorrupt(format!(
                                "unknown blob tag {tag} in column `{}`",
                                col.name
                            )))
                        }
                    }
                }
                (t, _) => {
                    return Err(StorageError::SchemaMismatch(format!(
                        "batch column {pos} does not match schema type {t:?} of `{}`",
                        col.name
                    )))
                }
            }
        }
        Ok(())
    }
}

fn need(bytes: &[u8], off: usize, n: usize, name: &str) -> Result<()> {
    if off + n > bytes.len() {
        return Err(StorageError::RowCorrupt(format!(
            "row truncated in column `{name}`"
        )));
    }
    Ok(())
}

fn decode_value(ctype: ColType, bytes: &[u8], off: usize, name: &str) -> Result<(RowValue, usize)> {
    let (v, next) = decode_value_ref(ctype, bytes, off, name)?;
    let owned = match v {
        RowValueRef::I64(x) => RowValue::I64(x),
        RowValueRef::I32(x) => RowValue::I32(x),
        RowValueRef::F64(x) => RowValue::F64(x),
        RowValueRef::F32(x) => RowValue::F32(x),
        RowValueRef::Bytes(b) => RowValue::Bytes(b.to_vec()),
        RowValueRef::LobRef(id, len) => RowValue::LobRef(id, len),
    };
    Ok((owned, next))
}

fn decode_value_ref<'a>(
    ctype: ColType,
    bytes: &'a [u8],
    off: usize,
    name: &str,
) -> Result<(RowValueRef<'a>, usize)> {
    match ctype {
        ColType::I64 => {
            need(bytes, off, 8, name)?;
            let v = sqlarray_core::le::i64_at(bytes, off);
            Ok((RowValueRef::I64(v), off + 8))
        }
        ColType::I32 => {
            need(bytes, off, 4, name)?;
            let v = sqlarray_core::le::i32_at(bytes, off);
            Ok((RowValueRef::I32(v), off + 4))
        }
        ColType::F64 => {
            need(bytes, off, 8, name)?;
            let v = sqlarray_core::le::f64_at(bytes, off);
            Ok((RowValueRef::F64(v), off + 8))
        }
        ColType::F32 => {
            need(bytes, off, 4, name)?;
            let v = sqlarray_core::le::f32_at(bytes, off);
            Ok((RowValueRef::F32(v), off + 4))
        }
        ColType::Blob => {
            need(bytes, off, 1, name)?;
            match bytes[off] {
                BLOB_INLINE => {
                    need(bytes, off + 1, 2, name)?;
                    let len = sqlarray_core::le::u16_at(bytes, off + 1) as usize;
                    need(bytes, off + 3, len, name)?;
                    Ok((
                        RowValueRef::Bytes(&bytes[off + 3..off + 3 + len]),
                        off + 3 + len,
                    ))
                }
                BLOB_LOB => {
                    need(bytes, off + 1, 16, name)?;
                    let id = sqlarray_core::le::u64_at(bytes, off + 1);
                    let len = sqlarray_core::le::u64_at(bytes, off + 9);
                    Ok((RowValueRef::LobRef(id, len), off + 17))
                }
                tag => Err(StorageError::RowCorrupt(format!(
                    "unknown blob tag {tag} in column `{name}`"
                ))),
            }
        }
    }
}

fn skip_value(ctype: ColType, bytes: &[u8], off: usize, name: &str) -> Result<usize> {
    match ctype {
        ColType::I64 | ColType::F64 => {
            need(bytes, off, 8, name)?;
            Ok(off + 8)
        }
        ColType::I32 | ColType::F32 => {
            need(bytes, off, 4, name)?;
            Ok(off + 4)
        }
        ColType::Blob => {
            need(bytes, off, 1, name)?;
            match bytes[off] {
                BLOB_INLINE => {
                    need(bytes, off + 1, 2, name)?;
                    let len = sqlarray_core::le::u16_at(bytes, off + 1) as usize;
                    need(bytes, off + 3, len, name)?;
                    Ok(off + 3 + len)
                }
                BLOB_LOB => {
                    need(bytes, off + 1, 16, name)?;
                    Ok(off + 17)
                }
                tag => Err(StorageError::RowCorrupt(format!(
                    "unknown blob tag {tag} in column `{name}`"
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_schema() -> Schema {
        Schema::new(&[
            ("id", ColType::I64),
            ("x", ColType::F64),
            ("v", ColType::Blob),
            ("n", ColType::I32),
        ])
    }

    #[test]
    fn encoded_len_matches_encoding() {
        let mut store = PageStore::new();
        let schema = test_schema();
        for blob_len in [0usize, 3, INLINE_BLOB_LIMIT, INLINE_BLOB_LIMIT + 1, 20_000] {
            let row = vec![
                RowValue::I64(42),
                RowValue::F64(2.5),
                RowValue::Bytes(vec![7; blob_len]),
                RowValue::I32(-7),
            ];
            let predicted = encoded_len(&schema, &row).unwrap();
            let bytes = encode_row(&mut store, &schema, &row).unwrap();
            assert_eq!(predicted, bytes.len(), "blob_len {blob_len}");
        }
        // Arity and type mismatches are caught without a store.
        assert!(encoded_len(&schema, &[RowValue::I64(1)]).is_err());
        assert!(encoded_len(
            &schema,
            &[
                RowValue::F64(1.0),
                RowValue::F64(1.0),
                RowValue::Bytes(vec![]),
                RowValue::I32(0),
            ],
        )
        .is_err());
    }

    #[test]
    fn round_trip_inline() {
        let mut store = PageStore::new();
        let schema = test_schema();
        let row = vec![
            RowValue::I64(42),
            RowValue::F64(2.5),
            RowValue::Bytes(vec![1, 2, 3]),
            RowValue::I32(-7),
        ];
        let bytes = encode_row(&mut store, &schema, &row).unwrap();
        assert_eq!(decode_row(&schema, &bytes).unwrap(), row);
    }

    #[test]
    fn big_blob_moves_out_of_page() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("v", ColType::Blob)]);
        let payload = vec![0x5A; 20_000];
        let bytes = encode_row(&mut store, &schema, &[RowValue::Bytes(payload.clone())]).unwrap();
        // The row itself stays tiny.
        assert!(bytes.len() < 32);
        match &decode_row(&schema, &bytes).unwrap()[0] {
            RowValue::LobRef(id, len) => {
                assert_eq!(*len, 20_000);
                assert_eq!(blob::read_blob(&mut store, *id).unwrap(), payload);
            }
            other => panic!("expected LobRef, got {other:?}"),
        }
    }

    #[test]
    fn inline_limit_is_8000() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("v", ColType::Blob)]);
        let at_limit = encode_row(&mut store, &schema, &[RowValue::Bytes(vec![0; 8000])]).unwrap();
        assert_eq!(at_limit[8], BLOB_INLINE); // tag after nothing: offset 0 is the tag
        assert_eq!(at_limit[0], BLOB_INLINE);
        let over = encode_row(&mut store, &schema, &[RowValue::Bytes(vec![0; 8001])]).unwrap();
        assert_eq!(over[0], BLOB_LOB);
    }

    #[test]
    fn blob_bytes_unifies_inline_and_lob() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("v", ColType::Blob)]);
        for len in [100usize, 9000] {
            let payload = vec![7u8; len];
            let bytes =
                encode_row(&mut store, &schema, &[RowValue::Bytes(payload.clone())]).unwrap();
            let v = decode_row(&schema, &bytes).unwrap().remove(0);
            assert_eq!(v.blob_bytes(&mut store).unwrap(), payload);
        }
        assert!(RowValue::I64(1).blob_bytes(&mut store).is_err());
    }

    #[test]
    fn decode_col_skips_correctly() {
        let mut store = PageStore::new();
        let schema = test_schema();
        let row = vec![
            RowValue::I64(1),
            RowValue::F64(3.25),
            RowValue::Bytes(vec![9; 50]),
            RowValue::I32(11),
        ];
        let bytes = encode_row(&mut store, &schema, &row).unwrap();
        assert_eq!(decode_col(&schema, &bytes, 0).unwrap(), RowValue::I64(1));
        assert_eq!(decode_col(&schema, &bytes, 1).unwrap(), RowValue::F64(3.25));
        assert_eq!(decode_col(&schema, &bytes, 3).unwrap(), RowValue::I32(11));
        assert!(decode_col(&schema, &bytes, 4).is_err());
    }

    #[test]
    fn schema_mismatch_detected() {
        let mut store = PageStore::new();
        let schema = test_schema();
        let wrong_arity = vec![RowValue::I64(1)];
        assert!(encode_row(&mut store, &schema, &wrong_arity).is_err());
        let wrong_type = vec![
            RowValue::F64(1.0),
            RowValue::F64(1.0),
            RowValue::Bytes(vec![]),
            RowValue::I32(0),
        ];
        assert!(encode_row(&mut store, &schema, &wrong_type).is_err());
    }

    #[test]
    fn corrupt_rows_detected() {
        let schema = test_schema();
        assert!(decode_row(&schema, &[0u8; 3]).is_err()); // truncated
        let mut store = PageStore::new();
        let row = vec![
            RowValue::I64(1),
            RowValue::F64(1.0),
            RowValue::Bytes(vec![1]),
            RowValue::I32(0),
        ];
        let mut bytes = encode_row(&mut store, &schema, &row).unwrap();
        bytes.push(0xFF); // trailing garbage
        assert!(decode_row(&schema, &bytes).is_err());
        bytes.pop();
        bytes[16] = 9; // invalid blob tag
        assert!(decode_row(&schema, &bytes).is_err());
    }

    #[test]
    fn lob_refs_finds_out_of_row_blobs_only() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[
            ("a", ColType::Blob),
            ("n", ColType::I64),
            ("b", ColType::Blob),
        ]);
        let row = vec![
            RowValue::Bytes(vec![1; 10]),
            RowValue::I64(5),
            RowValue::Bytes(vec![2; 9000]),
        ];
        let bytes = encode_row(&mut store, &schema, &row).unwrap();
        let mut ids = Vec::new();
        lob_refs(&schema, &bytes, &mut ids).unwrap();
        assert_eq!(ids.len(), 1);
        match &decode_row(&schema, &bytes).unwrap()[2] {
            RowValue::LobRef(id, _) => assert_eq!(ids[0], *id),
            other => panic!("expected LobRef, got {other:?}"),
        }
    }

    #[test]
    fn batch_decoder_round_trip() {
        let mut store = PageStore::new();
        let schema = test_schema();
        // Project a subset, out of schema order: n (3), v (2), id (0).
        let cols = [3usize, 2, 0];
        let mut batch = new_batch(&schema, &cols).unwrap();
        let dec = BatchDecoder::new(&schema, &cols).unwrap();
        let rows = vec![
            vec![
                RowValue::I64(1),
                RowValue::F64(0.5),
                RowValue::Bytes(vec![7; 3]),
                RowValue::I32(-1),
            ],
            vec![
                RowValue::I64(2),
                RowValue::F64(1.5),
                RowValue::Bytes(vec![8; 9000]),
                RowValue::I32(-2),
            ],
        ];
        for r in &rows {
            let bytes = encode_row(&mut store, &schema, r).unwrap();
            batch.keys.push(match r[0] {
                RowValue::I64(k) => k,
                _ => unreachable!(),
            });
            dec.decode_row_into(&schema, &bytes, &mut batch.cols)
                .unwrap();
        }
        assert_eq!(batch.keys, vec![1, 2]);
        assert!(matches!(&batch.cols[0], ColVec::I32(v) if *v == vec![-1, -2]));
        match &batch.cols[1] {
            ColVec::Blob { bytes, lob } => {
                assert_eq!(bytes.get(0), &[7u8; 3][..]);
                assert_eq!(bytes.get(1), b"");
                assert!(lob[0].is_none());
                let (_, len) = lob[1].expect("big blob should be a LOB ref");
                assert_eq!(len, 9000);
            }
            other => panic!("expected blob column, got {other:?}"),
        }
        assert!(matches!(&batch.cols[2], ColVec::I64(v) if *v == vec![1, 2]));

        // Invalid projections are rejected up front.
        assert!(BatchDecoder::new(&schema, &[4]).is_err());
        assert!(BatchDecoder::new(&schema, &[0, 0]).is_err());
        assert!(new_batch(&schema, &[9]).is_err());
        // Empty projection decodes nothing but still validates keys-only scans.
        let empty = BatchDecoder::new(&schema, &[]).unwrap();
        let bytes = encode_row(&mut store, &schema, &rows[0]).unwrap();
        empty.decode_row_into(&schema, &bytes, &mut []).unwrap();
    }

    #[test]
    fn col_index_is_case_insensitive() {
        let schema = test_schema();
        assert_eq!(schema.col_index("ID"), Some(0));
        assert_eq!(schema.col_index("V"), Some(2));
        assert_eq!(schema.col_index("nope"), None);
    }
}
