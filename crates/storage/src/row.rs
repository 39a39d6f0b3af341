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
use sqlarray_core::batch::{Batch, BytesVec, ColVec, LobRef};

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

impl From<RowValueRef<'_>> for RowValue {
    fn from(v: RowValueRef<'_>) -> RowValue {
        match v {
            RowValueRef::I64(x) => RowValue::I64(x),
            RowValueRef::I32(x) => RowValue::I32(x),
            RowValueRef::F64(x) => RowValue::F64(x),
            RowValueRef::F32(x) => RowValue::F32(x),
            RowValueRef::Bytes(b) => RowValue::Bytes(b.to_vec()),
            RowValueRef::LobRef(id, len) => RowValue::LobRef(id, len),
        }
    }
}

// Value tags inside encoded blob columns.
const BLOB_INLINE: u8 = 0;
const BLOB_LOB: u8 = 1;

/// Encodes a row. Blob values larger than the in-row limit are written to
/// the LOB store as a side effect.
// lint:allow(L011, reason = "crates/storage/tests/proptests.rs and crash_matrix.rs encode the rows they insert")
pub fn encode_row(store: &mut PageStore, schema: &Schema, values: &[RowValue]) -> Result<Vec<u8>> {
    encode_row_impl(Some(store), schema, values)
}

/// Encodes a row **without** touching the store — the pure-CPU path the
/// parallel bulk loader fans out over worker threads. Oversized blob
/// values are an error here; [`Table::bulk_load`](crate::Table::bulk_load)
/// spills them to the LOB store in a serial pre-pass (replacing them with
/// [`RowValue::LobRef`]) before handing rows to the workers.
pub(crate) fn encode_row_inline(schema: &Schema, values: &[RowValue]) -> Result<Vec<u8>> {
    encode_row_impl(None, schema, values)
}

/// Computes the encoded length of a row **without encoding it** (and
/// without touching any store), validating arity and column types along
/// the way. Oversized blob values are costed as LOB pointers (17 bytes),
/// matching what [`encode_row`] produces after spilling; a row longer
/// than a leaf record holds ([`MAX_PAYLOAD`](crate::btree::MAX_PAYLOAD))
/// is [`StorageError::RecordTooLarge`]. This is every writer's pre-flight
/// check, run before any store mutation.
///
/// Kept adjacent to `encode_row_impl` because the two must agree
/// byte-for-byte; `encoded_len_matches_encoding` pins that.
pub(crate) fn encoded_len(schema: &Schema, values: &[RowValue]) -> Result<usize> {
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
    let limit = crate::btree::MAX_PAYLOAD;
    if len > limit {
        return Err(StorageError::RecordTooLarge { bytes: len, limit });
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
    decode_col_ref(schema, bytes, col_idx).map(RowValue::from)
}

/// [`decode_col`] without a copy: an inline blob comes back borrowed from
/// the row image (a UDF argument is read where it lies).
pub fn decode_col_ref<'a>(
    schema: &Schema,
    bytes: &'a [u8],
    col_idx: usize,
) -> Result<RowValueRef<'a>> {
    if col_idx >= schema.columns.len() {
        return Err(StorageError::SchemaMismatch(format!(
            "column index {col_idx} out of range"
        )));
    }
    let mut off = 0usize;
    for (i, col) in schema.columns.iter().enumerate() {
        if i == col_idx {
            let (v, _) = decode_value_ref(col.ctype, bytes, off, &col.name)?;
            return Ok(v);
        }
        off = skip_value(col.ctype, bytes, off, &col.name)?;
    }
    unreachable!("col_idx checked above")
}

/// Appends the LOB ids a row references to `out`, without materializing any
/// inline payloads. `UPDATE`/`DELETE` walk old and new images through this
/// to free orphaned blobs.
pub(crate) fn lob_refs(schema: &Schema, bytes: &[u8], out: &mut Vec<BlobId>) -> Result<()> {
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

/// Where one leaf record stands in a [`BatchDecoder::fill`]: byte offsets
/// into the record's page.
#[derive(Debug, Clone, Copy)]
pub struct RowCursor {
    /// The first byte of the next undecoded column.
    pub at: u32,
    /// One past the record's last byte.
    pub end: u32,
}

/// One column's turn in a [`BatchDecoder::fill`].
#[derive(Debug, Clone)]
struct Step {
    /// Schema index of the column.
    col: usize,
    /// Byte offset of the column from the row cursor when the step runs.
    off: usize,
    /// Batch column to append to; `None` for a `Blob` that is only stepped
    /// over to reach a projected column behind it.
    pos: Option<usize>,
    /// `Blob` steps: bytes of the fixed-width columns between this one and
    /// the next `Blob` step (or the last projected column), checked per
    /// row as the cursor moves past the cell.
    tail: usize,
}

fn fixed_width(ctype: ColType) -> Option<usize> {
    match ctype {
        ColType::I64 | ColType::F64 => Some(8),
        ColType::I32 | ColType::F32 => Some(4),
        ColType::Blob => None,
    }
}

/// Decodes the projected columns of one leaf's records straight into a
/// batch's column vectors, a column at a time: a fixed-width column sits at
/// a constant offset from the row cursor, so its lane is one `extend` over
/// the cursors with no per-row schema walk, type match or length check; a
/// `Blob` reads its tag and length at the cursor and moves the cursor past
/// the cell, which puts the columns behind it at constant offsets again.
/// Columns past the last projected one are never touched.
#[derive(Debug, Clone)]
pub struct BatchDecoder<'a> {
    schema: &'a Schema,
    /// The projected columns and the `Blob`s before them, in schema order.
    steps: Vec<Step>,
    /// Bytes of the fixed-width columns before the first step that moves
    /// the cursor; every row must hold them before any lane is filled.
    fixed_prefix: usize,
}

impl<'a> BatchDecoder<'a> {
    /// Builds a decoder for the given projected schema indices (`cols` must
    /// match the column order used for [`new_batch`]).
    pub fn new(schema: &'a Schema, cols: &[usize]) -> Result<BatchDecoder<'a>> {
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
        let mut steps: Vec<Step> = Vec::with_capacity(cols.len());
        let mut fixed_prefix = 0;
        // Bytes from the cursor to the column at hand, and the step that
        // last moved the cursor.
        let mut off = 0;
        let mut moved_by: Option<usize> = None;
        let walked = last.map_or(0, |l| l + 1);
        for (col, c) in schema.columns.iter().enumerate().take(walked) {
            let pos = dir[col];
            let width = fixed_width(c.ctype);
            if width.is_none() {
                // A `Blob` ends the run of fixed-width columns before it.
                match moved_by {
                    Some(b) => steps[b].tail = off,
                    None => fixed_prefix = off,
                }
                moved_by = Some(steps.len());
            }
            if width.is_none() || pos.is_some() {
                steps.push(Step {
                    col,
                    off,
                    pos,
                    tail: 0,
                });
            }
            off = width.map_or(0, |w| off + w);
        }
        match moved_by {
            Some(b) => steps[b].tail = off,
            None => fixed_prefix = off,
        }
        Ok(BatchDecoder {
            schema,
            steps,
            fixed_prefix,
        })
    }

    /// Bytes every row holds past its cursor before [`fill`](Self::fill)
    /// may run — the caller's one check per record, failing with
    /// [`truncated`](Self::truncated).
    pub(crate) fn fixed_prefix(&self) -> usize {
        self.fixed_prefix
    }

    /// The error for a row with only `have` bytes where the fixed-width
    /// columns from schema index `first` on need more: names the first
    /// column that does not fit, as the row-at-a-time decoders do.
    #[cold]
    pub(crate) fn truncated(&self, first: usize, have: usize) -> StorageError {
        let mut room = have;
        let mut name = "?";
        for c in self.schema.columns.iter().skip(first) {
            name = &c.name;
            match fixed_width(c.ctype) {
                Some(w) if w <= room => room -= w,
                _ => break,
            }
        }
        truncated_in(name)
    }

    /// Appends the projected columns of `rows` — records of `page`, each
    /// cursor on its first column with `fixed_prefix`
    /// bytes checked — to `out`, one column at a time. Leaves the cursors
    /// wherever the last `Blob` step moved them.
    pub fn fill(&self, page: &[u8], rows: &mut [RowCursor], out: &mut [ColVec]) -> Result<()> {
        use sqlarray_core::le;
        for step in &self.steps {
            let col = &self.schema.columns[step.col];
            let off = step.off;
            let at = |r: &RowCursor| r.at as usize + off;
            let lane = match step.pos {
                Some(pos) => out.get_mut(pos),
                None => None,
            };
            match (col.ctype, lane) {
                (ColType::I64, Some(ColVec::I64(v))) => {
                    v.extend(rows.iter().map(|r| le::i64_at(page, at(r))))
                }
                (ColType::I32, Some(ColVec::I32(v))) => {
                    v.extend(rows.iter().map(|r| le::i32_at(page, at(r))))
                }
                (ColType::F64, Some(ColVec::F64(v))) => {
                    v.extend(rows.iter().map(|r| le::f64_at(page, at(r))))
                }
                (ColType::F32, Some(ColVec::F32(v))) => {
                    v.extend(rows.iter().map(|r| le::f32_at(page, at(r))))
                }
                (ColType::Blob, Some(ColVec::Blob { bytes, lob })) => {
                    self.blob_step(page, rows, step, |cell, lob_ref| {
                        bytes.push(cell);
                        lob.push(lob_ref);
                    })?
                }
                (ColType::Blob, None) if step.pos.is_none() => {
                    self.blob_step(page, rows, step, |_, _| {})?
                }
                (t, _) => {
                    return Err(StorageError::SchemaMismatch(format!(
                        "the batch has no {t:?} column where `{}` is projected to",
                        col.name
                    )))
                }
            }
        }
        Ok(())
    }

    /// Reads one `Blob` column of every row at its cursor, hands the cell
    /// to `sink`, and moves the cursor past it — checking there that the
    /// fixed-width columns up to the next step fit, so their lanes fill
    /// unchecked.
    fn blob_step<'p>(
        &self,
        page: &'p [u8],
        rows: &mut [RowCursor],
        step: &Step,
        mut sink: impl FnMut(&'p [u8], Option<LobRef>),
    ) -> Result<()> {
        let name = &self.schema.columns[step.col].name;
        for r in rows {
            let rec = &page[..r.end as usize];
            let (cell, lob_ref, next) = blob_cell(rec, r.at as usize + step.off, name)?;
            if next + step.tail > rec.len() {
                return Err(self.truncated(step.col + 1, rec.len() - next));
            }
            // `next <= rec.len() == r.end`, so it fits the cursor.
            r.at = next as u32;
            sink(cell, lob_ref);
        }
        Ok(())
    }
}

#[cold]
fn truncated_in(name: &str) -> StorageError {
    StorageError::RowCorrupt(format!("row truncated in column `{name}`"))
}

#[inline]
fn need(bytes: &[u8], off: usize, n: usize, name: &str) -> Result<()> {
    if off + n > bytes.len() {
        return Err(truncated_in(name));
    }
    Ok(())
}

fn decode_value(ctype: ColType, bytes: &[u8], off: usize, name: &str) -> Result<(RowValue, usize)> {
    let (v, next) = decode_value_ref(ctype, bytes, off, name)?;
    Ok((v.into(), next))
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
            let (cell, lob_ref, next) = blob_cell(bytes, off, name)?;
            let v = match lob_ref {
                Some((id, len)) => RowValueRef::LobRef(id, len),
                None => RowValueRef::Bytes(cell),
            };
            Ok((v, next))
        }
    }
}

/// Reads the blob cell at `off` the way a batch lane stores it: the in-row
/// payload (empty for a value kept out of row), the LOB reference (for one
/// that is), and the offset one past the cell.
fn blob_cell<'a>(
    bytes: &'a [u8],
    off: usize,
    name: &str,
) -> Result<(&'a [u8], Option<LobRef>, usize)> {
    need(bytes, off, 1, name)?;
    match bytes[off] {
        BLOB_INLINE => {
            need(bytes, off + 1, 2, name)?;
            let len = sqlarray_core::le::u16_at(bytes, off + 1) as usize;
            need(bytes, off + 3, len, name)?;
            Ok((&bytes[off + 3..off + 3 + len], None, off + 3 + len))
        }
        BLOB_LOB => {
            need(bytes, off + 1, 16, name)?;
            let id = sqlarray_core::le::u64_at(bytes, off + 1);
            let len = sqlarray_core::le::u64_at(bytes, off + 9);
            Ok((&[], Some((id, len)), off + 17))
        }
        tag => Err(unknown_blob_tag(tag, name)),
    }
}

#[cold]
fn unknown_blob_tag(tag: u8, name: &str) -> StorageError {
    StorageError::RowCorrupt(format!("unknown blob tag {tag} in column `{name}`"))
}

fn skip_value(ctype: ColType, bytes: &[u8], off: usize, name: &str) -> Result<usize> {
    match fixed_width(ctype) {
        Some(width) => {
            need(bytes, off, width, name)?;
            Ok(off + width)
        }
        None => blob_cell(bytes, off, name).map(|(_, _, next)| next),
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
        // Arity and type mismatches, and a row past the leaf-record
        // limit, are caught without a store.
        assert!(encoded_len(&schema, &[RowValue::I64(1)]).is_err());
        let wide = Schema::new(&[("a", ColType::Blob), ("b", ColType::Blob)]);
        let halves = [
            RowValue::Bytes(vec![1; 5000]),
            RowValue::Bytes(vec![2; 5000]),
        ];
        assert!(matches!(
            encoded_len(&wide, &halves),
            Err(StorageError::RecordTooLarge { bytes: 10_006, .. })
        ));
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
        // A stand-in for a leaf page: the encoded rows end to end, one
        // cursor per row.
        let mut page = Vec::new();
        let mut cursors = Vec::new();
        for r in &rows {
            let at = page.len() as u32;
            page.extend(encode_row(&mut store, &schema, r).unwrap());
            let end = page.len() as u32;
            assert!((end - at) as usize >= dec.fixed_prefix());
            cursors.push(RowCursor { at, end });
        }
        assert_eq!(dec.fixed_prefix(), 16, "id and x sit before the blob");
        dec.fill(&page, &mut cursors, &mut batch.cols).unwrap();
        assert!(
            cursors.iter().all(|c| c.at + 4 == c.end),
            "the blob step leaves each cursor on `n`"
        );
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
        // An empty projection has nothing to check and nothing to fill.
        let empty = BatchDecoder::new(&schema, &[]).unwrap();
        assert_eq!(empty.fixed_prefix(), 0);
        empty.fill(&page, &mut cursors, &mut []).unwrap();

        // A row cut short names the first column that no longer fits, in
        // the fixed prefix and behind the blob alike, as `decode_col` does.
        let whole = encode_row(&mut store, &schema, &rows[0]).unwrap();
        for cut in [0, 7, 8, 15, 16, 18, 21, whole.len() - 1] {
            let bytes = &whole[..cut];
            let want = decode_col(&schema, bytes, 3).unwrap_err().to_string();
            let got = if cut < dec.fixed_prefix() {
                dec.truncated(0, cut)
            } else {
                let mut one = [RowCursor {
                    at: 0,
                    end: cut as u32,
                }];
                let mut scratch = new_batch(&schema, &cols).unwrap();
                dec.fill(bytes, &mut one, &mut scratch.cols).unwrap_err()
            };
            assert_eq!(got.to_string(), want, "cut at {cut}");
        }
    }

    #[test]
    fn col_index_is_case_insensitive() {
        let schema = test_schema();
        assert_eq!(schema.col_index("ID"), Some(0));
        assert_eq!(schema.col_index("V"), Some(2));
        assert_eq!(schema.col_index("nope"), None);
    }
}
