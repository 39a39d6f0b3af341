//! Array ⇄ rowset conversion (`ToTable`, `Concat`).
//!
//! "Arrays can be created from row-by-row data stored in a table [...] the
//! array is assembled from a table which has two columns: one containing the
//! index of the item (as an array of two integers) and the value" and
//! "arrays can be converted to tables by various table-valued functions,
//! e.g. ToTable, MatrixToTable" (§5.1).

use crate::array::SqlArray;
use crate::element::ElementType;
use crate::errors::{ArrayError, Result};
use crate::header::StorageClass;
use crate::scalar::Scalar;

/// One row of the table form of an array: the multi-index and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRow {
    /// Multi-dimensional index of the element.
    pub index: Vec<usize>,
    /// The element value.
    pub value: Scalar,
}

/// Explodes an array into `(index, value)` rows in column-major order — the
/// `ToTable` table-valued function.
pub fn to_table(a: &SqlArray) -> Vec<ArrayRow> {
    (0..a.count())
        .map(|lin| ArrayRow {
            index: a.shape().multi_index(lin),
            value: a.item_linear(lin),
        })
        .collect()
}

/// Explodes a 2-D array into `(row, col, value)` triples — the
/// `MatrixToTable` convenience form.
pub fn matrix_to_table(a: &SqlArray) -> Result<Vec<(usize, usize, Scalar)>> {
    if a.rank() != 2 {
        return Err(ArrayError::BadRank {
            rank: a.rank(),
            max: 2,
        });
    }
    Ok(to_table(a)
        .into_iter()
        .map(|r| (r.index[0], r.index[1], r.value))
        .collect())
}

/// Assembles an array from indexed rows — the `Concat` operation. Rows may
/// arrive in any order; each cell must be written exactly once. Cells the
/// rows never touch are zero (SQL groups with missing members), but a row
/// count that differs from the cell count is reported so bulk loaders catch
/// dropped rows.
pub fn from_rows(
    class: StorageClass,
    elem: ElementType,
    dims: &[usize],
    rows: &[ArrayRow],
) -> Result<SqlArray> {
    let mut a = SqlArray::zeros(class, elem, dims)?;
    let mut seen = vec![false; a.count()];
    for row in rows {
        let lin = a.shape().linear_index(&row.index)?;
        if seen[lin] {
            return Err(ArrayError::Parse(format!(
                "duplicate index {:?} in row stream",
                row.index
            )));
        }
        seen[lin] = true;
        a.update_item(&row.index, row.value)?;
    }
    Ok(a)
}

/// Streaming builder used by the engine's `Concat` implementations: rows
/// are appended one at a time. The builder mirrors the *scalar-function*
/// strategy the paper adopted after user-defined aggregates proved
/// prohibitively slow (§4.2): state lives in memory between rows, with no
/// per-row serialization.
#[derive(Debug)]
pub struct ConcatBuilder {
    array: SqlArray,
    filled: usize,
    seen: Vec<bool>,
    /// True once [`push_next`](Self::push_next) has been used: the builder
    /// is filling linear positions in row-stream order, which changes how
    /// two partial builders [`merge`](Self::merge).
    sequential: bool,
}

impl ConcatBuilder {
    /// Starts building an array of the given type and shape.
    pub fn new(class: StorageClass, elem: ElementType, dims: &[usize]) -> Result<Self> {
        let array = SqlArray::zeros(class, elem, dims)?;
        let n = array.count();
        Ok(ConcatBuilder {
            array,
            filled: 0,
            seen: vec![false; n],
            sequential: false,
        })
    }

    /// Appends one `(index, value)` row.
    pub fn push(&mut self, index: &[usize], value: Scalar) -> Result<()> {
        let lin = self.array.shape().linear_index(index)?;
        if self.seen[lin] {
            return Err(ArrayError::Parse(format!(
                "duplicate index {index:?} in row stream"
            )));
        }
        self.seen[lin] = true;
        self.filled += 1;
        self.array.update_item(index, value)
    }

    /// Appends a value at the next linear position (for single-column row
    /// streams ordered by the clustered index).
    pub fn push_next(&mut self, value: Scalar) -> Result<()> {
        if self.filled >= self.array.count() {
            return Err(ArrayError::IndexOutOfBounds {
                axis: 0,
                index: self.filled,
                size: self.array.count(),
            });
        }
        let lin = self.filled;
        let idx = self.array.shape().multi_index(lin);
        self.seen[lin] = true;
        self.filled += 1;
        self.sequential = true;
        self.array.update_item(&idx, value)
    }

    /// Combines a partial builder produced by a later scan partition into
    /// this one — the parallel-aggregation combine step.
    ///
    /// Indexed builders ([`push`](Self::push)) take the union of filled
    /// cells; a duplicate cell is an error, exactly as in the serial row
    /// stream. Sequential builders ([`push_next`](Self::push_next)) append:
    /// `other`'s first `other.len()` values continue at this builder's
    /// cursor, so merging partials in partition order reproduces the serial
    /// scan order bit for bit. Mixing the two modes across partials is
    /// rejected.
    pub fn merge(&mut self, other: &ConcatBuilder) -> Result<()> {
        if other.filled == 0 {
            return Ok(());
        }
        if self.array.shape().dims() != other.array.shape().dims() {
            return Err(ArrayError::ShapeMismatch {
                left: self.array.dims().to_vec(),
                right: other.array.dims().to_vec(),
            });
        }
        if self.filled > 0 && self.sequential != other.sequential {
            return Err(ArrayError::Parse(
                "cannot merge sequential and indexed Concat partials".into(),
            ));
        }
        if other.sequential {
            for lin in 0..other.filled {
                self.push_next(other.array.item_linear(lin))?;
            }
        } else {
            for (lin, seen) in other.seen.iter().enumerate() {
                if *seen {
                    let idx = self.array.shape().multi_index(lin);
                    self.push(&idx, other.array.item_linear(lin))?;
                }
            }
        }
        Ok(())
    }

    /// Number of rows consumed so far.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True if no rows have been consumed.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Finishes, returning the assembled array.
    pub fn finish(self) -> SqlArray {
        self.array
    }

    /// Serializes the builder state (the array-so-far plus the fill map).
    /// Exists only to model SQL Server's per-row UDA state serialization —
    /// the pathology quantified by experiment E5.
    pub fn serialize_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.array.as_blob().len() + self.seen.len() + 9);
        out.push(self.sequential as u8);
        out.extend_from_slice(&(self.filled as u64).to_le_bytes());
        out.extend_from_slice(self.array.as_blob());
        out.extend(self.seen.iter().map(|&b| b as u8));
        out
    }

    /// Rebuilds a builder from serialized state (the matching
    /// deserialization half of the UDA model).
    pub fn deserialize_state(buf: &[u8]) -> Result<Self> {
        if buf.len() < 9 {
            return Err(ArrayError::Io("truncated builder state".into()));
        }
        let sequential = buf[0] != 0;
        let filled = crate::le::u64_at(buf, 1) as usize;
        let rest = &buf[9..];
        // The array blob length is self-describing; decode its header to
        // find the split point.
        let header = crate::header::Header::decode(rest)?;
        let blob_len = header.blob_len();
        if rest.len() < blob_len + header.shape.count() {
            return Err(ArrayError::Io("truncated builder state".into()));
        }
        let array = SqlArray::from_blob(rest[..blob_len].to_vec())?;
        let seen: Vec<bool> = rest[blob_len..blob_len + array.count()]
            .iter()
            .map(|&b| b != 0)
            .collect();
        // `filled` and `sequential` are not trusted either: a merge reads
        // the first `filled` cells (sequential) or the `seen` ones, so the
        // count must be what `seen` marks (and so at most the cell count)
        // and a sequential fill a prefix.
        let marked = seen.iter().filter(|&&b| b).count();
        if filled != marked || (sequential && !seen[..filled].iter().all(|&b| b)) {
            return Err(ArrayError::Io("corrupt builder state".into()));
        }
        Ok(ConcatBuilder {
            array,
            filled,
            seen,
            sequential,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::matrix;

    #[test]
    fn to_table_lists_column_major() {
        let m = matrix(StorageClass::Short, 2, 2, &[1.0f64, 2.0, 3.0, 4.0]).unwrap();
        let rows = to_table(&m);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].index, vec![0, 0]);
        assert_eq!(rows[1].index, vec![1, 0]);
        assert_eq!(rows[1].value, Scalar::F64(3.0)); // row 1, col 0
    }

    #[test]
    fn table_round_trip() {
        let m = matrix(StorageClass::Short, 3, 2, &[1i32, 2, 3, 4, 5, 6]).unwrap();
        let rows = to_table(&m);
        let back = from_rows(m.class(), m.elem(), m.dims(), &rows).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn from_rows_any_order_and_duplicates() {
        let mut rows = vec![
            ArrayRow {
                index: vec![1],
                value: Scalar::F64(20.0),
            },
            ArrayRow {
                index: vec![0],
                value: Scalar::F64(10.0),
            },
        ];
        let a = from_rows(StorageClass::Short, ElementType::Float64, &[2], &rows).unwrap();
        assert_eq!(a.to_vec::<f64>().unwrap(), vec![10.0, 20.0]);

        rows.push(ArrayRow {
            index: vec![0],
            value: Scalar::F64(99.0),
        });
        assert!(from_rows(StorageClass::Short, ElementType::Float64, &[2], &rows).is_err());
    }

    #[test]
    fn matrix_to_table_requires_rank_2() {
        let v = crate::build::short_vector(&[1.0f64]).unwrap();
        assert!(matrix_to_table(&v).is_err());
        let m = matrix(StorageClass::Short, 1, 1, &[5.0f64]).unwrap();
        assert_eq!(matrix_to_table(&m).unwrap(), vec![(0, 0, Scalar::F64(5.0))]);
    }

    #[test]
    fn concat_builder_sequential() {
        // The paper's Concat example: a 100x200 array assembled from rows.
        let mut b = ConcatBuilder::new(StorageClass::Max, ElementType::Float64, &[4, 3]).unwrap();
        for i in 0..12 {
            b.push_next(Scalar::F64(i as f64)).unwrap();
        }
        assert_eq!(b.len(), 12);
        let a = b.finish();
        assert_eq!(a.item(&[0, 0]).unwrap(), Scalar::F64(0.0));
        assert_eq!(a.item(&[3, 2]).unwrap(), Scalar::F64(11.0));
    }

    #[test]
    fn concat_builder_overflow() {
        let mut b = ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[2]).unwrap();
        b.push_next(Scalar::I32(1)).unwrap();
        b.push_next(Scalar::I32(2)).unwrap();
        assert!(b.push_next(Scalar::I32(3)).is_err());
    }

    #[test]
    fn builder_state_round_trip() {
        let mut b = ConcatBuilder::new(StorageClass::Short, ElementType::Float64, &[2, 2]).unwrap();
        b.push(&[0, 1], Scalar::F64(7.0)).unwrap();
        let state = b.serialize_state();
        let mut b2 = ConcatBuilder::deserialize_state(&state).unwrap();
        b2.push(&[1, 1], Scalar::F64(8.0)).unwrap();
        let a = b2.finish();
        assert_eq!(a.item(&[0, 1]).unwrap(), Scalar::F64(7.0));
        assert_eq!(a.item(&[1, 1]).unwrap(), Scalar::F64(8.0));
        assert_eq!(a.item(&[0, 0]).unwrap(), Scalar::F64(0.0));
    }

    #[test]
    fn sequential_merge_appends_in_partition_order() {
        // Three partial builders, as three scan partitions would produce.
        let mut parts: Vec<ConcatBuilder> = Vec::new();
        let splits = [0..4usize, 4..5, 5..12];
        for r in &splits {
            let mut b =
                ConcatBuilder::new(StorageClass::Max, ElementType::Float64, &[4, 3]).unwrap();
            for i in r.clone() {
                b.push_next(Scalar::F64(i as f64)).unwrap();
            }
            parts.push(b);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p).unwrap();
        }
        let mut serial =
            ConcatBuilder::new(StorageClass::Max, ElementType::Float64, &[4, 3]).unwrap();
        for i in 0..12 {
            serial.push_next(Scalar::F64(i as f64)).unwrap();
        }
        assert_eq!(merged.finish().as_blob(), serial.finish().as_blob());
    }

    #[test]
    fn indexed_merge_unions_cells_and_rejects_duplicates() {
        let mut a = ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[4]).unwrap();
        a.push(&[0], Scalar::I32(10)).unwrap();
        let mut b = ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[4]).unwrap();
        b.push(&[2], Scalar::I32(30)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 2);
        let mut dup = ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[4]).unwrap();
        dup.push(&[0], Scalar::I32(99)).unwrap();
        assert!(a.merge(&dup).is_err());
        let arr = a.finish();
        assert_eq!(arr.item(&[0]).unwrap(), Scalar::I32(10));
        assert_eq!(arr.item(&[2]).unwrap(), Scalar::I32(30));
    }

    #[test]
    fn merge_rejects_mixed_modes_and_shapes() {
        let mut seq = ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[4]).unwrap();
        seq.push_next(Scalar::I32(1)).unwrap();
        let mut idx = ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[4]).unwrap();
        idx.push(&[3], Scalar::I32(2)).unwrap();
        assert!(seq.merge(&idx).is_err());
        let mut other_shape =
            ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[5]).unwrap();
        other_shape.push_next(Scalar::I32(7)).unwrap();
        assert!(seq.merge(&other_shape).is_err());
        // Merging an empty partial is always a no-op.
        let empty = ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[4]).unwrap();
        seq.merge(&empty).unwrap();
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn builder_rejects_duplicate_cell() {
        let mut b = ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[2]).unwrap();
        b.push(&[0], Scalar::I32(1)).unwrap();
        assert!(b.push(&[0], Scalar::I32(2)).is_err());
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(ConcatBuilder::deserialize_state(&[1, 2, 3]).is_err());
        let mut b = ConcatBuilder::new(StorageClass::Short, ElementType::Int32, &[2]).unwrap();
        b.push_next(Scalar::I32(5)).unwrap();
        let mut state = b.serialize_state();
        state.truncate(state.len() - 1);
        assert!(ConcatBuilder::deserialize_state(&state).is_err());
    }
}
