//! Convenience constructors mirroring the T-SQL creation functions.
//!
//! The original library exposes `Vector_1 .. Vector_N` and `Matrix_N`
//! because T-SQL lacks variadic UDFs (§5.1). In Rust a slice covers all
//! arities, so [`vector`] replaces the whole numbered family.

use crate::array::SqlArray;
use crate::element::Element;
use crate::errors::Result;
use crate::header::StorageClass;

/// Creates a 1-D array (`Vector_N`).
pub fn vector<T: Element>(class: StorageClass, items: &[T]) -> Result<SqlArray> {
    SqlArray::from_vec(class, &[items.len()], items)
}

/// Creates a short-class vector; the most common case in the paper's
/// examples (`FloatArray.Vector_5(1.0, ..., 5.0)`).
pub fn short_vector<T: Element>(items: &[T]) -> Result<SqlArray> {
    vector(StorageClass::Short, items)
}

/// Creates a max-class vector.
pub fn max_vector<T: Element>(items: &[T]) -> Result<SqlArray> {
    vector(StorageClass::Max, items)
}

/// Creates an `rows × cols` matrix from items listed in *row-major* order
/// (the order a T-SQL caller writes them: `Matrix_2(0.1, 0.2, 0.3, 0.4)` is
/// the matrix [[0.1, 0.2], [0.3, 0.4]]). Storage is column-major. The
/// tests' matrix builder.
#[cfg(test)]
pub(crate) fn matrix<T: Element>(
    class: StorageClass,
    rows: usize,
    cols: usize,
    row_major_items: &[T],
) -> Result<SqlArray> {
    use crate::errors::ArrayError;
    if rows * cols != row_major_items.len() {
        return Err(ArrayError::CountMismatch {
            dims_product: rows * cols,
            count: row_major_items.len(),
        });
    }
    SqlArray::from_fn(class, &[rows, cols], |idx| {
        row_major_items[idx[0] * cols + idx[1]]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    #[test]
    fn vector_matches_paper_example() {
        // FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0); Item_1(@a, 3) = 4.0
        // (zero indexed "third" element in the paper's wording).
        let a = short_vector(&[1.0f64, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(a.item(&[3]).unwrap(), Scalar::F64(4.0));
        assert_eq!(a.dims(), &[5]);
    }

    #[test]
    fn matrix_matches_paper_example() {
        // FloatArray.Matrix_2(0.1, 0.2, 0.3, 0.4) builds a 2x2 from the
        // listed elements; Item_2(@m, 1, 0) is row 1, column 0 = 0.3.
        let m = matrix(StorageClass::Short, 2, 2, &[0.1f64, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(m.item(&[1, 0]).unwrap(), Scalar::F64(0.3));
        assert_eq!(m.item(&[0, 1]).unwrap(), Scalar::F64(0.2));
        // Storage itself is column-major: 0.1, 0.3, 0.2, 0.4.
        assert_eq!(m.to_vec::<f64>().unwrap(), vec![0.1, 0.3, 0.2, 0.4]);
    }

    #[test]
    fn matrix_rejects_wrong_item_count() {
        assert!(matrix(StorageClass::Short, 2, 2, &[1.0f64]).is_err());
    }
}
