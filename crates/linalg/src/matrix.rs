//! Dense column-major matrices.
//!
//! Column-major is the point: the array library stores elements "in a
//! column major order commonly used by math libraries written in FORTRAN
//! such as LAPACK" so that "interfacing with LAPACK is exceptionally easy,
//! no transformation of the in-memory data is necessary" (§3.5, §5.3).
//! [`Matrix`] adopts the same layout, so an array blob's payload *is* a
//! valid matrix buffer.

use std::fmt;

/// A dense `rows × cols` matrix of `f64`, stored column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from a column-major buffer (the layout of an array blob
    /// payload).
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds from row-major literals (convenient in tests).
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[&[f64]]) -> Matrix {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut m = Matrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged row {i}");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Builds by evaluating `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// The raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows column `j` as a contiguous slice — free in this layout.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable column view.
    #[inline]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Max absolute elementwise difference to another matrix of the same
    /// shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.col(0), &[1.0, 3.0]);
    }

    #[test]
    fn identity_and_zeros() {
        let i = Matrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 2), 0.0);
        assert!(Matrix::zeros(2, 3).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.get(4, 2), m.get(2, 4));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn from_col_major_round_trip() {
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = Matrix::from_col_major(2, 3, data.clone());
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.as_slice(), &data[..]);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_col_major_checks_len() {
        let _ = Matrix::from_col_major(2, 2, vec![1.0]);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = Matrix::identity(2);
        let mut b = Matrix::identity(2);
        b.set(0, 1, 0.25);
        assert_eq!(a.max_abs_diff(&b), 0.25);
    }
}
