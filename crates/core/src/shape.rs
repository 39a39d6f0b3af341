//! Shapes, column-major strides and index arithmetic.
//!
//! Array items are stored "consecutively in a column-major order commonly
//! used by math libraries written in FORTRAN such as LAPACK" (§3.5): the
//! *first* index varies fastest. All linearization in the crate goes through
//! this module.

use crate::errors::{ArrayError, Result};

/// The shape (per-dimension sizes) of an array.
///
/// Invariants enforced at construction: rank ≥ 1 and every dimension ≥ 1,
/// and the total element count does not overflow `usize`.
///
/// A shape of rank ≤ `INLINE_RANK` (every short array's) keeps its
/// dimensions inline, so decoding a header allocates nothing; a higher
/// rank holds them on the heap. The element count is computed once, when
/// the shape is built.
#[derive(Clone)]
pub struct Shape {
    /// Number of dimensions.
    rank: usize,
    /// Product of the dimensions.
    count: usize,
    /// The dimensions, when `rank ≤ INLINE_RANK` (zero past `rank`).
    inline: [usize; INLINE_RANK],
    /// The dimensions, when `rank > INLINE_RANK` (empty otherwise).
    heap: Vec<usize>,
}

/// The largest rank a [`Shape`] holds without a heap block: the short
/// class's rank limit.
pub(crate) const INLINE_RANK: usize = crate::header::SHORT_MAX_RANK;

impl PartialEq for Shape {
    fn eq(&self, other: &Shape) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for Shape {}

impl std::hash::Hash for Shape {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.dims().hash(state)
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shape").field("dims", &self.dims()).finish()
    }
}

impl Shape {
    /// Creates a shape, validating the invariants.
    pub fn new(dims: &[usize]) -> Result<Shape> {
        if dims.len() > INLINE_RANK {
            return Shape::from_vec(dims.to_vec());
        }
        let mut inline = [0usize; INLINE_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape::inline(inline, dims.len())
    }

    /// [`new`](Self::new) over an already-owned dimension list (a high
    /// rank keeps the list instead of copying it).
    pub(crate) fn from_vec(dims: Vec<usize>) -> Result<Shape> {
        let count = product(&dims)?;
        Ok(Shape::checked(dims, count))
    }

    /// A dimension list already checked to multiply to `count`, inline
    /// when it fits.
    fn checked(dims: Vec<usize>, count: usize) -> Shape {
        let (rank, mut inline) = (dims.len(), [0; INLINE_RANK]);
        let heap = if rank <= INLINE_RANK {
            inline[..rank].copy_from_slice(&dims);
            Vec::new()
        } else {
            dims
        };
        Shape {
            rank,
            count,
            inline,
            heap,
        }
    }

    /// [`new`](Self::new) over the first `rank` (≤ [`INLINE_RANK`]) of
    /// `inline`'s dimensions, the rest zero, moved in as they are (header
    /// decode gathers them in such a buffer).
    #[inline]
    pub(crate) fn inline(inline: [usize; INLINE_RANK], rank: usize) -> Result<Shape> {
        Ok(Shape {
            rank,
            count: product(&inline[..rank])?,
            inline,
            heap: Vec::new(),
        })
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The per-dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        if self.rank <= INLINE_RANK {
            &self.inline[..self.rank]
        } else {
            &self.heap
        }
    }

    /// Total number of elements (product of the dimensions).
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Column-major strides, in *elements*: `stride[0] = 1`,
    /// `stride[k] = stride[k-1] * dims[k-1]`.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut s = Vec::with_capacity(self.rank());
        let mut acc = 1usize;
        for &d in self.dims() {
            s.push(acc);
            acc *= d;
        }
        s
    }

    /// Linearizes a multi-index into an element offset, validating rank and
    /// bounds (this is the `Item_N` address computation).
    pub(crate) fn linear_index(&self, idx: &[usize]) -> Result<usize> {
        if idx.len() != self.rank() {
            return Err(ArrayError::IndexRankMismatch {
                got: idx.len(),
                rank: self.rank(),
            });
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for (axis, (&i, &d)) in idx.iter().zip(self.dims()).enumerate() {
            if i >= d {
                return Err(ArrayError::IndexOutOfBounds {
                    axis,
                    index: i,
                    size: d,
                });
            }
            off += i * stride;
            stride *= d;
        }
        Ok(off)
    }

    /// Inverse of `linear_index`: recovers the
    /// multi-index of a linear offset.
    pub fn multi_index(&self, mut linear: usize) -> Vec<usize> {
        assert!(linear < self.count());
        let mut idx = Vec::with_capacity(self.rank());
        for &d in self.dims() {
            idx.push(linear % d);
            linear /= d;
        }
        idx
    }

    /// Validates a rectangular subarray request and returns the shape of the
    /// result (before any squeeze).
    pub(crate) fn validate_subarray(&self, offset: &[usize], size: &[usize]) -> Result<Shape> {
        if offset.len() != self.rank() {
            return Err(ArrayError::IndexRankMismatch {
                got: offset.len(),
                rank: self.rank(),
            });
        }
        if size.len() != self.rank() {
            return Err(ArrayError::IndexRankMismatch {
                got: size.len(),
                rank: self.rank(),
            });
        }
        for axis in 0..self.rank() {
            if size[axis] == 0 {
                return Err(ArrayError::BadDimension { dim: axis, size: 0 });
            }
            if offset[axis] + size[axis] > self.dims()[axis] {
                return Err(ArrayError::SubarrayOutOfBounds {
                    axis,
                    offset: offset[axis],
                    size: size[axis],
                    dim: self.dims()[axis],
                });
            }
        }
        Shape::new(size)
    }

    /// Drops length-1 dimensions (the `Subarray` auto-lowering switch: "the
    /// last parameter specifies whether subarrays with length of one in any
    /// dimension are automatically converted to a lower dimensional array").
    /// A shape that is all ones squeezes to the 1-element vector `[1]`.
    pub(crate) fn squeeze(&self) -> Shape {
        let mut kept: Vec<usize> = self.dims().iter().copied().filter(|&d| d > 1).collect();
        if kept.is_empty() {
            kept.push(1);
        }
        // Dropping unit dimensions keeps the product.
        Shape::checked(kept, self.count)
    }

    /// Iterates over the *runs* of a rectangular region: maximal sequences
    /// of elements contiguous in column-major storage. Each item is
    /// `(start_element_offset_in_self, run_length_in_elements)`.
    ///
    /// A run covers the full extent of axis 0 of the region, plus any
    /// additional leading axes that span their whole parent dimension —
    /// this is what makes page-aligned blob subsetting read long sequential
    /// ranges instead of many small ones.
    pub(crate) fn region_runs<'a>(&self, offset: &[usize], size: &'a [usize]) -> RegionRuns<'a> {
        let dims = self.dims();
        // Number of leading axes fused into a single contiguous run.
        let mut fused = 1;
        while fused < self.rank() && size[fused - 1] == dims[fused - 1] {
            fused += 1;
        }
        let run_len: usize = size[..fused].iter().product();
        let outer_count: usize = size[fused..].iter().product::<usize>().max(1);
        // Strides and the region origin's offset, once for every run.
        let mut strides = self.strides();
        let base = offset.iter().zip(&strides).map(|(o, s)| o * s).sum();
        strides.drain(..fused);
        RegionRuns {
            size: &size[fused..],
            strides,
            base,
            run_len,
            outer_count,
            cursor: 0,
        }
    }
}

/// The element count of a dimension list, checking [`Shape`]'s
/// invariants: rank ≥ 1, every dimension ≥ 1 and a product that fits
/// `usize`.
#[inline]
fn product(dims: &[usize]) -> Result<usize> {
    if dims.is_empty() {
        return Err(ArrayError::BadRank {
            rank: 0,
            max: usize::MAX,
        });
    }
    let mut count: usize = 1;
    for (axis, &d) in dims.iter().enumerate() {
        if d == 0 {
            return Err(ArrayError::BadDimension { dim: axis, size: d });
        }
        count = count
            .checked_mul(d)
            .ok_or(ArrayError::BadDimension { dim: axis, size: d })?;
    }
    Ok(count)
}

/// Iterator returned by `Shape::region_runs`: the strides and the
/// origin's offset are computed when it is built, so a run costs index
/// arithmetic only.
pub struct RegionRuns<'a> {
    /// Region extents of the non-fused axes.
    size: &'a [usize],
    /// Column-major strides of the non-fused axes.
    strides: Vec<usize>,
    /// Element offset of the region's origin.
    base: usize,
    run_len: usize,
    outer_count: usize,
    cursor: usize,
}

impl<'a> Iterator for RegionRuns<'a> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.cursor >= self.outer_count {
            return None;
        }
        // Decompose the cursor into indices over the non-fused axes.
        let mut rem = self.cursor;
        let mut start = self.base;
        for (size, stride) in self.size.iter().zip(&self.strides) {
            let i = rem % size;
            rem /= size;
            start += i * stride;
        }
        self.cursor += 1;
        Some((start, self.run_len))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.outer_count - self.cursor;
        (left, Some(left))
    }
}

impl<'a> ExactSizeIterator for RegionRuns<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_zero_dims() {
        assert!(Shape::new(&[]).is_err());
        assert!(Shape::new(&[3, 0, 2]).is_err());
        assert!(Shape::new(&[usize::MAX, 2]).is_err());
    }

    #[test]
    fn column_major_strides() {
        let s = Shape::new(&[4, 3, 2]).unwrap();
        assert_eq!(s.strides(), vec![1, 4, 12]);
        assert_eq!(s.count(), 24);
    }

    #[test]
    fn linear_index_is_column_major() {
        // In column-major order, (1, 0) of a 2x2 matrix is the second
        // stored element; (0, 1) is the third.
        let m = Shape::new(&[2, 2]).unwrap();
        assert_eq!(m.linear_index(&[0, 0]).unwrap(), 0);
        assert_eq!(m.linear_index(&[1, 0]).unwrap(), 1);
        assert_eq!(m.linear_index(&[0, 1]).unwrap(), 2);
        assert_eq!(m.linear_index(&[1, 1]).unwrap(), 3);
    }

    #[test]
    fn linear_and_multi_index_are_inverse() {
        let s = Shape::new(&[3, 4, 5]).unwrap();
        for lin in 0..s.count() {
            let idx = s.multi_index(lin);
            assert_eq!(s.linear_index(&idx).unwrap(), lin);
        }
    }

    #[test]
    fn index_errors() {
        let s = Shape::new(&[2, 3]).unwrap();
        assert!(matches!(
            s.linear_index(&[0]),
            Err(ArrayError::IndexRankMismatch { got: 1, rank: 2 })
        ));
        assert!(matches!(
            s.linear_index(&[2, 0]),
            Err(ArrayError::IndexOutOfBounds { axis: 0, .. })
        ));
        assert!(matches!(
            s.linear_index(&[0, 3]),
            Err(ArrayError::IndexOutOfBounds { axis: 1, .. })
        ));
    }

    #[test]
    fn subarray_validation() {
        let s = Shape::new(&[10, 10]).unwrap();
        let sub = s.validate_subarray(&[2, 3], &[4, 5]).unwrap();
        assert_eq!(sub.dims(), &[4, 5]);
        assert!(s.validate_subarray(&[8, 0], &[4, 1]).is_err());
        assert!(s.validate_subarray(&[0, 0], &[0, 1]).is_err());
        assert!(s.validate_subarray(&[0], &[1, 1]).is_err());
    }

    #[test]
    fn squeeze_drops_unit_dims() {
        assert_eq!(Shape::new(&[1, 5, 1, 3]).unwrap().squeeze().dims(), &[5, 3]);
        assert_eq!(Shape::new(&[1, 1]).unwrap().squeeze().dims(), &[1]);
        assert_eq!(Shape::new(&[4]).unwrap().squeeze().dims(), &[4]);
    }

    #[test]
    fn region_runs_cover_region_exactly() {
        let s = Shape::new(&[4, 3, 2]).unwrap();
        let offset = [1, 0, 0];
        let size = [2, 2, 2];
        let mut touched = vec![];
        for (start, len) in s.region_runs(&offset, &size) {
            for e in start..start + len {
                touched.push(e);
            }
        }
        // Reference: enumerate the region elementwise.
        let mut expected = vec![];
        for k in 0..2 {
            for j in 0..2 {
                for i in 0..2 {
                    expected.push(s.linear_index(&[1 + i, j, k]).unwrap());
                }
            }
        }
        touched.sort_unstable();
        expected.sort_unstable();
        assert_eq!(touched, expected);
    }

    #[test]
    fn region_runs_fuse_full_leading_axes() {
        // Region spans all of axis 0 and axis 1, so the axis-2 slab
        // [1, 3) is a single contiguous byte range.
        let s = Shape::new(&[4, 3, 5]).unwrap();
        let runs: Vec<_> = s.region_runs(&[0, 0, 1], &[4, 3, 2]).collect();
        assert_eq!(runs, vec![(12, 24)]);

        // A partial axis 1 can still fuse with a full axis 0 (one slab per
        // axis-2 index), but no further.
        let runs: Vec<_> = s.region_runs(&[0, 1, 0], &[4, 2, 2]).collect();
        assert_eq!(runs, vec![(4, 8), (16, 8)]);

        // A partial axis 0 forbids all fusion: one run per (j, k) pair.
        let runs: Vec<_> = s.region_runs(&[1, 0, 0], &[2, 2, 2]).collect();
        assert_eq!(runs, vec![(1, 2), (5, 2), (13, 2), (17, 2)]);
    }

    #[test]
    fn region_runs_single_full_array_is_one_run() {
        let s = Shape::new(&[4, 3, 5]).unwrap();
        let runs: Vec<_> = s.region_runs(&[0, 0, 0], &[4, 3, 5]).collect();
        assert_eq!(runs, vec![(0, 60)]);
    }

    #[test]
    fn region_runs_1d() {
        let s = Shape::new(&[10]).unwrap();
        let runs: Vec<_> = s.region_runs(&[3], &[4]).collect();
        assert_eq!(runs, vec![(3, 4)]);
    }
}
