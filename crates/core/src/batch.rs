//! Columnar batches for vectorized query execution.
//!
//! The executor historically walked one row at a time through a per-row
//! callback, allocating a boxed value per column — the glue between scan
//! and kernel dominated, not the kernels. This module provides the shared
//! column-vector representation and the batch-level kernels the engine's
//! vectorized pipeline is built on:
//!
//! * [`ColVec`] — one typed column of a batch (`i64`/`i32`/`f64`/`f32`,
//!   or blob cells as packed bytes + out-of-row LOB references);
//! * [`Batch`] — the clustered keys plus the decoded columns of ~1–4K rows;
//! * selection vectors (`Vec<u32>` of in-batch row indices) produced by
//!   filters and consumed by every downstream kernel, narrowed by
//!   branch-free kernels ([`refine_selection`], and [`select_cmp`], which
//!   fuses a column-vs-constant comparison into the same pass);
//! * arithmetic/comparison/gather/sum kernels with branch-light inner
//!   loops the compiler can autovectorize.
//!
//! Semantics are deliberately *identical* to the engine's row-at-a-time
//! interpreter: integer arithmetic wraps exactly like the row path's
//! `wrapping_*` calls, float comparisons report NaN operands to the caller
//! (the row path raises a typed error there), and every summing path goes
//! through [`ExactSum`] so results stay bit-identical at any degree of
//! parallelism.

use crate::exact::ExactSum;

/// Default number of rows per batch.
///
/// Batches flush at the first leaf-page boundary at or past this many rows,
/// so actual fill is slightly above (a leaf holds tens-to-hundreds of rows).
pub const DEFAULT_BATCH_ROWS: usize = 1024;

// ---------------------------------------------------------------------------
// Byte cells
// ---------------------------------------------------------------------------

/// Variable-length byte cells packed end-to-end with an offsets directory.
///
/// Cell `i` lives at `data[offsets[i]..offsets[i + 1]]`; there is always one
/// more offset than cells. Appending never reallocates per cell beyond the
/// amortized growth of the two flat vectors.
#[derive(Debug, Clone)]
pub struct BytesVec {
    offsets: Vec<usize>,
    data: Vec<u8>,
}

impl Default for BytesVec {
    fn default() -> Self {
        BytesVec::new()
    }
}

impl BytesVec {
    /// An empty cell vector.
    pub fn new() -> BytesVec {
        BytesVec {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Appends one cell.
    pub fn push(&mut self, cell: &[u8]) {
        self.data.extend_from_slice(cell);
        self.offsets.push(self.data.len());
    }

    /// Borrows cell `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are zero cells.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Resets to zero cells, keeping capacity.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.data.clear();
    }

    /// Bytes of payload + offsets currently held (length-based, not
    /// capacity-based, so the figure is deterministic for a given row
    /// stream regardless of allocator growth policy).
    pub fn byte_size(&self) -> u64 {
        (self.data.len() + self.offsets.len() * std::mem::size_of::<usize>()) as u64
    }
}

// ---------------------------------------------------------------------------
// Columns and batches
// ---------------------------------------------------------------------------

/// An out-of-row blob reference: `(blob id, byte length)`.
pub type LobRef = (u64, u64);

/// One typed column of a [`Batch`].
#[derive(Debug, Clone)]
pub enum ColVec {
    /// Blob cells: inline payloads in `bytes`, out-of-row references in
    /// `lob`. Both sides always have one entry per row — an out-of-row cell
    /// has an empty `bytes` entry and `Some` in `lob`, an inline cell the
    /// reverse.
    Blob {
        /// Inline payloads (empty cell for out-of-row rows).
        bytes: BytesVec,
        /// Out-of-row references (`None` for inline rows).
        lob: Vec<Option<LobRef>>,
    },
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit floats.
    F32(Vec<f32>),
}

impl ColVec {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ColVec::I64(v) => v.len(),
            ColVec::I32(v) => v.len(),
            ColVec::F64(v) => v.len(),
            ColVec::F32(v) => v.len(),
            ColVec::Blob { lob, .. } => lob.len(),
        }
    }

    /// Whether the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resets to zero rows, keeping capacity.
    pub fn clear(&mut self) {
        match self {
            ColVec::I64(v) => v.clear(),
            ColVec::I32(v) => v.clear(),
            ColVec::F64(v) => v.clear(),
            ColVec::F32(v) => v.clear(),
            ColVec::Blob { bytes, lob } => {
                bytes.clear();
                lob.clear();
            }
        }
    }

    /// Bytes of lane data currently held. Length-based (see
    /// [`BytesVec::byte_size`]), so memory-budget charges derived from it
    /// are bit-reproducible for a given scan.
    pub fn byte_size(&self) -> u64 {
        match self {
            ColVec::I64(v) => (v.len() * 8) as u64,
            ColVec::I32(v) => (v.len() * 4) as u64,
            ColVec::F64(v) => (v.len() * 8) as u64,
            ColVec::F32(v) => (v.len() * 4) as u64,
            ColVec::Blob { bytes, lob } => {
                bytes.byte_size() + (lob.len() * std::mem::size_of::<Option<LobRef>>()) as u64
            }
        }
    }
}

/// A columnar batch: the clustered keys of ~1–4K rows plus the decoded
/// columns the active plan needs (in plan order, not schema order).
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Clustered-index key of each row, in scan order.
    pub keys: Vec<i64>,
    /// Decoded columns; every column has `keys.len()` rows.
    pub cols: Vec<ColVec>,
}

impl Batch {
    /// A batch with the given (empty) columns.
    pub fn new(cols: Vec<ColVec>) -> Batch {
        Batch {
            keys: Vec::new(),
            cols,
        }
    }

    /// Number of rows currently buffered.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the batch holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Resets to zero rows, keeping column types and capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        for c in &mut self.cols {
            c.clear();
        }
    }

    /// Bytes of keys + lane data currently buffered — what the executor
    /// charges against the per-query memory budget at each batch flush.
    pub fn byte_size(&self) -> u64 {
        let mut n = (self.keys.len() * 8) as u64;
        for c in &self.cols {
            n += c.byte_size();
        }
        n
    }
}

/// Keeps only the selected rows whose flag is set: `out` receives
/// `sel[i]` for every `i` with `flags[i]`. `flags` is aligned to `sel`
/// (one flag per *selected* row), not to the batch.
///
/// Branch-free: every row is written, and the output position advances
/// by the flag, so a filter passing half its rows at random costs no
/// mispredictions.
pub fn refine_selection(flags: &[bool], sel: &[u32], out: &mut Vec<u32>) {
    assert_eq!(flags.len(), sel.len());
    out.clear();
    out.resize(sel.len(), 0);
    let mut n = 0;
    for (&keep, &row) in flags.iter().zip(sel) {
        out[n] = row;
        n += usize::from(keep);
    }
    out.truncate(n);
}

/// The rows of `sel` not in `sub`, an ascending subsequence of `sel` (what
/// a filter kept of it): `NOT`, and the rows an `OR`'s left operand left
/// undecided.
pub fn selection_minus(sel: &[u32], sub: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.resize(sel.len(), 0);
    let (mut n, mut j) = (0, 0);
    for &row in sel {
        let kept = sub.get(j) == Some(&row);
        out[n] = row;
        n += usize::from(!kept);
        j += usize::from(kept);
    }
    out.truncate(n);
}

/// Whether each row of `sel` is in `sub`, an ascending subsequence of
/// `sel`: a refined selection turned back into one flag per selected row.
pub fn selection_flags(sel: &[u32], sub: &[u32], out: &mut Vec<bool>) {
    out.clear();
    out.reserve(sel.len());
    let mut j = 0;
    for &row in sel {
        let kept = sub.get(j) == Some(&row);
        out.push(kept);
        j += usize::from(kept);
    }
}

/// Merges two disjoint ascending selections into one.
pub fn selection_union(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

// ---------------------------------------------------------------------------
// Gather / widen / splat kernels
// ---------------------------------------------------------------------------

macro_rules! gather_impl {
    ($name:ident, $t:ty) => {
        /// Copies `src[sel[i]]` into `out` for each selected row.
        pub fn $name(src: &[$t], sel: &[u32], out: &mut Vec<$t>) {
            out.clear();
            out.reserve(sel.len());
            for &i in sel {
                out.push(src[i as usize]);
            }
        }
    };
}

gather_impl!(gather_i64, i64);
gather_impl!(gather_i32, i32);
gather_impl!(gather_f64, f64);
gather_impl!(gather_f32, f32);

/// Fills `out` with `n` copies of `v` (literal/variable broadcast).
pub fn splat<T: Copy>(v: T, n: usize, out: &mut Vec<T>) {
    out.clear();
    out.resize(n, v);
}

/// Widens `i32` lanes to `i64`.
pub fn widen_i32(src: &[i32], out: &mut Vec<i64>) {
    out.clear();
    out.reserve(src.len());
    for &x in src {
        out.push(x as i64);
    }
}

/// A lane element's numeric view, the one every comparison, `SUM` and
/// `AVG` of the row path takes: a scalar `as f64` cast (`i64` rounds to
/// nearest, `i32`/`f32` are exact), `BIT` as 0/1.
pub trait ToF64: Copy {
    /// The element as `f64`.
    fn to_f64(self) -> f64;
}

macro_rules! to_f64_impl {
    ($($t:ty),*) => {$(
        impl ToF64 for $t {
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    )*};
}

to_f64_impl!(i64, i32, f64, f32);

impl ToF64 for bool {
    #[inline]
    fn to_f64(self) -> f64 {
        self as i64 as f64
    }
}

/// Converts lanes to `f64` through [`ToF64`].
pub fn f64_from<T: ToF64>(src: &[T], out: &mut Vec<f64>) {
    out.clear();
    out.reserve(src.len());
    for &x in src {
        out.push(x.to_f64());
    }
}

// ---------------------------------------------------------------------------
// Arithmetic kernels
// ---------------------------------------------------------------------------

/// Arithmetic operator selector for [`arith_i64`] / [`arith_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition (wrapping on integers).
    Add,
    /// Subtraction (wrapping on integers).
    Sub,
    /// Multiplication (wrapping on integers).
    Mul,
    /// Division (integer zero divisor is reported, not computed).
    Div,
    /// Remainder (integer zero divisor is reported, not computed).
    Mod,
}

/// Lane-wise `i64` arithmetic with the row path's wrapping semantics.
///
/// Returns `false` — with `out` left in an unspecified state — if `op` is
/// `Div`/`Mod` and any `b` lane is zero; the caller raises the same typed
/// error the row-at-a-time interpreter does.
#[must_use]
pub fn arith_i64(op: ArithOp, a: &[i64], b: &[i64], out: &mut Vec<i64>) -> bool {
    assert_eq!(a.len(), b.len());
    out.clear();
    out.reserve(a.len());
    match op {
        ArithOp::Add => {
            for (&x, &y) in a.iter().zip(b) {
                out.push(x.wrapping_add(y));
            }
        }
        ArithOp::Sub => {
            for (&x, &y) in a.iter().zip(b) {
                out.push(x.wrapping_sub(y));
            }
        }
        ArithOp::Mul => {
            for (&x, &y) in a.iter().zip(b) {
                out.push(x.wrapping_mul(y));
            }
        }
        ArithOp::Div => {
            for (&x, &y) in a.iter().zip(b) {
                if y == 0 {
                    return false;
                }
                out.push(x.wrapping_div(y));
            }
        }
        ArithOp::Mod => {
            for (&x, &y) in a.iter().zip(b) {
                if y == 0 {
                    return false;
                }
                out.push(x.wrapping_rem(y));
            }
        }
    }
    true
}

/// Lane-wise `f64` arithmetic (IEEE semantics; division by zero yields
/// infinities/NaN exactly like the row path's scalar ops).
pub fn arith_f64(op: ArithOp, a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    assert_eq!(a.len(), b.len());
    out.clear();
    out.reserve(a.len());
    match op {
        ArithOp::Add => {
            for (&x, &y) in a.iter().zip(b) {
                out.push(x + y);
            }
        }
        ArithOp::Sub => {
            for (&x, &y) in a.iter().zip(b) {
                out.push(x - y);
            }
        }
        ArithOp::Mul => {
            for (&x, &y) in a.iter().zip(b) {
                out.push(x * y);
            }
        }
        ArithOp::Div => {
            for (&x, &y) in a.iter().zip(b) {
                out.push(x / y);
            }
        }
        ArithOp::Mod => {
            for (&x, &y) in a.iter().zip(b) {
                out.push(x % y);
            }
        }
    }
}

macro_rules! neg_impl {
    ($name:ident, $t:ty, wrapping) => {
        /// Lane-wise negation (wrapping, like the row path).
        pub fn $name(a: &[$t], out: &mut Vec<$t>) {
            out.clear();
            out.reserve(a.len());
            for &x in a {
                out.push(x.wrapping_neg());
            }
        }
    };
    ($name:ident, $t:ty, float) => {
        /// Lane-wise negation.
        pub fn $name(a: &[$t], out: &mut Vec<$t>) {
            out.clear();
            out.reserve(a.len());
            for &x in a {
                out.push(-x);
            }
        }
    };
}

neg_impl!(neg_i64, i64, wrapping);
neg_impl!(neg_i32, i32, wrapping);
neg_impl!(neg_f64, f64, float);
neg_impl!(neg_f32, f32, float);

// ---------------------------------------------------------------------------
// Comparison / truthiness kernels
// ---------------------------------------------------------------------------

/// Comparison operator selector for [`cmp_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped: `a op b` ⇔ `b op.flipped() a`.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            symmetric => symmetric,
        }
    }
}

/// Lane-wise `f64` comparison.
///
/// Returns `false` if any lane had a NaN operand — the row path's
/// `partial_cmp` returns `None` there and the interpreter raises a typed
/// "NaN comparison" error, which the caller reproduces. The flag is
/// accumulated branch-free so the comparison loop stays vectorizable.
#[must_use]
pub fn cmp_f64(op: CmpOp, a: &[f64], b: &[f64], out: &mut Vec<bool>) -> bool {
    assert_eq!(a.len(), b.len());
    out.clear();
    out.reserve(a.len());
    let mut nan_seen = false;
    match op {
        CmpOp::Eq => {
            for (&x, &y) in a.iter().zip(b) {
                nan_seen |= x.is_nan() | y.is_nan();
                out.push(x == y);
            }
        }
        CmpOp::Ne => {
            for (&x, &y) in a.iter().zip(b) {
                nan_seen |= x.is_nan() | y.is_nan();
                out.push(x != y);
            }
        }
        CmpOp::Lt => {
            for (&x, &y) in a.iter().zip(b) {
                nan_seen |= x.is_nan() | y.is_nan();
                out.push(x < y);
            }
        }
        CmpOp::Le => {
            for (&x, &y) in a.iter().zip(b) {
                nan_seen |= x.is_nan() | y.is_nan();
                out.push(x <= y);
            }
        }
        CmpOp::Gt => {
            for (&x, &y) in a.iter().zip(b) {
                nan_seen |= x.is_nan() | y.is_nan();
                out.push(x > y);
            }
        }
        CmpOp::Ge => {
            for (&x, &y) in a.iter().zip(b) {
                nan_seen |= x.is_nan() | y.is_nan();
                out.push(x >= y);
            }
        }
    }
    !nan_seen
}

/// Keeps the rows of `sel` whose `lane` value compares `op` against the
/// constant `k` — [`cmp_f64`] and [`refine_selection`] fused into one pass
/// that reads the lane in place at each selected row, converts it through
/// [`ToF64`], and writes survivors without branching.
///
/// Returns `false` — `out` then unspecified — if a *selected* row's value
/// or, over a non-empty selection, `k` is NaN: exactly when [`cmp_f64`]
/// over the gathered lane and a splat of `k` would have.
#[must_use]
pub fn select_cmp<T: ToF64>(
    op: CmpOp,
    lane: &[T],
    k: f64,
    sel: &[u32],
    out: &mut Vec<u32>,
) -> bool {
    if k.is_nan() {
        out.clear();
        return sel.is_empty();
    }
    match op {
        CmpOp::Eq => select_where(lane, sel, out, |x| x == k),
        CmpOp::Ne => select_where(lane, sel, out, |x| x != k),
        CmpOp::Lt => select_where(lane, sel, out, |x| x < k),
        CmpOp::Le => select_where(lane, sel, out, |x| x <= k),
        CmpOp::Gt => select_where(lane, sel, out, |x| x > k),
        CmpOp::Ge => select_where(lane, sel, out, |x| x >= k),
    }
}

/// [`select_cmp`]'s loop, monomorphized per operator.
#[inline(always)]
fn select_where<T: ToF64>(
    lane: &[T],
    sel: &[u32],
    out: &mut Vec<u32>,
    keep: impl Fn(f64) -> bool,
) -> bool {
    out.clear();
    out.resize(sel.len(), 0);
    let mut n = 0;
    let mut nan_seen = false;
    for &row in sel {
        let x = lane[row as usize].to_f64();
        nan_seen |= x.is_nan();
        out[n] = row;
        n += usize::from(keep(x));
    }
    out.truncate(n);
    !nan_seen
}

macro_rules! truthy_impl {
    ($name:ident, $t:ty, $zero:expr) => {
        /// Lane-wise truthiness: nonzero → `true` (row-path `is_true`).
        pub fn $name(a: &[$t], out: &mut Vec<bool>) {
            out.clear();
            out.reserve(a.len());
            for &x in a {
                out.push(x != $zero);
            }
        }
    };
}

truthy_impl!(truthy_i64, i64, 0i64);
truthy_impl!(truthy_i32, i32, 0i32);
truthy_impl!(truthy_f64, f64, 0.0f64);
truthy_impl!(truthy_f32, f32, 0.0f32);

// ---------------------------------------------------------------------------
// Summation
// ---------------------------------------------------------------------------

/// Accumulates every lane into `sum` through the exact summator, a block
/// at a time (as [`ExactSum::add_iter`] does, without the copy).
///
/// There is deliberately no fast-path naive `+=` variant: the register
/// ends as one [`ExactSum::add`] per lane leaves it, so batch `SUM`/`AVG`
/// stay bit-identical to serial row-at-a-time execution at any DOP.
pub fn sum_f64(vals: &[f64], sum: &mut ExactSum) {
    sum.add_slice(vals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn bytes_vec_cells() {
        let mut b = BytesVec::new();
        assert!(b.is_empty());
        b.push(b"hello");
        b.push(b"");
        b.push(b"world!");
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), b"hello");
        assert_eq!(b.get(1), b"");
        assert_eq!(b.get(2), b"world!");
        b.clear();
        assert!(b.is_empty());
        b.push(b"x");
        assert_eq!(b.get(0), b"x");
    }

    #[test]
    fn batch_clear_keeps_column_types() {
        let mut batch = Batch::new(vec![
            ColVec::I64(Vec::new()),
            ColVec::Blob {
                bytes: BytesVec::new(),
                lob: Vec::new(),
            },
        ]);
        batch.keys.push(7);
        match &mut batch.cols[0] {
            ColVec::I64(v) => v.push(1),
            _ => unreachable!(),
        }
        match &mut batch.cols[1] {
            ColVec::Blob { bytes, lob } => {
                bytes.push(b"abc");
                lob.push(None);
            }
            _ => unreachable!(),
        }
        assert_eq!(batch.len(), 1);
        batch.clear();
        assert!(batch.is_empty());
        assert!(matches!(&batch.cols[0], ColVec::I64(v) if v.is_empty()));
    }

    #[test]
    fn selection_identity_and_refine() {
        let sel: Vec<u32> = (0..5).collect();
        let flags = [true, false, false, true, true];
        let mut out = Vec::new();
        refine_selection(&flags, &sel, &mut out);
        assert_eq!(out, vec![0, 3, 4]);
        // Refining a refined selection keeps batch-row indices.
        let flags2 = [false, true, false];
        let mut out2 = Vec::new();
        refine_selection(&flags2, &out, &mut out2);
        assert_eq!(out2, vec![3]);
    }

    /// An ascending selection over `0..n`, each row kept with probability `p`.
    fn random_sel(rng: &mut StdRng, n: usize, p: f64) -> Vec<u32> {
        (0..n as u32).filter(|_| rng.gen_bool(p)).collect()
    }

    /// What a naive filter keeps of `sel`.
    fn naive_keep(sel: &[u32], mut keep: impl FnMut(usize, u32) -> bool) -> Vec<u32> {
        let mut out = Vec::new();
        for (i, &row) in sel.iter().enumerate() {
            if keep(i, row) {
                out.push(row);
            }
        }
        out
    }

    #[test]
    fn branch_free_refine_is_the_naive_filter() {
        let mut rng = StdRng::seed_from_u64(0x5E1);
        // Stale contents and capacity must not leak into the result.
        let mut out = vec![9; 700];
        for case in 0..2000 {
            let n = rng.gen_range(0..600usize);
            let density = rng.gen::<f64>();
            let sel = random_sel(&mut rng, n, density);
            let p = [0.0, 1.0, rng.gen::<f64>()][case % 3];
            let flags: Vec<bool> = sel.iter().map(|_| rng.gen_bool(p)).collect();
            refine_selection(&flags, &sel, &mut out);
            assert_eq!(out, naive_keep(&sel, |i, _| flags[i]), "case {case}");
        }
    }

    #[test]
    fn selection_set_operations_are_the_naive_ones() {
        let mut rng = StdRng::seed_from_u64(0x5E75);
        let (mut minus, mut flags, mut union) = (vec![9; 3], vec![true; 3], vec![9; 3]);
        for case in 0..2000 {
            let n = rng.gen_range(0..400usize);
            let density = rng.gen::<f64>();
            let sel = random_sel(&mut rng, n, density);
            let p = [0.0, 1.0, rng.gen::<f64>()][case % 3];
            let sub = naive_keep(&sel, |_, _| rng.gen_bool(p));
            selection_minus(&sel, &sub, &mut minus);
            assert_eq!(
                minus,
                naive_keep(&sel, |_, r| !sub.contains(&r)),
                "case {case}"
            );
            selection_flags(&sel, &sub, &mut flags);
            let want: Vec<bool> = sel.iter().map(|r| sub.contains(r)).collect();
            assert_eq!(flags, want, "case {case}");
            // `OR`: what the left operand kept, merged with what the right
            // one kept of the rest.
            let right = naive_keep(&minus, |_, _| rng.gen_bool(0.5));
            selection_union(&sub, &right, &mut union);
            let want = naive_keep(&sel, |_, r| sub.contains(&r) || right.contains(&r));
            assert_eq!(union, want, "case {case}");
        }
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    #[test]
    fn flipped_swaps_the_operands() {
        let grid = [-1.0, -0.0, 0.0, 2.5];
        let (mut ab, mut ba) = (Vec::new(), Vec::new());
        for op in OPS {
            for x in grid {
                let (xs, ys) = (vec![x; grid.len()], grid.to_vec());
                assert!(cmp_f64(op, &xs, &ys, &mut ab));
                assert!(cmp_f64(op.flipped(), &ys, &xs, &mut ba));
                assert_eq!(ab, ba, "{op:?} at {x}");
            }
        }
    }

    /// [`select_cmp`] against the unfused path — gather, convert, splat,
    /// [`cmp_f64`], [`refine_selection`] — over random lanes drawn from
    /// `pool`, random selections and constants, for every operator with
    /// the column on either side. NaN verdicts must agree too.
    fn check_select_cmp<T: ToF64 + std::fmt::Debug>(seed: u64, pool: &[T]) {
        let ks = [
            0.0,
            -0.0,
            0.5,
            1.0,
            -1.0,
            (1u64 << 53) as f64,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut got, mut flags, mut want) = (Vec::new(), Vec::new(), Vec::new());
        for case in 0..400 {
            let n = rng.gen_range(0..160usize);
            let lane: Vec<T> = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            let density = rng.gen::<f64>();
            let sel = random_sel(&mut rng, n, density);
            let k = ks[rng.gen_range(0..ks.len())];
            let xs: Vec<f64> = sel.iter().map(|&r| lane[r as usize].to_f64()).collect();
            let splat_k = vec![k; sel.len()];
            for op in OPS {
                for flip in [false, true] {
                    // `x op k`; with the constant on the left, `k op x`,
                    // which the kernel runs as `x op.flipped() k`.
                    let (ordered, kernel_op) = if flip {
                        (cmp_f64(op, &splat_k, &xs, &mut flags), op.flipped())
                    } else {
                        (cmp_f64(op, &xs, &splat_k, &mut flags), op)
                    };
                    let at =
                        format!("case {case}: {op:?} flip {flip} k {k} over {lane:?} at {sel:?}");
                    assert_eq!(
                        select_cmp(kernel_op, &lane, k, &sel, &mut got),
                        ordered,
                        "{at}"
                    );
                    if ordered {
                        refine_selection(&flags, &sel, &mut want);
                        assert_eq!(got, want, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn select_cmp_is_the_unfused_compare_and_refine_for_every_op_flip_and_lane() {
        check_select_cmp(1, &[i64::MIN, -1, 0, 1, 1 << 53, (1 << 53) + 1, i64::MAX]);
        check_select_cmp(2, &[i32::MIN, -1, 0, 1, 2, i32::MAX]);
        check_select_cmp(
            3,
            &[-0.0f64, 0.0, 0.1, 0.5, 1.0, -1.0, f64::INFINITY, f64::NAN],
        );
        check_select_cmp(4, &[-0.0f32, 0.0, 0.1, 0.5, 1.0, f32::NAN]);
        check_select_cmp(5, &[false, true]);
    }

    #[test]
    fn gather_and_widen() {
        let src = [10i64, 20, 30, 40];
        let mut out = Vec::new();
        gather_i64(&src, &[3, 1], &mut out);
        assert_eq!(out, vec![40, 20]);

        let mut wide = Vec::new();
        widen_i32(&[-1i32, i32::MAX], &mut wide);
        assert_eq!(wide, vec![-1i64, i32::MAX as i64]);

        let mut f = Vec::new();
        f64_from(&[true, false], &mut f);
        assert_eq!(f, vec![1.0, 0.0]);
        f64_from(&[1i64 << 60, (1 << 53) + 1], &mut f);
        assert_eq!(f, vec![(1i64 << 60) as f64, (1i64 << 53) as f64]);
        f64_from(&[0.1f32], &mut f);
        assert_eq!(f, vec![0.1f32 as f64]);
        f64_from(&[7i32], &mut f);
        assert_eq!(f, vec![7.0]);
    }

    #[test]
    fn splat_fills() {
        let mut out = Vec::new();
        splat(42i64, 3, &mut out);
        assert_eq!(out, vec![42, 42, 42]);
        splat(1i64, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn int_arith_wraps_and_flags_zero_divisor() {
        let mut out = Vec::new();
        assert!(arith_i64(ArithOp::Add, &[i64::MAX, 1], &[1, 2], &mut out));
        assert_eq!(out, vec![i64::MIN, 3]);
        assert!(arith_i64(ArithOp::Mul, &[1i64 << 62], &[4], &mut out));
        assert_eq!(out, vec![0]);
        assert!(arith_i64(ArithOp::Div, &[9, -7], &[2, 2], &mut out));
        assert_eq!(out, vec![4, -3]);
        assert!(arith_i64(ArithOp::Mod, &[9, -7], &[4, 4], &mut out));
        assert_eq!(out, vec![1, -3]);
        // The one overflowing quotient wraps like Add/Sub/Mul do.
        assert!(arith_i64(ArithOp::Div, &[i64::MIN], &[-1], &mut out));
        assert_eq!(out, vec![i64::MIN]);
        assert!(arith_i64(ArithOp::Mod, &[i64::MIN], &[-1], &mut out));
        assert_eq!(out, vec![0]);
        assert!(!arith_i64(ArithOp::Div, &[1], &[0], &mut out));
        assert!(!arith_i64(ArithOp::Mod, &[1], &[0], &mut out));
    }

    #[test]
    fn float_arith_matches_scalar_ops() {
        let mut out = Vec::new();
        arith_f64(ArithOp::Div, &[1.0, -1.0], &[0.0, 0.0], &mut out);
        assert_eq!(out[0], f64::INFINITY);
        assert_eq!(out[1], f64::NEG_INFINITY);
        arith_f64(ArithOp::Mod, &[7.5], &[2.0], &mut out);
        assert_eq!(out, vec![7.5 % 2.0]);
    }

    #[test]
    fn negation_kernels() {
        let mut i = Vec::new();
        neg_i64(&[5, i64::MIN], &mut i);
        assert_eq!(i, vec![-5, i64::MIN]);
        let mut i32s = Vec::new();
        neg_i32(&[5], &mut i32s);
        assert_eq!(i32s, vec![-5]);
        let mut f = Vec::new();
        neg_f64(&[1.5, -0.0], &mut f);
        assert_eq!(f, vec![-1.5, 0.0]);
        let mut f32s = Vec::new();
        neg_f32(&[2.0f32], &mut f32s);
        assert_eq!(f32s, vec![-2.0f32]);
    }

    #[test]
    fn cmp_kernel_and_nan_detection() {
        let mut out = Vec::new();
        assert!(cmp_f64(CmpOp::Lt, &[1.0, 3.0], &[2.0, 2.0], &mut out));
        assert_eq!(out, vec![true, false]);
        assert!(cmp_f64(CmpOp::Le, &[2.0], &[2.0], &mut out));
        assert_eq!(out, vec![true]);
        assert!(cmp_f64(CmpOp::Ne, &[2.0], &[2.0], &mut out));
        assert_eq!(out, vec![false]);
        assert!(cmp_f64(CmpOp::Ge, &[2.0], &[3.0], &mut out));
        assert_eq!(out, vec![false]);
        assert!(cmp_f64(CmpOp::Gt, &[4.0], &[3.0], &mut out));
        assert_eq!(out, vec![true]);
        assert!(cmp_f64(CmpOp::Eq, &[-0.0], &[0.0], &mut out));
        assert_eq!(out, vec![true]);
        // Any NaN lane reports failure, mirroring the row path's error.
        assert!(!cmp_f64(CmpOp::Eq, &[f64::NAN], &[1.0], &mut out));
        assert!(!cmp_f64(CmpOp::Lt, &[1.0], &[f64::NAN], &mut out));
    }

    #[test]
    fn truthiness_kernels() {
        let mut out = Vec::new();
        truthy_i64(&[0, 5, -1], &mut out);
        assert_eq!(out, vec![false, true, true]);
        truthy_f64(&[0.0, -0.0, 0.5], &mut out);
        assert_eq!(out, vec![false, false, true]);
        truthy_i32(&[0, 1], &mut out);
        assert_eq!(out, vec![false, true]);
        truthy_f32(&[0.0, 2.0], &mut out);
        assert_eq!(out, vec![false, true]);
    }

    #[test]
    fn sum_kernel_is_exact_and_order_independent() {
        let xs = [1e100, 1.0, -1e100, 1e-30];
        let mut forward = ExactSum::new();
        sum_f64(&xs, &mut forward);
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        let mut backward = ExactSum::new();
        sum_f64(&rev, &mut backward);
        assert_eq!(forward.value().to_bits(), backward.value().to_bits());
        assert_eq!(forward.value(), 1.0 + 1e-30);
    }
}
