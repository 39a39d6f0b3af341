//! Degree-of-parallelism configuration and chunked fan-out helpers.
//!
//! The whole workspace derives its parallelism from one knob: the
//! `SQLARRAY_DOP` environment variable when set (clamped to ≥ 1), otherwise
//! the number of cores the OS reports. Query execution reads it through
//! `Session::set_dop` / the session default; the elementwise array kernels
//! read it directly via [`configured_dop`].
//!
//! [`partition_ranges`] is the one chunking rule used everywhere — by the
//! storage layer to split a leaf chain into scan partitions and by the
//! elementwise kernels to split an element range — so "how work divides"
//! has a single, property-tested definition: chunks are contiguous, cover
//! the range exactly, never number more than requested, and differ in
//! length by at most one.

use std::cell::Cell;
use std::ops::Range;

/// Environment variable overriding the default degree of parallelism.
pub const DOP_ENV_VAR: &str = "SQLARRAY_DOP";

thread_local! {
    /// True while this thread is already a parallel worker — kernels it
    /// calls must not fan out again.
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with [`configured_dop`] pinned to 1 on this thread.
///
/// A parallel scan worker is itself one lane of a fan-out; if the
/// expressions it evaluates call the chunked array kernels, letting those
/// kernels consult the global DOP would nest `dop × dop` threads and
/// oversubscribe the machine. The query executor wraps each worker's body
/// in this guard, so kernels inside a scan always run serially — the scan
/// is the parallel unit.
pub fn with_serial_kernels<R>(f: impl FnOnce() -> R) -> R {
    FORCE_SERIAL.with(|s| {
        let prev = s.replace(true);
        let out = f();
        s.set(prev);
        out
    })
}

/// The configured degree of parallelism: 1 inside a
/// [`with_serial_kernels`] scope, else `SQLARRAY_DOP` if set and ≥ 1,
/// otherwise [`std::thread::available_parallelism`] (1 when unknown).
pub fn configured_dop() -> usize {
    if FORCE_SERIAL.with(|s| s.get()) {
        return 1;
    }
    dop_or_cores(crate::env::env_usize(DOP_ENV_VAR))
}

/// The default-DOP rule, apart from where the setting came from: an
/// explicit setting clamps to ≥ 1, none means
/// [`std::thread::available_parallelism`] (1 when unknown).
pub fn dop_or_cores(setting: Option<usize>) -> usize {
    setting.map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |n| n.max(1),
    )
}

/// Maps `f` over the contiguous chunks of `0..total` (at most `parts`,
/// chunked by [`partition_ranges`]) on [`std::thread::scope`] workers,
/// returning the per-chunk results in chunk order.
///
/// With one chunk — `parts == 1`, or `total` too small to split — no
/// thread is spawned and `f` runs inline, so serial callers pay nothing.
/// Chunk boundaries depend only on `(total, parts)`, so any chunk-wise
/// deterministic `f` yields results independent of scheduling. This is
/// the fan-out used by the value-producing parallel stages (bulk-load row
/// encoding, leaf-image building, scan workers); kernels that write into
/// disjoint sub-slices of a caller buffer use [`scoped_for_ranges_mut`]
/// (or [`scoped_try_for_ranges_mut`] when they can fail), the
/// disjoint-write duals.
pub fn scoped_map_ranges<T: Send>(
    total: usize,
    parts: usize,
    f: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let ranges = partition_ranges(total, parts);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = ranges.into_iter().map(|r| s.spawn(move || f(r))).collect();
        handles
            .into_iter()
            // lint:allow(L005, reason = "join only fails when the worker panicked; re-raising the panic is the correct propagation, there is no error value to return")
            .map(|h| h.join().expect("scoped_map_ranges worker panicked"))
            .collect()
    })
}

/// Runs `f` over disjoint mutable chunks of `data` on
/// [`std::thread::scope`] workers.
///
/// `data` is viewed as `data.len() / item_len` fixed-size items stored
/// contiguously (columns of a column-major matrix, rows of a lattice —
/// any layout where item `i` occupies `data[i*item_len..(i+1)*item_len]`).
/// The items are split into at most `parts` contiguous ranges by
/// [`partition_ranges`], and each worker receives `(range, chunk)` where
/// `chunk` is **exactly** the sub-slice holding the items of `range` —
/// so `chunk[(i - range.start) * item_len ..]` addresses item `i`.
///
/// With one chunk no thread is spawned and `f` runs inline, so serial
/// callers pay nothing. Chunk boundaries depend only on
/// `(data.len() / item_len, parts)`; a chunk-wise deterministic `f`
/// therefore writes the same bytes at every `parts`. This is the
/// disjoint-write dual of [`scoped_map_ranges`]: use it when workers fill
/// slices of one caller-owned buffer instead of returning values (the
/// parallel linalg kernels fan output columns through it).
///
/// Panics if `item_len` is zero or does not divide `data.len()`.
pub fn scoped_for_ranges_mut<T: Send>(
    data: &mut [T],
    item_len: usize,
    parts: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    assert!(item_len > 0, "item_len must be positive");
    assert_eq!(data.len() % item_len, 0, "data must hold whole items");
    let ranges = partition_ranges(data.len() / item_len, parts);
    scoped_for_given_ranges_mut(data, item_len, ranges, f);
}

/// Fallible [`scoped_for_ranges_mut`]: each worker returns
/// `Result<(), E>`, and the first error **in chunk order** (not
/// completion order) is returned, so the reported error is deterministic
/// at any `parts`. Every worker runs to completion even when an earlier
/// chunk fails — the write side stays identical to the infallible
/// helper; only the returned `Result` differs.
///
/// This is the sanctioned fan-out for kernels that both fill disjoint
/// slices of a caller buffer and can fail per element (the elementwise
/// array kernels evaluate user expressions that may divide by zero or
/// overflow a cast).
pub fn scoped_try_for_ranges_mut<T: Send, E: Send>(
    data: &mut [T],
    item_len: usize,
    parts: usize,
    f: impl Fn(Range<usize>, &mut [T]) -> Result<(), E> + Sync,
) -> Result<(), E> {
    assert!(item_len > 0, "item_len must be positive");
    assert_eq!(data.len() % item_len, 0, "data must hold whole items");
    let ranges = partition_ranges(data.len() / item_len, parts);
    if ranges.len() <= 1 {
        return match ranges.into_iter().next() {
            Some(r) => f(r, data),
            None => Ok(()),
        };
    }
    std::thread::scope(|s| {
        let f = &f;
        let mut rest = data;
        let mut handles = Vec::with_capacity(ranges.len());
        for r in ranges {
            let (mine, tail) = rest.split_at_mut(r.len() * item_len);
            rest = tail;
            handles.push(s.spawn(move || f(r, mine)));
        }
        let mut first_err = Ok(());
        for h in handles {
            // lint:allow(L005, reason = "join only fails when the worker panicked; re-raising the panic is the correct propagation, there is no error value to return")
            let res = h.join().expect("scoped_try_for_ranges_mut worker panicked");
            if first_err.is_ok() {
                first_err = res;
            }
        }
        first_err
    })
}

/// [`scoped_for_ranges_mut`] with caller-supplied chunk boundaries, for
/// workloads where equal item counts are not equal work (e.g. the
/// triangular Gram build balances ranges by area). `ranges` must be
/// contiguous, start at item 0, and cover every item exactly; keep the
/// boundaries a pure function of the problem shape and the chunking
/// stays deterministic.
pub fn scoped_for_given_ranges_mut<T: Send>(
    data: &mut [T],
    item_len: usize,
    ranges: Vec<Range<usize>>,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    assert!(item_len > 0, "item_len must be positive");
    assert_eq!(data.len() % item_len, 0, "data must hold whole items");
    let total = data.len() / item_len;
    let mut expect = 0;
    for r in &ranges {
        assert_eq!(r.start, expect, "ranges must be contiguous from item 0");
        assert!(r.end >= r.start && r.end <= total, "range out of bounds");
        expect = r.end;
    }
    assert_eq!(expect, total, "ranges must cover every item");
    if ranges.len() <= 1 {
        if let Some(r) = ranges.into_iter().next() {
            f(r, data);
        }
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        let mut rest = data;
        for r in ranges {
            let (mine, tail) = rest.split_at_mut(r.len() * item_len);
            rest = tail;
            s.spawn(move || f(r, mine));
        }
    });
}

/// Splits `0..total` into at most `parts` contiguous, non-empty ranges of
/// near-equal length (the first `total % parts` chunks get one extra
/// element). `total == 0` yields no ranges; `parts` is clamped to ≥ 1.
pub fn partition_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, total);
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    assert_eq!(start, total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(total: usize, parts: usize) {
        let ranges = partition_ranges(total, parts);
        if total == 0 {
            assert!(ranges.is_empty());
            return;
        }
        assert!(!ranges.is_empty());
        assert!(ranges.len() <= parts.max(1));
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, total);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert!(lens.iter().all(|&l| l > 0));
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(max - min <= 1, "unbalanced: {lens:?}");
    }

    #[test]
    fn covers_edge_shapes() {
        check(0, 4);
        check(1, 4); // fewer items than parts
        check(3, 8);
        check(7, 3); // non-divisible
        check(8, 3);
        check(9, 3); // divisible
        check(1000, 7);
        check(5, 0); // parts clamped to 1
    }

    #[test]
    fn fewer_parts_than_requested_when_items_are_scarce() {
        assert_eq!(partition_ranges(2, 8).len(), 2);
        assert_eq!(partition_ranges(8, 8).len(), 8);
    }

    #[test]
    fn scoped_map_ranges_preserves_chunk_order() {
        for parts in [1usize, 2, 3, 8, 100] {
            let chunks = scoped_map_ranges(23, parts, |r| r.collect::<Vec<_>>());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..23).collect::<Vec<_>>(), "parts {parts}");
        }
        assert!(scoped_map_ranges(0, 4, |r| r.len()).is_empty());
    }

    #[test]
    fn scoped_for_ranges_mut_covers_items_disjointly() {
        for parts in [1usize, 2, 3, 8, 100] {
            // 23 items of 3 elements each; each worker stamps its items
            // with the item index.
            let mut data = vec![0usize; 23 * 3];
            scoped_for_ranges_mut(&mut data, 3, parts, |range, chunk| {
                for (slot, item) in range.enumerate() {
                    for v in &mut chunk[slot * 3..(slot + 1) * 3] {
                        *v = item + 1;
                    }
                }
            });
            let expect: Vec<usize> = (0..23).flat_map(|i| [i + 1; 3]).collect();
            assert_eq!(data, expect, "parts {parts}");
        }
        // Empty data is a no-op for any item size.
        scoped_for_ranges_mut(&mut [] as &mut [u8], 4, 3, |_, _| panic!("no items"));
    }

    #[test]
    #[should_panic(expected = "whole items")]
    fn scoped_for_ranges_mut_rejects_ragged_items() {
        let mut data = [0u8; 7];
        scoped_for_ranges_mut(&mut data, 3, 2, |_, _| {});
    }

    #[test]
    fn scoped_for_given_ranges_mut_accepts_uneven_chunks() {
        // Work-balanced (uneven) boundaries: 1 + 6 + 3 items.
        let mut data = vec![0usize; 10 * 2];
        scoped_for_given_ranges_mut(&mut data, 2, vec![0..1, 1..7, 7..10], |range, chunk| {
            for (slot, item) in range.enumerate() {
                chunk[slot * 2] = item;
                chunk[slot * 2 + 1] = item;
            }
        });
        let expect: Vec<usize> = (0..10).flat_map(|i| [i, i]).collect();
        assert_eq!(data, expect);
    }

    #[test]
    #[should_panic(expected = "cover every item")]
    fn scoped_for_given_ranges_mut_rejects_partial_cover() {
        let mut data = [0u8; 6];
        let only_first: Vec<Range<usize>> = std::iter::once(0..2).collect();
        scoped_for_given_ranges_mut(&mut data, 2, only_first, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn scoped_for_given_ranges_mut_rejects_gaps() {
        let mut data = [0u8; 6];
        scoped_for_given_ranges_mut(&mut data, 2, vec![0..1, 2..3], |_, _| {});
    }

    #[test]
    fn dop_is_at_least_one() {
        assert!(configured_dop() >= 1);
    }

    #[test]
    fn serial_kernel_scope_pins_dop_and_restores() {
        let outer = configured_dop();
        let (inner, nested) =
            with_serial_kernels(|| (configured_dop(), with_serial_kernels(configured_dop)));
        assert_eq!(inner, 1);
        assert_eq!(nested, 1);
        assert_eq!(configured_dop(), outer, "guard must restore on exit");
        // The guard is per thread: a thread spawned inside the scope is
        // not serialized by it.
        let from_thread =
            with_serial_kernels(|| std::thread::scope(|s| s.spawn(configured_dop).join().unwrap()));
        assert_eq!(from_thread, outer);
    }
}
