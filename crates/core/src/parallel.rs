//! The default degree of parallelism and the chunked fan-out helper.
//!
//! A statement's scan is the workspace's one parallel unit: the engine
//! reads `SQLARRAY_DOP` once (its `config` module), hands each session
//! that default ([`dop_or_cores`] decides what "unset" means), and the
//! scan driver fans a table's partitions out through
//! [`scoped_map_ranges`] at the DOP its admission ticket grants. The
//! array, FFT and linear-algebra kernels never fan out on their own: they
//! run on the thread that calls them, a scan worker's or the session's.
//!
//! [`partition_ranges`] is the one chunking rule — used by the storage
//! layer to split a leaf chain into scan partitions and by the bulk
//! loader to split its rows — so "how work divides" has a single,
//! property-tested definition: chunks are contiguous, cover the range
//! exactly, never number more than requested, and differ in length by at
//! most one.

use std::ops::Range;

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
/// the workspace's one fan-out: bulk-load row encoding, leaf-image
/// building and the scan workers.
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
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
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
    fn dop_is_at_least_one() {
        assert!(dop_or_cores(None) >= 1);
        assert_eq!(dop_or_cores(Some(0)), 1);
        assert_eq!(dop_or_cores(Some(3)), 3);
    }
}
