//! The counter golden (`BENCH_counters.json`): what each class of write-path
//! work and each Table 1 query counts — pages read, hit and written, WAL
//! frames and bytes, rows scanned and changed, batches, managed calls —
//! at smoke scale, through the same check as `BENCH_paper.json`. A change
//! that moves a counter on purpose pastes the text the failing assertion
//! prints into the file; its diff is the record of what moved.

use sqlarray_bench::assert_golden;
use sqlarray_bench::counters::{counters, counters_json, Counter};

/// The committed golden, recorded at DOP 1.
const BENCH_COUNTERS: &str = include_str!("../BENCH_counters.json");

/// The counters at DOP 1 equal the committed file, and DOP 4 gives the
/// same lines — all but `batches`, which counts each partition's own
/// flushes.
#[test]
fn counters_equal_the_committed_golden_at_every_dop() {
    let serial = counters(1);
    assert_golden(
        "BENCH_counters.json",
        BENCH_COUNTERS,
        &counters_json(&serial),
    );
    let dop_invariant = |lines: Vec<Counter>| -> Vec<Counter> {
        lines
            .into_iter()
            .filter(|c| c.counter != "batches")
            .collect()
    };
    assert_eq!(
        dop_invariant(counters(4)),
        dop_invariant(serial),
        "a counter moved at DOP 4"
    );
}
