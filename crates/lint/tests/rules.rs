//! Fixture tests: one positive (rule fires) and one negative (rule stays
//! silent) source per rule, linted under pretend workspace paths so
//! crate-scoped rules attribute them correctly.

use sqlarray_lint::lint_source;

/// Rules that fired, in report order.
fn rules(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src).iter().map(|f| f.rule).collect()
}

fn count(path: &str, src: &str, rule: &str) -> usize {
    rules(path, src).iter().filter(|r| **r == rule).count()
}

#[test]
fn l002_flags_raw_float_accumulation_in_agg() {
    let pos = include_str!("../fixtures/l002_pos.rs");
    // `total += v` and `.sum()`.
    assert_eq!(count("crates/core/src/ops/agg.rs", pos, "L002"), 2);
}

#[test]
fn l002_silent_on_exactsum_and_integer_counters() {
    let neg = include_str!("../fixtures/l002_neg.rs");
    assert_eq!(count("crates/core/src/ops/agg.rs", neg, "L002"), 0);
}

#[test]
fn l002_covers_every_file_of_the_executor_directory() {
    let pos = include_str!("../fixtures/l002_pos.rs");
    for file in ["mod.rs", "scan.rs", "agg.rs", "a_future_split.rs"] {
        let path = format!("crates/engine/src/exec/{file}");
        assert_eq!(count(&path, pos, "L002"), 2, "{path}");
    }
}

#[test]
fn l002_covers_every_file_of_the_array_kernels() {
    let pos = include_str!("../fixtures/l002_pos.rs");
    for file in ["agg.rs", "elementwise.rs", "a_future_kernel.rs"] {
        let path = format!("crates/core/src/ops/{file}");
        assert_eq!(count(&path, pos, "L002"), 2, "{path}");
    }
}

#[test]
fn l002_only_watches_aggregation_paths() {
    let pos = include_str!("../fixtures/l002_pos.rs");
    assert_eq!(count("crates/core/src/exact.rs", pos, "L002"), 0);
    assert_eq!(count("crates/linalg/src/blas.rs", pos, "L002"), 0);
}

#[test]
fn l003_flags_raw_offset_arithmetic_in_storage() {
    let pos = include_str!("../fixtures/l003_pos.rs");
    // `offset + len`, `*byte_off += encoded_len`, `page_id * page_size`.
    assert_eq!(count("crates/storage/src/fixture.rs", pos, "L003"), 3);
}

#[test]
fn l003_silent_on_checked_math_and_allows() {
    let neg = include_str!("../fixtures/l003_neg.rs");
    assert_eq!(count("crates/storage/src/fixture.rs", neg, "L003"), 0);
}

#[test]
fn l003_only_applies_to_storage() {
    let pos = include_str!("../fixtures/l003_pos.rs");
    assert_eq!(count("crates/engine/src/fixture.rs", pos, "L003"), 0);
}

#[test]
fn l004_flags_direct_thread_fanout() {
    let pos = include_str!("../fixtures/l004_pos.rs");
    assert_eq!(count("crates/engine/src/fixture.rs", pos, "L004"), 2);
}

#[test]
fn l004_silent_on_parallel_helpers_and_tests() {
    let neg = include_str!("../fixtures/l004_neg.rs");
    assert_eq!(count("crates/engine/src/fixture.rs", neg, "L004"), 0);
}

#[test]
fn l004_core_parallel_is_sanctioned() {
    let pos = include_str!("../fixtures/l004_pos.rs");
    assert_eq!(count("crates/core/src/parallel.rs", pos, "L004"), 0);
}

#[test]
fn l004_flags_each_effect_outside_its_home() {
    let pos = include_str!("../fixtures/l004_homes_pos.rs");
    // Per path: fan-outs, panic boundaries, environment reads and the
    // test's `configured_dop()` that land outside their home. In the
    // scan driver the second fan-out and the second `catch_unwind` do.
    for (path, want) in [
        ("crates/engine/src/exec/select.rs", 2 + 2 + 2 + 1),
        ("crates/engine/src/exec/scan.rs", 1 + 1 + 2 + 1),
        ("crates/engine/src/config.rs", 2 + 1),
        ("crates/engine/src/session.rs", 2 + 2 + 1),
        ("crates/storage/src/table.rs", 2),
        ("crates/bench/src/lib.rs", 2),
    ] {
        assert_eq!(count(path, pos, "L004"), want, "{path}");
    }
}

#[test]
fn l004_silent_on_each_effect_at_home() {
    let neg = include_str!("../fixtures/l004_homes_neg.rs");
    assert_eq!(count("crates/engine/src/exec/scan.rs", neg, "L004"), 0);
    let read = "pub fn lookup() -> Option<String> { std::env::var(\"SQLARRAY_DOP\").ok() }";
    assert_eq!(count("crates/engine/src/config.rs", read, "L004"), 0);
    assert_eq!(count("crates/engine/src/session.rs", read, "L004"), 1);
    // Outside the engine the knobs are not the engine's: the report
    // binary's row count.
    assert_eq!(count("crates/bench/src/lib.rs", read, "L004"), 0);
}

#[test]
fn l006_flags_unordered_held_shard_guards() {
    let pos = include_str!("../fixtures/l006_pos.rs");
    assert_eq!(count("crates/storage/src/fixture.rs", pos, "L006"), 1);
}

#[test]
fn l006_silent_on_single_guard_and_literal_ascending() {
    let neg = include_str!("../fixtures/l006_neg.rs");
    assert_eq!(count("crates/storage/src/fixture.rs", neg, "L006"), 0);
}

#[test]
fn l008_flags_per_row_allocation_in_batch_loops() {
    let pos = include_str!("../fixtures/l008_pos.rs");
    // `.to_vec()`, `.clone()`, `format!`, `Vec::new()` — one each.
    assert_eq!(count("crates/core/src/batch.rs", pos, "L008"), 4);
    assert_eq!(count("crates/engine/src/batch.rs", pos, "L008"), 4);
}

#[test]
fn l008_silent_on_hoisted_scratch_borrows_allows_and_tests() {
    let neg = include_str!("../fixtures/l008_neg.rs");
    assert_eq!(count("crates/core/src/batch.rs", neg, "L008"), 0);
}

#[test]
fn l008_only_watches_the_batch_kernels() {
    let pos = include_str!("../fixtures/l008_pos.rs");
    assert_eq!(count("crates/engine/src/exec/select.rs", pos, "L008"), 0);
    // The vectorized grouping loop lives with the aggregation state.
    assert_eq!(count("crates/engine/src/exec/agg.rs", pos, "L008"), 4);
}

#[test]
fn l009_flags_mutex_guard_held_across_fanout() {
    let pos = include_str!("../fixtures/l009_pos.rs");
    // One `scoped_map_ranges` and one `thread::scope` under `.lock()`
    // guards, plus one `scoped_map_ranges` under a `lock_unpoisoned`
    // funnel guard.
    assert_eq!(count("crates/engine/src/fixture.rs", pos, "L009"), 3);
}

#[test]
fn l009_silent_on_dropped_scoped_rwlock_and_test_guards() {
    let neg = include_str!("../fixtures/l009_neg.rs");
    assert_eq!(count("crates/engine/src/fixture.rs", neg, "L009"), 0);
}

#[test]
fn l009_only_applies_to_the_engine_crate() {
    let pos = include_str!("../fixtures/l009_pos.rs");
    assert_eq!(count("crates/storage/src/fixture.rs", pos, "L009"), 0);
}

#[test]
fn l010_flags_scan_loops_without_lifecycle_poll() {
    let pos = include_str!("../fixtures/l010_pos.rs");
    // One unpolled `scan_partition`, one unpolled `scan_partition_batches`,
    // one unpolled per-row loop over a selection vector.
    assert_eq!(count("crates/engine/src/fixture.rs", pos, "L010"), 3);
}

#[test]
fn l010_silent_on_polling_callbacks_and_tests() {
    let neg = include_str!("../fixtures/l010_neg.rs");
    assert_eq!(count("crates/engine/src/fixture.rs", neg, "L010"), 0);
}

#[test]
fn l010_only_applies_to_the_engine_crate() {
    // The storage crate owns the scan drivers (its leaf walk polls per
    // page read) — the callback rule watches engine call sites only.
    let pos = include_str!("../fixtures/l010_pos.rs");
    assert_eq!(count("crates/storage/src/table.rs", pos, "L010"), 0);
}

#[test]
fn l000_reasonless_allow_is_reported_and_does_not_suppress() {
    let src = include_str!("../fixtures/l000_bad_allow.rs");
    let got = rules("crates/storage/src/fixture.rs", src);
    assert!(got.contains(&"L000"), "{got:?}");
    assert!(got.contains(&"L003"), "{got:?}");
}

#[test]
fn findings_carry_location_and_snippet() {
    let pos = include_str!("../fixtures/l003_pos.rs");
    let found = lint_source("crates/storage/src/fixture.rs", pos);
    let f = found.iter().find(|f| f.rule == "L003").unwrap();
    assert_eq!(f.path, "crates/storage/src/fixture.rs");
    assert!(f.line > 0 && f.col > 0);
    assert!(f.snippet.contains("offset + len"), "{}", f.snippet);
    assert!(f.render_human().contains("fixture.rs"));
    assert!(f.render_json().starts_with("{\"rule\":\"L003\""));
}

#[test]
fn allow_covers_same_line_and_line_below_only() {
    let same_line =
        "fn f(offset: u64) -> u64 { offset + 1 } // lint:allow(L003, reason = \"bounded\")";
    assert_eq!(count("crates/storage/src/x.rs", same_line, "L003"), 0);
    let too_far =
        "// lint:allow(L003, reason = \"bounded\")\n\nfn f(offset: u64) -> u64 { offset + 1 }";
    assert_eq!(count("crates/storage/src/x.rs", too_far, "L003"), 1);
}

#[test]
fn loc_counts_lines_holding_code_outside_tests() {
    use sqlarray_lint::{driver::loc, SourceFile};
    let src = include_str!("../fixtures/loc.rs");
    assert_eq!(
        loc(&SourceFile::parse("crates/core/src/fixture.rs", src)),
        9
    );
    // Without its test module, the same file counts the same.
    let live = src.replace(
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n",
        "",
    );
    assert_ne!(live, src);
    assert_eq!(
        loc(&SourceFile::parse("crates/core/src/fixture.rs", &live)),
        9
    );
    assert_eq!(
        loc(&SourceFile::parse(
            "crates/core/src/fixture.rs",
            "\n// only\n\n"
        )),
        0
    );
}
