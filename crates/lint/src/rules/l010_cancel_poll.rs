//! **L010 — engine scan loops must poll the query lifecycle.**
//!
//! PR 10 made cancellation, timeouts and memory budgets a contract: a
//! statement aborts within one batch worth of work because every row/batch
//! callback the engine feeds into the storage scan drivers
//! (`scan_partition`, `scan_partition_batches`) starts with
//! `reader.check_interrupt()`. A new scan loop that forgets the poll
//! silently re-opens the unbounded-statement hole — the scan still
//! *works*, it just cannot be killed until its next page fault, which on a
//! pool-resident table is never.
//!
//! Mechanically: inside the `engine` crate, every non-test call to
//! `scan_partition(…)` / `scan_partition_batches(…)` must contain the
//! identifier `check_interrupt` somewhere in its argument region (the
//! callback body lives there). The storage crate's own leaf walk polls per
//! page read and is exempt; tests drive scans through the executor.
//!
//! The vectorized executor added a second kind of unbounded loop: *inside*
//! one batch callback, a UDF call lane or a grouping loop walks the
//! selection vector row by row, and nothing in it ever faults a page. So
//! every non-test engine `for` loop whose header iterates a selection
//! (`sel.iter()`) must likewise contain `check_interrupt` in its body.

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::{finding_at, for_body};
use crate::source::SourceFile;

/// Scan drivers whose engine-side callbacks must poll.
const SCAN_DRIVERS: &[&str] = &["scan_partition", "scan_partition_batches"];

pub fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if f.crate_name() != "engine" {
        return out;
    }

    for k in 0..f.sig.len() {
        if f.is_ident(k, "for") && !f.in_test(f.tok(k).start) {
            if let Some(finding) = check_selection_loop(f, k) {
                out.push(finding);
            }
        }
        let is_driver = SCAN_DRIVERS.iter().any(|n| f.is_ident(k, n)) && f.is_punct(k + 1, "(");
        if !is_driver || f.in_test(f.tok(k).start) {
            continue;
        }
        // A definition (`fn scan_partition(...)`) is not a call site.
        if k > 0 && f.kind(k - 1) == Some(TokKind::Ident) && f.text(k - 1) == "fn" {
            continue;
        }
        // Walk the call's argument region to the matching `)`; the
        // row/batch callback — and therefore its lifecycle poll — lives
        // inside it.
        let mut depth = 0usize;
        let mut j = k + 1;
        let mut polled = false;
        while j < f.sig.len() {
            if f.is_punct(j, "(") {
                depth += 1;
            } else if f.is_punct(j, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if f.is_ident(j, "check_interrupt") {
                polled = true;
            }
            j += 1;
        }
        if !polled {
            out.push(finding_at(
                f,
                "L010",
                k,
                format!(
                    "scan loop `{}` does not poll the query lifecycle: the \
                     row/batch callback must call `reader.check_interrupt()` \
                     so cancellation, timeouts and kill-matrix trip points \
                     abort the statement within one batch worth of work",
                    f.text(k),
                ),
            ));
        }
    }
    out
}

/// The per-row clause: a `for` loop at `k` whose header walks a selection
/// vector (`sel.iter()`) must poll somewhere in its body.
fn check_selection_loop(f: &SourceFile<'_>, k: usize) -> Option<Finding> {
    let (open, close) = for_body(f, k)?;
    let walks_selection = (k + 1..open)
        .any(|j| f.is_ident(j, "sel") && f.is_punct(j + 1, ".") && f.is_ident(j + 2, "iter"));
    let polled = (open + 1..close).any(|j| f.is_ident(j, "check_interrupt"));
    (walks_selection && !polled).then(|| {
        finding_at(
            f,
            "L010",
            k,
            "per-row loop over a selection vector does not poll the query \
             lifecycle: a call lane or grouping loop does unbounded work \
             between page reads, so its body must call `check_interrupt()`"
                .to_string(),
        )
    })
}
