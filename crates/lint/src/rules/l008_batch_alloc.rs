//! **L008 — no per-row heap allocation inside batch-kernel loops.**
//!
//! The whole point of the vectorized execution path is that per-row work
//! is a few arithmetic instructions over contiguous columns. One heap
//! allocation inside a batch kernel's row loop (`.to_vec()`, `.clone()`,
//! `format!`, a fresh `Vec::new()`) re-introduces exactly the per-row
//! overhead the batch refactor removed — and it hides easily, because the
//! code stays correct and only the 2–4× speedup quietly evaporates.
//!
//! Scope: the batch kernels (`core::batch`), the engine's batch
//! compiler/evaluator (`engine::batch`, which holds the UDF call lane) and
//! the aggregation state (`engine::exec::agg`, which holds the vectorized
//! grouping loop). The rule walks every `for` loop body in those files and
//! flags the four allocator calls above.
//! Kernels should hoist scratch out of the loop (`clear()` + `reserve()`)
//! or borrow instead of cloning; a genuinely-needed allocation takes a
//! reasoned `lint:allow(L008, reason = "…")`.

use crate::diag::Finding;
use crate::rules::{finding_at, for_body};
use crate::source::SourceFile;
use std::collections::HashSet;

/// File suffixes forming the batch-kernel surface.
const SCOPE_SUFFIXES: &[&str] = &[
    "crates/core/src/batch.rs",
    "crates/engine/src/batch.rs",
    "crates/engine/src/exec/agg.rs",
];

pub fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if !SCOPE_SUFFIXES.iter().any(|s| f.path.ends_with(s)) {
        return out;
    }

    // Nested loops would report the same allocation once per enclosing
    // `for`; dedup by the flagged token index.
    let mut flagged: HashSet<usize> = HashSet::new();

    for k in 0..f.sig.len() {
        if !f.is_ident(k, "for") || f.in_test(f.tok(k).start) {
            continue;
        }
        let Some((open, close)) = for_body(f, k) else {
            continue;
        };
        for j in open + 1..close {
            let hit = if f.is_punct(j, ".")
                && (f.is_ident(j + 1, "to_vec") || f.is_ident(j + 1, "clone"))
                && f.is_punct(j + 2, "(")
            {
                Some((j + 1, format!(".{}()", f.text(j + 1))))
            } else if f.is_ident(j, "format") && f.is_punct(j + 1, "!") && f.is_punct(j + 2, "(") {
                Some((j, "format!".to_string()))
            } else if f.is_ident(j, "Vec")
                && f.is_punct(j + 1, ":")
                && f.is_punct(j + 2, ":")
                && f.is_ident(j + 3, "new")
                && f.is_punct(j + 4, "(")
            {
                Some((j, "Vec::new()".to_string()))
            } else {
                None
            };
            if let Some((at, what)) = hit {
                if flagged.insert(at) {
                    out.push(finding_at(
                        f,
                        "L008",
                        at,
                        format!(
                            "`{what}` inside a batch-kernel `for` loop allocates per row \
                             and forfeits the vectorized path's speedup; hoist the scratch \
                             out of the loop (clear + reserve) or borrow instead"
                        ),
                    ));
                }
            }
        }
    }
    out
}
