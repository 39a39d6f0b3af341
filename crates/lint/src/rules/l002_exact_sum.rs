//! **L002 — real summation in aggregation paths goes through
//! `exact::ExactSum`.**
//!
//! The repo's standing invariant is that parallel execution is
//! bit-identical to serial at any DOP. Naive `f64` accumulation (`acc +=
//! v`, `.sum()`) is order-dependent under rounding, so any aggregation
//! path using it silently breaks the invariant the moment partials merge
//! in a different order (PR 5: `agg::sum` disagreed with the engine's
//! parallel `SUM` until it was moved onto the Kulisch accumulator).
//!
//! Scope: the aggregation surfaces — `core::ops::agg`, the engine's
//! aggregate/UDA merge paths, and the executor. The rule tracks
//! identifiers bound with an `f64`/`f32` type or a float literal and
//! flags `+=` on them, plus any `.sum(`/`.sum::<…>(` iterator fold.

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::finding_at;
use crate::source::SourceFile;
use std::collections::HashSet;

/// The aggregation surface: file suffixes, plus — with a trailing `/` —
/// whole directories, so splitting the executor into more files can never
/// drop one of them out of the rule.
const SCOPE: &[&str] = &[
    "crates/core/src/ops/agg.rs",
    "crates/engine/src/aggregate.rs",
    "crates/engine/src/exec/",
    "crates/engine/src/udf.rs",
];

fn in_scope(path: &str) -> bool {
    SCOPE.iter().any(|s| {
        if s.ends_with('/') {
            path.contains(s)
        } else {
            path.ends_with(s)
        }
    })
}

fn float_literal(text: &str) -> bool {
    (text.contains('.') && !text.starts_with("0x"))
        || text.ends_with("f64")
        || text.ends_with("f32")
}

pub fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if !in_scope(f.path) {
        return out;
    }

    // Pass 1: identifiers visibly bound to floats — `x: f64` (let or
    // parameter) or `let [mut] x = <float literal>`.
    let mut floats: HashSet<&str> = HashSet::new();
    for k in 0..f.sig.len() {
        if f.kind(k) != Some(TokKind::Ident) {
            continue;
        }
        let name = f.text(k);
        if f.is_punct(k + 1, ":") && (f.is_ident(k + 2, "f64") || f.is_ident(k + 2, "f32")) {
            floats.insert(name);
        }
        if name == "let" {
            let mut j = k + 1;
            if f.is_ident(j, "mut") {
                j += 1;
            }
            if f.kind(j) == Some(TokKind::Ident)
                && f.is_punct(j + 1, "=")
                && !f.is_punct(j + 2, "=")
                && f.kind(j + 2) == Some(TokKind::Num)
                && float_literal(f.text(j + 2))
            {
                floats.insert(f.text(j));
            }
        }
    }

    // Pass 2: flag `x +=` on float-bound identifiers and `.sum(` folds.
    for k in 0..f.sig.len() {
        if f.in_test(f.tok(k).start) {
            continue;
        }
        if f.kind(k) == Some(TokKind::Ident)
            && floats.contains(f.text(k))
            && f.is_punct(k + 1, "+")
            && f.is_punct(k + 2, "=")
        {
            out.push(finding_at(
                f,
                "L002",
                k,
                format!(
                    "naive float accumulation `{} +=` in an aggregation path is \
                     order-dependent and breaks parallel-equals-serial bit-identity; \
                     accumulate through `exact::ExactSum` (the PR 5 `agg::sum` class)",
                    f.text(k)
                ),
            ));
        }
        if f.is_punct(k, ".")
            && f.is_ident(k + 1, "sum")
            && (f.is_punct(k + 2, "(") || f.is_punct(k + 2, ":"))
        {
            out.push(finding_at(
                f,
                "L002",
                k + 1,
                "iterator `.sum()` in an aggregation path folds in iteration order; \
                 accumulate through `exact::ExactSum` so parallel merges stay \
                 bit-identical to serial"
                    .to_string(),
            ));
        }
    }
    out
}
