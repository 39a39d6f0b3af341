//! **L005 — no `unwrap`/`expect` in the library code of `storage`,
//! `engine`, `core`.**
//!
//! Typed errors exist end-to-end (`StorageError`, `EngineError`,
//! `ArrayError`; PR 5's `EngineError::UnresolvedLob` set the pattern for
//! replacing silent fallbacks). An `.unwrap()`/`.expect("…")` on a
//! fallible path turns a recoverable condition — a torn page, a corrupt
//! row, a rejected LOB read — into a process abort, which a multi-session
//! server cannot afford. Library code in the database stack propagates
//! with `?`; a provably-infallible site carries a `lint:allow(L005, …)`
//! naming the invariant that guarantees it.
//!
//! Matching is syntactic: `.unwrap()` with empty parens, and `.expect(`
//! whose first argument is a string literal — which distinguishes
//! `Result::expect("msg")` from unrelated methods like the T-SQL
//! parser's `self.expect(&Tok::RParen, …)`.

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::finding_at;
use crate::source::SourceFile;

/// Crates whose library code must propagate typed errors.
const SCOPE: &[&str] = &["storage", "engine", "core"];

pub(crate) fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if !SCOPE.contains(&f.crate_name()) {
        return out;
    }
    for k in 0..f.sig.len().saturating_sub(2) {
        if !f.is_punct(k, ".") || f.in_test(f.tok(k).start) {
            continue;
        }
        if f.is_ident(k + 1, "unwrap") && f.is_punct(k + 2, "(") && f.is_punct(k + 3, ")") {
            out.push(finding_at(
                f,
                "L005",
                k + 1,
                "`.unwrap()` in library code aborts on a recoverable condition; \
                 propagate the typed error with `?` (see EngineError::UnresolvedLob), \
                 or lint:allow with the invariant that makes this infallible"
                    .to_string(),
            ));
        }
        if f.is_ident(k + 1, "expect")
            && f.is_punct(k + 2, "(")
            && f.kind(k + 3) == Some(TokKind::Str)
        {
            out.push(finding_at(
                f,
                "L005",
                k + 1,
                "`.expect(\"…\")` in library code aborts on a recoverable condition; \
                 propagate the typed error with `?`, or lint:allow with the invariant \
                 that makes this infallible"
                    .to_string(),
            ));
        }
    }
    out
}
