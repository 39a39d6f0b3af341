//! **L001 — correctness guards must survive release builds.**
//!
//! `debug_assert!` / `debug_assert_eq!` / `debug_assert_ne!` compile to
//! nothing in release builds. When the guarded condition is a slice
//! length, an index bound, or a structural invariant, the release binary
//! does not fail fast — it silently computes a wrong answer (PR 4:
//! `blas::dot` zip-truncated to a wrong dot product when the lengths
//! disagreed). In the database stack (`core`, `storage`, `engine`, `fft`,
//! `linalg`) every such guard must be a real `assert!` — or carry a
//! `lint:allow(L001, …)` explaining why a debug-only check is sound (e.g.
//! the very next line's slice indexing panics anyway).

use crate::diag::Finding;
use crate::rules::finding_at;
use crate::source::SourceFile;

/// Crates forming the database stack, where a vanished guard means a
/// silent wrong answer rather than a demo glitch.
const SCOPE: &[&str] = &["core", "storage", "engine", "fft", "linalg"];

const MACROS: &[&str] = &["debug_assert", "debug_assert_eq", "debug_assert_ne"];

pub(crate) fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if !SCOPE.contains(&f.crate_name()) {
        return out;
    }
    for k in 0..f.sig.len().saturating_sub(1) {
        let t = f.text(k);
        if MACROS.contains(&t) && f.is_punct(k + 1, "!") && !f.in_test(f.tok(k).start) {
            out.push(finding_at(
                f,
                "L001",
                k,
                format!(
                    "`{t}!` vanishes in release builds; a correctness guard here must be \
                     `{}!` (the PR 4 release-truncation class)",
                    t.trim_start_matches("debug_")
                ),
            ));
        }
    }
    out
}
