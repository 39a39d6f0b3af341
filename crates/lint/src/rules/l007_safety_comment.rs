//! **L007 — every `unsafe` site carries a `// SAFETY:` comment.**
//!
//! The unsafe-audit companion rule: crates without unsafe code declare
//! `#![forbid(unsafe_code)]` (the compiler enforces that); the remaining
//! sites must justify themselves in a `// SAFETY:` comment within the
//! ten lines above the `unsafe` keyword, so the soundness argument lives
//! next to the code it defends.

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::finding_at;
use crate::source::SourceFile;

/// How far above the `unsafe` keyword a SAFETY comment may sit.
const LOOKBACK_LINES: u32 = 10;

pub(crate) fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for k in 0..f.sig.len() {
        if !f.is_ident(k, "unsafe") || f.in_test(f.tok(k).start) {
            continue;
        }
        let line = f.tok(k).line;
        let lo = line.saturating_sub(LOOKBACK_LINES);
        let documented = f.toks.iter().any(|t| {
            matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                && t.line >= lo
                && t.line <= line
                && t.text(f.src).contains("SAFETY:")
        });
        if !documented {
            out.push(finding_at(
                f,
                "L007",
                k,
                "`unsafe` without a `// SAFETY:` comment: state the invariant that \
                 makes this sound within the ten lines above the block"
                    .to_string(),
            ));
        }
    }
    out
}
