//! **L003 — page/offset arithmetic in `storage` must be
//! overflow-checked.**
//!
//! Page ids, byte offsets and encoded lengths come from disk and from
//! callers; raw `+`/`*` on them wraps silently in release builds, turning
//! an out-of-range request into a *passing* bounds check and a read of
//! the wrong bytes (PR 3 hardened the sequential-read classifiers with
//! `checked_add` after exactly this class). In the `storage` crate, any
//! raw `+`, `*`, `+=` or `*=` whose operand is a sensitive identifier
//! (`*offset*`, `*page_id*`, `*encoded_len*`, …) must use `checked_*` /
//! `saturating_*` — or carry a `lint:allow(L003, …)` stating the bound
//! that makes the raw op safe.

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::finding_at;
use crate::source::SourceFile;

/// Identifier fragments that mark page/offset/length arithmetic.
const SENSITIVE: &[&str] = &[
    "page_id",
    "page_no",
    "byte_off",
    "offset",
    "encoded_len",
    "total_len",
    "n_pages",
];

fn sensitive(name: &str) -> bool {
    SENSITIVE.iter().any(|s| name.contains(s))
}

pub(crate) fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if f.crate_name() != "storage" {
        return out;
    }
    for k in 1..f.sig.len() {
        if !(f.is_punct(k, "+") || f.is_punct(k, "*")) || f.in_test(f.tok(k).start) {
            continue;
        }
        // Binary use only: a `*` (deref) or unary context is preceded by
        // an operator/opening bracket, not by a value.
        let prev_kind = f.kind(k - 1);
        let value_before = match prev_kind {
            Some(TokKind::Ident) | Some(TokKind::Num) => true,
            Some(TokKind::Punct) => matches!(f.text(k - 1), ")" | "]"),
            _ => false,
        };
        if !value_before {
            continue;
        }
        // `+=` / `*=` count too (`offset += len` wraps the same way);
        // `a ++ b` does not exist in Rust, so no false positives there.
        let prev_sensitive = f.kind(k - 1) == Some(TokKind::Ident) && sensitive(f.text(k - 1));
        let next_sensitive = f.kind(k + 1) == Some(TokKind::Ident) && sensitive(f.text(k + 1));
        if prev_sensitive || next_sensitive {
            let op = f.text(k);
            let name = if prev_sensitive {
                f.text(k - 1)
            } else {
                f.text(k + 1)
            };
            let method = if op == "+" {
                "checked_add"
            } else {
                "checked_mul"
            };
            out.push(finding_at(
                f,
                "L003",
                k,
                format!(
                    "raw `{op}` on `{name}` can wrap in release builds and turn an \
                     out-of-range request into a passing bounds check; use \
                     `{method}`/`saturating_*` (the PR 3 classifier-overflow class)"
                ),
            ));
        }
    }
    out
}
