//! **L006 — shard locks are acquired in ascending index order.**
//!
//! `ShardedLruPool` stripes one logical structure over independently
//! locked shards. Today every pool operation holds at most one shard
//! guard; the moment an operation holds two (an atomic cross-shard move,
//! a balanced eviction — things the multi-session-server roadmap item
//! will want), two threads acquiring in opposite orders deadlock. The
//! mechanical rule: inside one function, if more than one shard-lock
//! guard can be held at once (a `let`-bound `….lock()` with `shard` in
//! the receiver, followed by another shard-lock acquisition), the
//! acquisition order must be provably ascending — which the lint accepts
//! only for literal, strictly increasing indices (`shards[0]`, then
//! `shards[1]`). Anything else is flagged.

use crate::diag::Finding;
use crate::rules::finding_at;
use crate::source::SourceFile;

/// One shard-lock acquisition site inside a function body.
struct Acq {
    /// Significant-token index of `lock`.
    k: usize,
    /// Statement starts with `let` — the guard outlives the statement.
    held: bool,
    /// Literal index if the receiver contains `shards [ <int> ]`.
    literal_index: Option<u64>,
}

pub(crate) fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if f.crate_name() != "storage" {
        return out;
    }

    // Walk function bodies: `fn name … { … }` at any nesting.
    let mut k = 0usize;
    while k < f.sig.len() {
        if !f.is_ident(k, "fn") || f.in_test(f.tok(k).start) {
            k += 1;
            continue;
        }
        // Find the body's opening brace (skip the signature; parens and
        // angle brackets may nest, braces may not before the body).
        let mut j = k + 1;
        let mut paren = 0usize;
        while j < f.sig.len() {
            if f.is_punct(j, "(") {
                paren += 1;
            } else if f.is_punct(j, ")") {
                paren = paren.saturating_sub(1);
            } else if f.is_punct(j, "{") && paren == 0 {
                break;
            } else if f.is_punct(j, ";") && paren == 0 {
                break; // trait method declaration — no body
            }
            j += 1;
        }
        if j >= f.sig.len() || !f.is_punct(j, "{") {
            k = j;
            continue;
        }
        let body_start = j;
        let mut depth = 0usize;
        let mut end = j;
        while end < f.sig.len() {
            if f.is_punct(end, "{") {
                depth += 1;
            } else if f.is_punct(end, "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }

        let acqs = shard_acquisitions(f, body_start, end);
        let held = acqs.iter().filter(|a| a.held).count();
        if acqs.len() >= 2 && held >= 1 && !provably_ascending(&acqs) {
            let second = &acqs[1];
            out.push(finding_at(
                f,
                "L006",
                second.k,
                "multiple shard-lock acquisitions in one scope with a held guard: \
                 acquisition order across ShardedLruPool shards must be provably \
                 ascending (literal increasing indices) or the scope deadlocks \
                 against a thread locking in the opposite order"
                    .to_string(),
            ));
        }
        k = body_start + 1; // descend into nested fns too
    }
    out
}

/// Collects `….lock()` calls whose receiver statement mentions a shard.
fn shard_acquisitions(f: &SourceFile<'_>, body_start: usize, body_end: usize) -> Vec<Acq> {
    let mut acqs = Vec::new();
    for k in body_start..body_end.min(f.sig.len()) {
        if !(f.is_punct(k, ".")
            && f.is_ident(k + 1, "lock")
            && f.is_punct(k + 2, "(")
            && f.is_punct(k + 3, ")"))
        {
            continue;
        }
        // Statement start: scan back to the nearest `;`, `{` or `}`.
        let mut s = k;
        while s > body_start {
            if f.is_punct(s, ";") || f.is_punct(s, "{") || f.is_punct(s, "}") {
                s += 1;
                break;
            }
            s -= 1;
        }
        let stmt = s..=k;
        let mentions_shard = stmt
            .clone()
            .any(|i| f.is_ident(i, "shard") || f.is_ident(i, "shards"));
        if !mentions_shard {
            continue;
        }
        let held = stmt.clone().any(|i| f.is_ident(i, "let"));
        // Literal index: `shards [ <num> ]` anywhere in the statement.
        let mut literal_index = None;
        for i in stmt {
            if f.is_ident(i, "shards")
                && f.is_punct(i + 1, "[")
                && f.kind(i + 2) == Some(crate::lexer::TokKind::Num)
                && f.is_punct(i + 3, "]")
            {
                literal_index = f.text(i + 2).replace('_', "").parse::<u64>().ok();
            }
        }
        acqs.push(Acq {
            k: k + 1,
            held,
            literal_index,
        });
    }
    acqs
}

/// True when every acquisition uses a literal index and the indices
/// strictly increase in source order.
fn provably_ascending(acqs: &[Acq]) -> bool {
    let mut prev: Option<u64> = None;
    for a in acqs {
        let Some(idx) = a.literal_index else {
            return false;
        };
        if let Some(p) = prev {
            if idx <= p {
                return false;
            }
        }
        prev = Some(idx);
    }
    true
}
