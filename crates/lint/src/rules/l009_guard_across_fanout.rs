//! **L009 — no mutex guard held across a scan fan-out in engine code.**
//!
//! The shared-engine refactor put counters behind `Mutex`es (plan-cache
//! state, scheduler state, store accounting). A `.lock()` guard that is
//! still live when the scan fans out (`scoped_map_ranges`,
//! `scoped_for_ranges_mut`, `scoped_try_for_ranges_mut`,
//! `thread::scope`) serializes every worker behind one session's guard
//! at best — and deadlocks at worst, the moment any worker touches the
//! same mutex (the store's accounting lock is taken by every reader
//! fold). The discipline is: take what you need out of the guard, drop
//! it, then fan out. The engine's `RwLock` database guard is *designed*
//! to span the fan-out (that is the read-snapshot), so only `Mutex`
//! guards (`.lock()`) are watched, not `.read()`/`.write()`.
//!
//! Mechanically: inside the `engine` crate, a `let`-bound `….lock(…)` or
//! `lock_unpoisoned(…)` guard (the [`sqlarray_core::sync`] poison-policy
//! funnel acquires the same `MutexGuard`) is live until its binding is
//! `drop(…)`ed or its enclosing block ends; reaching a fan-out call with
//! any guard live is a finding. `read_unpoisoned`/`write_unpoisoned` are
//! exempt for the same reason `.read()`/`.write()` are.

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::finding_at;
use crate::source::SourceFile;

/// The text of significant token `k` when it is an identifier.
fn ident_text<'a>(f: &'a SourceFile<'_>, k: usize) -> Option<&'a str> {
    if f.kind(k) == Some(TokKind::Ident) {
        Some(f.text(k))
    } else {
        None
    }
}

/// Fan-out entry points a live guard must not reach.
const FANOUTS: &[&str] = &[
    "scoped_map_ranges",
    "scoped_for_ranges_mut",
    "scoped_try_for_ranges_mut",
];

/// A live `let`-bound mutex guard.
struct Guard {
    /// The bound identifier (`let g = m.lock()…` → `g`).
    name: String,
    /// Brace depth at the binding; leaving this depth kills the guard.
    depth: usize,
}

pub(crate) fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if f.crate_name() != "engine" {
        return out;
    }

    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut k = 0usize;
    while k < f.sig.len() {
        if f.is_punct(k, "{") {
            depth += 1;
        } else if f.is_punct(k, "}") {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
        } else if f.is_ident(k, "let") {
            // `let [mut] name = … .lock ( … ;` — a guard binding when the
            // statement contains a `.lock(` call before its terminating
            // semicolon.
            let mut n = k + 1;
            if f.is_ident(n, "mut") {
                n += 1;
            }
            if let Some(name) = ident_text(f, n) {
                // Stop at the first `{` as well as `;`: a `.lock()` inside
                // a nested block (`let v = { m.lock()…; *v };`) releases
                // within that block, so the outer binding is not a guard.
                let mut j = n + 1;
                while j + 2 < f.sig.len() && !f.is_punct(j, ";") && !f.is_punct(j, "{") {
                    let method_lock =
                        f.is_punct(j, ".") && f.is_ident(j + 1, "lock") && f.is_punct(j + 2, "(");
                    let funnel_lock = f.is_ident(j, "lock_unpoisoned") && f.is_punct(j + 1, "(");
                    if method_lock || funnel_lock {
                        guards.push(Guard {
                            name: name.to_string(),
                            depth,
                        });
                        break;
                    }
                    j += 1;
                }
            }
        } else if f.is_ident(k, "drop") && f.is_punct(k + 1, "(") {
            if let Some(name) = ident_text(f, k + 2) {
                guards.retain(|g| g.name != name);
            }
        } else if !f.in_test(f.tok(k).start) {
            let is_scoped = FANOUTS.iter().any(|n| f.is_ident(k, n)) && f.is_punct(k + 1, "(");
            let is_thread_scope = f.is_ident(k, "thread")
                && f.is_punct(k + 1, ":")
                && f.is_punct(k + 2, ":")
                && f.is_ident(k + 3, "scope");
            if (is_scoped || is_thread_scope) && !guards.is_empty() {
                out.push(finding_at(
                    f,
                    "L009",
                    k,
                    format!(
                        "scan fan-out `{}` reached while mutex guard `{}` is live: \
                         a guard held across the fan-out serializes (or deadlocks) \
                         every worker — copy what you need out of the guard and \
                         drop it before fanning out",
                        f.text(k),
                        guards
                            .last()
                            .map(|g| g.name.as_str())
                            .unwrap_or("<unknown>"),
                    ),
                ));
            }
        }
        k += 1;
    }
    out
}
