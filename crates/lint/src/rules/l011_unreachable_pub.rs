//! **L011 — `core`, `storage`, `linalg` and `fft` export only what
//! something calls.**
//!
//! A `pub fn` or `pub const fn` in one of their `src/` trees ([`WATCHED`]),
//! outside `#[cfg(test)]`, is a finding when no caller file of another
//! crate names it. The caller files are every
//! crate's `src/` and the root `src/`, the `examples/` and the benchmark
//! package's `src/` ([`is_caller`]); a name counts only as an identifier
//! in their non-test code, so neither a test, a comment, a string nor a
//! `pub use` re-export keeps a function public. What only its own crate
//! calls is `pub(crate)` or private; what nothing calls is deleted; an
//! instrument only an integration test calls carries an allow naming
//! that test.
//!
//! The match is by name, so a function that shares its name with an item
//! another crate calls (`new`, `len`) is never flagged: the rule finds
//! the dead, it does not prove the living.

use std::collections::{HashMap, HashSet};

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::finding_at;
use crate::source::SourceFile;

/// The crates whose public functions the rule checks.
const WATCHED: &[&str] = &[
    "crates/core/src/",
    "crates/storage/src/",
    "crates/linalg/src/",
    "crates/fft/src/",
];

/// Every identifier the caller files name, with the crates that name it
/// ([`SourceFile::crate_name`]: the root package, its examples and the
/// benchmark are `sqlarray`).
#[derive(Debug, Default)]
pub struct Callers {
    names: HashMap<String, HashSet<String>>,
}

impl Callers {
    /// Indexes the identifiers of `f`'s non-test code outside `pub use`
    /// lines, if `f` is a caller file; other files add nothing.
    pub fn add(&mut self, f: &SourceFile<'_>) {
        if !is_caller(f.path) {
            return;
        }
        let mut k = 0;
        while k < f.sig.len() {
            if let Some(end) = pub_use_end(f, k) {
                k = end;
                continue;
            }
            if f.kind(k) == Some(TokKind::Ident) && !f.in_test(f.tok(k).start) {
                self.names
                    .entry(f.text(k).to_string())
                    .or_default()
                    .insert(f.crate_name().to_string());
            }
            k += 1;
        }
    }

    /// True when a crate other than `own` names `name`.
    fn reach(&self, name: &str, own: &str) -> bool {
        self.names
            .get(name)
            .is_some_and(|crates| crates.iter().any(|c| c != own))
    }
}

/// True for the files whose code can call into `core` and `storage`: a
/// crate's `src/`, the root `src/`, `examples/` and `benchmark/src`. Test
/// trees and lint fixtures are not callers.
fn is_caller(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    !parts.iter().any(|p| matches!(*p, "tests" | "fixtures"))
        && parts.iter().any(|p| matches!(*p, "src" | "examples"))
}

/// When significant token `k` opens a `pub use` (or `pub(…) use`) item,
/// the index just past its `;`.
fn pub_use_end(f: &SourceFile<'_>, k: usize) -> Option<usize> {
    if !f.is_ident(k, "pub") {
        return None;
    }
    let mut j = k + 1;
    if f.is_punct(j, "(") {
        j = (j..f.sig.len()).find(|&i| f.is_punct(i, ")"))? + 1;
    }
    if !f.is_ident(j, "use") {
        return None;
    }
    Some(
        (j..f.sig.len())
            .find(|&i| f.is_punct(i, ";"))
            .map_or(f.sig.len(), |i| i + 1),
    )
}

pub fn check(f: &SourceFile<'_>, callers: &Callers) -> Vec<Finding> {
    if !WATCHED.iter().any(|w| f.path.contains(w)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for k in 0..f.sig.len() {
        if !f.is_ident(k, "pub") || f.in_test(f.tok(k).start) {
            continue;
        }
        let fn_at = if f.is_ident(k + 1, "const") {
            k + 2
        } else {
            k + 1
        };
        if !f.is_ident(fn_at, "fn") || f.kind(fn_at + 1) != Some(TokKind::Ident) {
            continue;
        }
        let name = f.text(fn_at + 1);
        if !callers.reach(name, f.crate_name()) {
            out.push(finding_at(
                f,
                "L011",
                k,
                format!(
                    "`{name}` is `pub` but no other crate, example or the benchmark calls it: \
                     delete it, narrow it to `pub(crate)`, or allow it naming the integration \
                     test that calls it"
                ),
            ));
        }
    }
    out
}
