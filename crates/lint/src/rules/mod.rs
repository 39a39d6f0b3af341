//! The invariant rules. Each is derived from a bug class this repository
//! has actually shipped (see `ARCHITECTURE.md`, "Invariants & mechanical
//! enforcement"):
//!
//! | rule | invariant | incident |
//! |------|-----------|----------|
//! | L001 | correctness guards must survive release builds | PR 4: `debug_assert`-only length checks silently zip-truncated `blas::dot`/`axpy` |
//! | L002 | real summation goes through `exact::ExactSum` | PR 5: `agg::sum` diverged from parallel `SUM` bit-for-bit |
//! | L003 | page/offset arithmetic in `storage` is overflow-checked | PR 3: unchecked page arithmetic in the sequential-read classifiers |
//! | L004 | a thread fan-out (`thread::spawn`/`scope`: `core::parallel`; the executor's one call of its wrappers: `exec/scan.rs`), a panic boundary (`catch_unwind`: `exec/scan.rs`, once) and an engine environment read (`engine/src/config.rs`; `configured_dop` nowhere) each have one home module | the `SQLARRAY_DOP` / `with_serial_kernels` knobs must stay authoritative; PR 13's `exec.rs` carried two scan harnesses, each with its own fan-out and panic boundary; a knob parsed beside `Settings` escapes "read once per engine" |
//! | L005 | no `unwrap`/`expect` on fallible paths in library code | PR 5: silent `<lob:…>` placeholder replaced by typed `UnresolvedLob` |
//! | L006 | shard locks are acquired in ascending index order | deadlock class a multi-session server will make real |
//! | L007 | every `unsafe` block carries a `// SAFETY:` comment | unsafe-audit companion |
//! | L008 | no per-row heap allocation inside batch-kernel and grouping loops | the vectorized path's speedup dies silently if a kernel loop allocates |
//! | L009 | no mutex guard held across a scan fan-out in engine code | the shared-engine refactor's lock discipline: guard-across-fan-out serializes or deadlocks concurrent sessions |
//! | L010 | engine scan loops and per-row selection loops must poll the query lifecycle | PR 10's cancellation contract: a scan loop without `check_interrupt` cannot be killed until its next page fault, and a UDF call lane or grouping loop over a decoded batch never faults at all |
//!
//! Suppression: `// lint:allow(L00x, reason = "…")` on the finding's line
//! or the line above. The reason is mandatory; a malformed or reasonless
//! allow is itself reported as `L000`.

mod l001_debug_assert;
mod l002_exact_sum;
mod l003_checked_arith;
mod l004_one_home;
mod l005_unwrap;
mod l006_lock_order;
mod l007_safety_comment;
mod l008_batch_alloc;
mod l009_guard_across_fanout;
mod l010_cancel_poll;

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Every rule id this crate knows, in order.
pub const ALL_RULES: &[&str] = &[
    "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009", "L010",
];

/// Builds a [`Finding`] anchored at significant token `k` of `f`.
pub(crate) fn finding_at(
    f: &SourceFile<'_>,
    rule: &'static str,
    k: usize,
    message: String,
) -> Finding {
    let tok = f.tok(k);
    Finding {
        rule,
        path: f.path.to_string(),
        line: tok.line,
        col: f.col(tok.start),
        message,
        snippet: f.line_text(tok.line).trim().to_string(),
    }
}

/// The body of the `for` loop whose keyword sits at significant token `k`:
/// the indices of its opening `{` and the matching `}`, or `None` if the
/// header never closes. The header expression may contain braces only
/// inside parens/brackets (closure bodies in iterator adapters), so the
/// body brace is the first `{` at bracket depth zero.
pub(crate) fn for_body(f: &SourceFile<'_>, k: usize) -> Option<(usize, usize)> {
    let is_punct = |j: usize| f.kind(j) == Some(TokKind::Punct);
    let mut depth = 0i32;
    let open = (k + 1..f.sig.len()).find(|&j| {
        if is_punct(j) {
            match f.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => return depth == 0,
                _ => {}
            }
        }
        false
    })?;
    let mut depth = 0i32;
    let close = (open..f.sig.len()).find(|&j| {
        if is_punct(j) {
            match f.text(j) {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
        }
        depth == 0
    });
    Some((open, close.unwrap_or(f.sig.len())))
}

/// Runs every rule over one parsed file, applies `lint:allow`
/// suppressions, and appends `L000` findings for malformed allows.
pub fn run_all(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    out.extend(l001_debug_assert::check(f));
    out.extend(l002_exact_sum::check(f));
    out.extend(l003_checked_arith::check(f));
    out.extend(l004_one_home::check(f));
    out.extend(l005_unwrap::check(f));
    out.extend(l006_lock_order::check(f));
    out.extend(l007_safety_comment::check(f));
    out.extend(l008_batch_alloc::check(f));
    out.extend(l009_guard_across_fanout::check(f));
    out.extend(l010_cancel_poll::check(f));
    out.retain(|d| !f.is_allowed(d.rule, d.line));
    for bad in &f.bad_allows {
        out.push(Finding {
            rule: "L000",
            path: f.path.to_string(),
            line: bad.line,
            col: 1,
            message: format!(
                "malformed lint:allow ({}); suppressions require a non-empty reason: \
                 lint:allow(L0xx, reason = \"…\")",
                bad.why
            ),
            snippet: f.line_text(bad.line).trim().to_string(),
        });
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}
