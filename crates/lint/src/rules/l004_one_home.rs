//! **L004 — a thread fan-out, a panic boundary and an environment read
//! each have one home module.**
//!
//! Each of these effects is only authoritative while it happens in one
//! place, so each is flagged anywhere else in the files it watches:
//!
//! * **A thread fan-out.** A statement's scan is the one parallel unit:
//!   `SQLARRAY_DOP`, `Session::set_dop` and the admission ticket bind only
//!   if every fan-out takes its width from them and its chunking from
//!   `partition_ranges`, and the array, FFT and linear-algebra kernels run
//!   on the thread that calls them. A stray `std::thread::spawn`/`scope`
//!   escapes that budget (inside a scan worker it nests `dop × dop`
//!   threads), so those two belong to `core/src/parallel.rs`, whose
//!   `scoped_map_ranges` everyone else calls. Inside the executor it is
//!   called once, by the one partitioned-scan driver (`exec/scan.rs`): a
//!   second call is a twin scan harness growing back
//!   (`scoped_for_ranges_mut`, the deleted disjoint-write helper, counts
//!   too).
//! * **A panic boundary.** `catch_unwind` is that driver's too, once: a
//!   worker panic becomes a typed error in one place, for every statement.
//! * **An environment read.** The engine parses `SQLARRAY_*` once per
//!   engine, in `engine/src/config.rs` (`env::var`; `env_usize` was the
//!   deleted per-call parser). It never calls `configured_dop`, the
//!   deleted per-call `SQLARRAY_DOP` read the kernels once fanned out by,
//!   not even in its unit tests.
//!
//! Code under `#[cfg(test)]` may fan out, catch panics and read the
//! environment freely, except for that last call.

use crate::diag::Finding;
use crate::rules::finding_at;
use crate::source::SourceFile;

/// One effect and where it may happen.
struct Home {
    /// The watched files: those whose workspace path contains this.
    scope: &'static str,
    /// The one file the effect may appear in; `None`: no file in scope.
    home: Option<&'static str>,
    /// The home holds at most one site.
    once: bool,
    /// `#[cfg(test)]` code is watched too.
    tests_count: bool,
    /// True when significant token `k` starts a site of the effect.
    site: fn(&SourceFile<'_>, usize) -> bool,
    /// What the finding says.
    message: &'static str,
}

const HOMES: &[Home] = &[
    Home {
        scope: "crates/",
        home: Some("crates/core/src/parallel.rs"),
        once: false,
        tests_count: false,
        site: thread_api,
        message: "`std::thread` outside core::parallel escapes the DOP budget \
                  (`SQLARRAY_DOP`, the admission ticket); fan out through \
                  `parallel::scoped_map_ranges`; kernels run on their caller's thread",
    },
    Home {
        scope: "crates/engine/src/exec/",
        home: Some("crates/engine/src/exec/scan.rs"),
        once: true,
        tests_count: false,
        site: fan_out_call,
        message: "the executor fans out once, in the scan driver `exec/scan.rs`; \
                  a second fan-out is a second scan harness",
    },
    Home {
        scope: "crates/",
        home: Some("crates/engine/src/exec/scan.rs"),
        once: true,
        tests_count: false,
        site: catch_unwind_call,
        message: "the one panic boundary is the scan driver's `catch_unwind` \
                  in `exec/scan.rs`",
    },
    Home {
        scope: "crates/engine/src/",
        home: Some("crates/engine/src/config.rs"),
        once: false,
        tests_count: false,
        site: env_read,
        message: "the engine reads `SQLARRAY_*` once per engine, in `config.rs` \
                  (`Settings`); read the knob from there",
    },
    Home {
        scope: "crates/engine/src/",
        home: None,
        once: false,
        tests_count: true,
        site: configured_dop_call,
        message: "the engine takes its DOP from `Settings`, never from a second \
                  `SQLARRAY_DOP` read (`configured_dop`)",
    },
];

/// `name(` that is a call: not the `fn name(` that defines it.
fn calls(f: &SourceFile<'_>, k: usize, name: &str) -> bool {
    f.is_ident(k, name) && f.is_punct(k + 1, "(") && !(k > 0 && f.is_ident(k - 1, "fn"))
}

/// `a::b` with `b` one of `last`.
fn path(f: &SourceFile<'_>, k: usize, first: &str, last: &[&str]) -> bool {
    f.is_ident(k, first)
        && f.is_punct(k + 1, ":")
        && f.is_punct(k + 2, ":")
        && last.iter().any(|l| f.is_ident(k + 3, l))
}

fn thread_api(f: &SourceFile<'_>, k: usize) -> bool {
    path(f, k, "thread", &["spawn", "scope"])
}

fn fan_out_call(f: &SourceFile<'_>, k: usize) -> bool {
    calls(f, k, "scoped_map_ranges") || calls(f, k, "scoped_for_ranges_mut")
}

fn catch_unwind_call(f: &SourceFile<'_>, k: usize) -> bool {
    calls(f, k, "catch_unwind")
}

fn env_read(f: &SourceFile<'_>, k: usize) -> bool {
    path(f, k, "env", &["var", "var_os", "vars", "vars_os"]) || calls(f, k, "env_usize")
}

fn configured_dop_call(f: &SourceFile<'_>, k: usize) -> bool {
    calls(f, k, "configured_dop")
}

pub(crate) fn check(f: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in HOMES {
        if !f.path.contains(rule.scope) {
            continue;
        }
        let at_home = rule.home.is_some_and(|home| f.path.ends_with(home));
        let mut sites = 0;
        for k in 0..f.sig.len() {
            if !(rule.site)(f, k) || (!rule.tests_count && f.in_test(f.tok(k).start)) {
                continue;
            }
            sites += 1;
            if !at_home || (rule.once && sites > 1) {
                out.push(finding_at(f, "L004", k, rule.message.to_string()));
            }
        }
    }
    out
}
