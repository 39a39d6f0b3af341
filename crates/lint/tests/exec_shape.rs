//! Source-shape pins for the engine, storage and kernel crates, over the
//! token stream (comments never count; strings and `#[cfg(test)]` code
//! only where a pin says so): what no behaviour test sees, mostly a cost
//! only a timing would show.
//!
//! * A `Session` is built in one function and every statement starts and
//!   ends in one: one `Session { .. }` literal, one `mint_query(` call, one
//!   `.acquire(` call, all in `session.rs`.
//! * A modelled cost never executes: `hosting.rs` prices the CLR call by
//!   counting, the way `DiskProfile` prices pages, so it holds no clock,
//!   no optimizer barrier, no process-wide state and no loop.
//! * A page write is logged through one path: `wal::append_write(` — the
//!   run-list diff of a before- and an after-image — has one caller under
//!   `crates/storage/src`, `PageStore::install`; a `WalRecord::Write { .. }`
//!   value is built only by the log decoder (the frozen benchmark builds
//!   its own through `append_record`), `diff_range`, which computed a
//!   single first-to-last span, stays gone, and so does `moved_bytes`,
//!   which found a tree write's moves by comparing two page images: the
//!   edit records them.
//! * A page write restamps the blocks it changed: `PageStore::install`
//!   calls no full-page sum (`block_sum(`/`block_sums(`). No `&mut self`
//!   store method locks the accounting mutex through `self.acct()`:
//!   exclusive access reaches it directly. And `wal.rs` has one mixing
//!   primitive: `wrapping_mul` appears in `mix` alone, so the page sum and
//!   the frame check are one function of the bytes.
//! * The kernels a scan spends its rows in stay flat: the selection
//!   kernels (`refine_selection`, the fused compare's `select_where`,
//!   `selection_minus`) have no `if` in their loops, so a random filter
//!   costs no mispredicted branch per row; `fold_lane` sends its five
//!   typed lanes to `fold_typed`, whose loops name no `Value` and call no
//!   per-value fold; `ExactSum::add` has no loop (its
//!   carries wait for the periodic pass); and the register's digit array
//!   (`[i64; DIGITS]`) is declared in `core/src/exact.rs` alone.
//! * Every injected fault is one `core::fault::FaultPlan`, so none of the
//!   three mechanisms it replaced (`FailPlan`/`arm_fail`, the read-fault
//!   pool, the check-count trip) is named anywhere, tests included.
//! * The scan is the one parallel unit: the array, FFT and linear-algebra
//!   kernels (`core/src/ops`, `linalg/src`, `fft/src`) name no
//!   `parallel::`, no `thread::` and no `*_with_dop` twin, tests included,
//!   so they run on their caller's thread; and `SQLARRAY_DOP` is read in
//!   one place: among the library sources only `engine/src/config.rs`
//!   names `DOP_ENV_VAR` or the literal `"SQLARRAY_DOP"`.
//!
//! The rest of the engine's shape is checked as behaviour: allocation per
//! row, addend or page by `tests/alloc_counts.rs`; one fan-out, one panic
//! boundary and one environment reader by `sqlarray-lint`'s L004; the two
//! scan bodies, the one access path, the one page-in step and the shared
//! page buffers by differential and pointer-equality tests
//! (ARCHITECTURE.md, "Invariants & mechanical enforcement", maps each).

use sqlarray_lint::driver::find_workspace_root;
use sqlarray_lint::lexer::TokKind;
use sqlarray_lint::SourceFile;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The workspace-relative path of every non-test token position under
/// `rel` (a directory, or one file) where `matches(file, k)` holds — one
/// entry per hit.
fn hits(rel: &str, matches: impl Fn(&SourceFile<'_>, usize) -> bool) -> Vec<String> {
    hits_in_fn(rel, matches, |_, _| String::new())
}

/// [`hits`], each entry followed by `suffix(file, k)`.
fn hits_in_fn(
    rel: &str,
    matches: impl Fn(&SourceFile<'_>, usize) -> bool,
    suffix: impl Fn(&SourceFile<'_>, usize) -> String,
) -> Vec<String> {
    hits_where(
        rel,
        |f, k| matches(f, k) && !f.in_test(f.tok(k).start),
        suffix,
    )
}

/// [`hits_in_fn`] with `#[cfg(test)]` code counted too.
fn hits_where(
    rel: &str,
    matches: impl Fn(&SourceFile<'_>, usize) -> bool,
    suffix: impl Fn(&SourceFile<'_>, usize) -> String,
) -> Vec<String> {
    let cwd = std::env::current_dir().unwrap();
    let root = find_workspace_root(&cwd).expect("run inside the workspace");
    let mut files = Vec::new();
    if rel.ends_with(".rs") {
        files.push(root.join(rel));
    } else {
        rust_files(&root.join(rel), &mut files);
        assert!(!files.is_empty(), "{rel} went missing");
    }
    let mut found = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        let label = path.strip_prefix(&root).unwrap();
        let label = label.to_string_lossy().replace('\\', "/");
        let f = SourceFile::parse(&label, &src);
        for k in 0..f.sig.len() {
            if matches(&f, k) {
                found.push(format!("{label}{}", suffix(&f, k)));
            }
        }
    }
    found
}

/// `name(` — a call or a definition of `name`.
fn followed_by_paren(f: &SourceFile<'_>, k: usize, name: &str) -> bool {
    f.is_ident(k, name) && f.is_punct(k + 1, "(")
}

/// `::name` of the function enclosing token `k`: the name after the
/// nearest preceding `fn` whose body holds `k` (closures and `fn(..)`
/// pointer types have none, so they resolve to the function around them,
/// and so does code after a nested `fn` item).
fn enclosing_fn(f: &SourceFile<'_>, k: usize) -> String {
    let encloses = |j: &usize| {
        if !f.is_ident(*j, "fn") || f.is_punct(j + 1, "(") {
            return false;
        }
        // The body is the first `{` outside parentheses and brackets; a
        // `;` there first ends a declaration without one.
        let mut depth = 0i32;
        for i in *j..k {
            match f.text(i) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => return false,
                "{" if depth == 0 => return matching(f, i, "{", "}") > k,
                _ => {}
            }
        }
        false
    };
    let name = (0..k).rev().find(encloses).map_or("", |j| f.text(j + 1));
    format!("::{name}")
}

#[test]
fn sessions_are_built_and_statements_run_through_one_door() {
    let in_session_rs = ["crates/engine/src/session.rs"];
    // `Session {` that opens a literal: not the item (`struct`/`impl`/
    // `for Session {`) and not a body after a `-> Session` return type.
    let literals = hits("crates/engine/src", |f, k| {
        let opens_item_or_body = k > 0
            && (f.is_punct(k - 1, ">")
                || ["struct", "impl", "for"]
                    .iter()
                    .any(|kw| f.is_ident(k - 1, kw)));
        f.is_ident(k, "Session") && f.is_punct(k + 1, "{") && !opens_item_or_body
    });
    assert_eq!(
        literals, in_session_rs,
        "`Session {{ .. }}` is written once, in `Session::on_engine`"
    );
    let calls_of = |name: &'static str| {
        hits("crates/engine/src", move |f, k| {
            followed_by_paren(f, k, name) && !(k > 0 && f.is_ident(k - 1, "fn"))
        })
    };
    assert_eq!(
        calls_of("mint_query"),
        in_session_rs,
        "one statement lifecycle: `mint_query(` has one caller"
    );
    assert_eq!(
        calls_of("acquire"),
        in_session_rs,
        "one admitted wrapper: `sched().acquire(` has one caller"
    );
}

#[test]
fn a_modelled_cost_never_executes() {
    let hosting = "crates/engine/src/hosting.rs";
    assert!(
        !hits(hosting, |f, k| followed_by_paren(f, k, "charge_call")).is_empty(),
        "the matcher no longer sees `charge_call`"
    );
    let executes = "Instant black_box spin_loop static for while loop";
    let found = hits(hosting, |f, k| {
        executes.split_whitespace().any(|w| f.is_ident(k, w))
    });
    assert!(
        found.is_empty(),
        "`HostingModel` charges by counting; {} token(s) in {hosting} could spend time",
        found.len()
    );
}

#[test]
fn a_page_write_is_logged_through_one_path() {
    let storage = "crates/storage/src";
    let is_call = |f: &SourceFile<'_>, k: usize| {
        followed_by_paren(f, k, "append_write") && !(k > 0 && f.is_ident(k - 1, "fn"))
    };
    assert_eq!(
        hits_in_fn(storage, is_call, enclosing_fn),
        ["crates/storage/src/store/mod.rs::install"],
        "`PageStore::install` is the one place a page write reaches the log"
    );
    // `WalRecord::Write {` that opens a value, not a pattern: no `..`
    // inside, and no `=` (`=>`, `let … =`) after the closing brace.
    let builds_write = |f: &SourceFile<'_>, k: usize| {
        let opens = f.is_ident(k, "Write")
            && f.is_punct(k + 1, "{")
            && k >= 3
            && f.is_ident(k - 3, "WalRecord");
        let close = || (k + 2..f.sig.len()).find(|&j| f.is_punct(j, "}"));
        opens
            && close()
                .is_some_and(|c| !f.is_punct(c + 1, "=") && !(k + 2..c).any(|j| f.is_punct(j, ".")))
    };
    assert_eq!(
        hits_in_fn(storage, builds_write, enclosing_fn),
        ["crates/storage/src/wal.rs::decode_runs"],
        "only the decoder builds `WalRecord::Write` values, one per logged run"
    );
    assert_eq!(
        hits(storage, |f, k| f.is_ident(k, "diff_range")),
        [""; 0],
        "the first-to-last-difference span is not computed anywhere"
    );
    assert_eq!(
        hits(storage, |f, k| f.is_ident(k, "moved_bytes")),
        [""; 0],
        "a tree write's moves are recorded by its edit, not found by comparing images"
    );
}

/// True when the function enclosing token `k` takes `&mut self`.
fn in_mut_self_fn(f: &SourceFile<'_>, k: usize) -> bool {
    let named = |j: &usize| f.is_ident(*j, "fn") && !f.is_punct(j + 1, "(");
    let Some(start) = (0..k).rev().find(named) else {
        return false;
    };
    let body = (start..k).find(|&j| f.is_punct(j, "{")).unwrap_or(k);
    (start..body)
        .any(|j| f.is_punct(j, "&") && f.is_ident(j + 1, "mut") && f.is_ident(j + 2, "self"))
}

#[test]
fn a_page_write_restamps_and_the_accounting_is_reached_directly() {
    with_file("crates/storage/src/store/mod.rs", |f| {
        let (open, close) = fn_body(f, "install");
        let hit =
            (open..close).find(|&j| f.is_ident(j, "block_sum") || f.is_ident(j, "block_sums"));
        assert!(
            hit.is_none(),
            "`PageStore::install` sums the whole page: it restamps the blocks it changed"
        );
    });
    // The live store, its image (replay, rollback) and its scan reader.
    let store = "crates/storage/src/store";
    let acct = |f: &SourceFile<'_>, k: usize| {
        f.is_ident(k, "self") && f.is_punct(k + 1, ".") && followed_by_paren(f, k + 2, "acct")
    };
    assert!(
        !hits(store, acct).is_empty(),
        "the matcher no longer sees the `&self` paths' `self.acct()`"
    );
    assert_eq!(
        hits_in_fn(
            store,
            |f, k| acct(f, k) && in_mut_self_fn(f, k),
            enclosing_fn
        ),
        [""; 0],
        "a `&mut self` store path reaches the accounting without locking it"
    );
    let wal = "crates/storage/src/wal.rs";
    assert_eq!(
        hits_in_fn(wal, |f, k| f.is_ident(k, "wrapping_mul"), enclosing_fn),
        [format!("{wal}::mix")],
        "one mixing primitive: pages and frames are summed by the same chain"
    );
}

/// Runs `check` over the parsed workspace file `rel`.
fn with_file<R>(rel: &str, check: impl FnOnce(&SourceFile<'_>) -> R) -> R {
    let cwd = std::env::current_dir().unwrap();
    let root = find_workspace_root(&cwd).expect("run inside the workspace");
    let src = std::fs::read_to_string(root.join(rel)).unwrap();
    check(&SourceFile::parse(rel, &src))
}

/// The token after the `close` that matches the `open` at `k`.
fn matching(f: &SourceFile<'_>, k: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    (k..f.sig.len())
        .find(|&j| {
            if f.is_punct(j, open) {
                depth += 1;
            } else if f.is_punct(j, close) {
                depth -= 1;
            }
            depth == 0
        })
        .expect("unbalanced delimiters")
}

/// The braces `(open, close)` of the non-test `fn name`.
fn fn_body(f: &SourceFile<'_>, name: &str) -> (usize, usize) {
    let k = (0..f.sig.len())
        .find(|&k| f.is_ident(k, "fn") && f.is_ident(k + 1, name) && !f.in_test(f.tok(k).start))
        .unwrap_or_else(|| panic!("`fn {name}` went missing from {}", f.path));
    let open = (k..f.sig.len()).find(|&j| f.is_punct(j, "{")).unwrap();
    (open, matching(f, open, "{", "}"))
}

/// The body ranges of every `for` loop inside the non-test `fn name`.
fn loops_in(f: &SourceFile<'_>, name: &str) -> Vec<(usize, usize)> {
    let (open, close) = fn_body(f, name);
    let loops: Vec<(usize, usize)> = (open..close)
        .filter(|&k| f.is_ident(k, "for"))
        .map(|k| {
            let body = (k..close).find(|&j| f.is_punct(j, "{")).unwrap();
            (body, matching(f, body, "{", "}"))
        })
        .collect();
    assert!(
        !loops.is_empty(),
        "the matcher no longer sees a loop in `{name}`"
    );
    loops
}

#[test]
fn per_row_kernels_neither_branch_nor_build_values() {
    with_file("crates/core/src/batch.rs", |f| {
        for kernel in ["refine_selection", "select_where", "selection_minus"] {
            for (body, end) in loops_in(f, kernel) {
                assert!(
                    !(body..end).any(|j| f.is_ident(j, "if")),
                    "`{kernel}` branches inside its loop"
                );
            }
        }
    });
    with_file("crates/engine/src/exec/agg.rs", |f| {
        let (open, close) = fn_body(f, "fold_lane");
        let typed = (open..close).filter(|&j| f.is_ident(j, "fold_typed"));
        assert_eq!(
            typed.count(),
            5,
            "`fold_lane` sends each typed lane to `fold_typed`"
        );
        let per_value = ["Value", "wrap", "fold", "beats"];
        for (body, end) in loops_in(f, "fold_typed") {
            let hit = (body..end).find(|&j| per_value.iter().any(|w| f.is_ident(j, w)));
            assert!(
                hit.is_none(),
                "a `fold_typed` loop names `{}`: a value per element is back",
                hit.map_or("", |j| f.text(j))
            );
        }
    });
}

#[test]
fn an_exact_sum_pays_per_addend_in_one_register() {
    with_file("crates/core/src/exact.rs", |f| {
        let (open, close) = fn_body(f, "add");
        let looping = ["for", "while", "loop"];
        let hit = (open..close).find(|&j| looping.iter().any(|w| f.is_ident(j, w)));
        assert!(
            hit.is_none(),
            "`ExactSum::add` has a `{}`: a per-addend carry chain is back",
            hit.map_or("", |j| f.text(j))
        );
    });
    // `[i64; DIGITS]` (or its literal length): the carry-save digits.
    let digit_array = |f: &SourceFile<'_>, k: usize| {
        f.is_punct(k, "[")
            && f.is_ident(k + 1, "i64")
            && f.is_punct(k + 2, ";")
            && (f.is_ident(k + 3, "DIGITS") || f.text(k + 3) == "68")
    };
    let found = hits_where("crates", digit_array, |_, _| String::new());
    assert!(!found.is_empty(), "the matcher no longer sees the register");
    assert!(
        found.iter().all(|p| p == "crates/core/src/exact.rs"),
        "one exact register: its digit array is declared in `core::exact` alone: {found:?}"
    );
}

#[test]
fn every_injected_fault_is_one_fault_plan() {
    let replaced = "FailPlan FailState arm_fail arm_read_faults read_faults_remaining \
                    read_faults read_fault_burst consume_read_fault cancel_after_checks \
                    set_cancel_after_checks count_checks trip_at";
    for rel in ["crates", "tests", "examples", "src"] {
        let found = hits_where(
            rel,
            |f, k| replaced.split_whitespace().any(|w| f.is_ident(k, w)),
            |f, k| format!(": `{}`", f.text(k)),
        );
        assert_eq!(found, [""; 0], "a replaced fault mechanism is back");
    }
}

#[test]
fn kernels_run_on_their_callers_thread() {
    let fans_out = |f: &SourceFile<'_>, k: usize| {
        let path_of =
            |name| f.is_ident(k, name) && f.is_punct(k + 1, ":") && f.is_punct(k + 2, ":");
        path_of("parallel")
            || path_of("thread")
            || (f.kind(k) == Some(TokKind::Ident) && f.text(k).ends_with("_with_dop"))
    };
    for rel in ["crates/core/src/ops", "crates/linalg/src", "crates/fft/src"] {
        let found = hits_where(rel, fans_out, |f, k| format!(": `{}`", f.text(k)));
        assert_eq!(
            found, [""; 0],
            "a kernel fans out on its own; the scan is the one parallel unit"
        );
    }
    let names_dop = |f: &SourceFile<'_>, k: usize| {
        f.is_ident(k, "DOP_ENV_VAR")
            || (f.kind(k) == Some(TokKind::Str) && f.text(k) == "\"SQLARRAY_DOP\"")
    };
    let mut found = hits_where("crates", names_dop, |_, _| String::new());
    found.retain(|p| p.contains("/src/"));
    found.extend(hits_where("src", names_dop, |_, _| String::new()));
    assert!(!found.is_empty(), "the matcher no longer sees the DOP knob");
    assert!(
        found.iter().all(|p| p == "crates/engine/src/config.rs"),
        "`SQLARRAY_DOP` is read once, by the engine's configuration: {found:?}"
    );
}
