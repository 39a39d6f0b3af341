//! Source-shape pins for the engine and storage crates — things a type
//! cannot enforce and a unit test cannot see, checked over the token stream
//! (comments, strings and `#[cfg(test)]` code do not count):
//!
//! * `crates/engine/src/exec/` has one partitioned-scan driver, so it has
//!   exactly one fan-out call and one panic boundary. A second
//!   `scoped_map_ranges(` or `catch_unwind(` means a twin harness grew
//!   back (the pre-split `exec.rs` carried two of each, one for SELECT and
//!   one for the DML match phase).
//! * The scan driver has two bodies and every table-reading statement runs
//!   one of them: `for_each_row(` is called from one function, the row
//!   interpreter, `for_each_batch(` from one, the vectorized body, and
//!   `exec/dml.rs` drives no scan of its own (its match phase is the job
//!   SELECT runs; a private copy of the interpreter's loop lived there).
//! * One statement has one access-path decision: `KeyRange::of(` is called
//!   from `SelectJob::run` and the table is partitioned — over the interval
//!   that call produced — from `run_scan`, nowhere else under
//!   `crates/engine/src`; `exec/dml.rs` names neither, so UPDATE/DELETE
//!   seek because SELECT does. (`Table::partition`, the two-argument
//!   full-range delegate the frozen benchmark still calls, has no engine
//!   caller.)
//! * The engine reads the process environment in one module, `config.rs`;
//!   a second `env_usize(` / `env::var` means a knob is parsed beside
//!   [`Settings`](../../engine/src/config.rs) again, and so would a call
//!   of `core::parallel::configured_dop(` (the array kernels' own
//!   `SQLARRAY_DOP` read), which the engine makes nowhere, tests included.
//! * A `Session` is built in one function and every statement starts and
//!   ends in one: one `Session { .. }` literal, one `mint_query(` call, one
//!   `.acquire(` call, all in `session.rs`.
//! * A page write is logged through one path: `wal::append_write(` — the
//!   run-list diff of a before- and an after-image — has one caller under
//!   `crates/storage/src`, `PageStore::write`; a `WalRecord::Write { .. }`
//!   value is built only by the log decoder (one per run; the frozen
//!   benchmark builds its own through `append_record`), so no second,
//!   single-span way to log a write exists beside it, and `diff_range`,
//!   which computed that span, stays gone.
//! * A partition scan has two bodies over one open-and-clip step:
//!   `open_leaf` is the only function in `storage/src/table.rs` that calls
//!   `leaf_slots_within(`, and it has two callers — `walk_leaf`, the row
//!   body `scan_partition` drives, and `scan_partition_batches`, which
//!   decodes a leaf a column at a time and so never calls `walk_leaf(`
//!   with a per-record closure. `decode_row_into`, the row-at-a-time batch
//!   decoder that closure fed, is named nowhere under `crates/`, test code
//!   included: nothing decodes a batch row by row beside the leaf kernel.
//! * A modelled cost never executes: `hosting.rs` prices the CLR call by
//!   counting, the way `DiskProfile` prices pages, so it holds no clock,
//!   no optimizer barrier, no process-wide state and no loop.
//! * A page access pays for what it touched. The pool keeps its stamps in
//!   arrays indexed by page and a lazy heap, so `pool.rs` names no
//!   `HashMap` or `BTreeMap` outside its tests (the map-based shard lives
//!   on only as the property test's oracle). A full-page checksum
//!   (`block_sum(`, or `block_sums(` for a group of pages) runs in
//!   `store.rs` only where a page comes from "disk" — the one page-in step
//!   (`page_in`), a scan worker's group summed ahead (`summed`), `open`'s
//!   verify pass and the replay restamp — never in `PageStore::write`,
//!   which restamps the blocks it changed. No `&mut self` method of the
//!   store locks the accounting mutex through `self.acct()`: exclusive
//!   access reaches it directly. `wal.rs` has one mixing primitive:
//!   `wrapping_mul` appears in `mix` alone, so the page sum and the frame
//!   check are one function of the bytes, not two. And `blob.rs` builds no
//!   zero-filled buffer (`vec![0u8`) outside its tests: a LOB read writes
//!   each byte of its result once.
//! * The batch path short-circuits in one place: only `batch.rs::refine`
//!   destructures a `BExpr::And`/`Or`/`Not` (binds its operands), and
//!   `eval` answers those nodes by calling it — no second merge of flag
//!   vectors decides which rows an operand runs on. An ungrouped typed lane
//!   folds without a `Value` per element: `fold_lane` hands typed lanes to
//!   `fold_typed`, whose loops name no `Value` and call no per-value fold.
//!   And the selection kernels that filters spend their time in —
//!   `refine_selection`, the fused compare's `select_where`,
//!   `selection_minus` — have no `if` in their loops: a random filter
//!   costs no mispredicted branch per row.
//! * Every injected fault is one `core::fault::FaultPlan` — a fault and
//!   the ordinal of the event at its site that fires it — so none of the
//!   three mechanisms it replaced (`FailPlan`/`arm_fail`, the read-fault
//!   pool, the check-count trip) is named anywhere, tests included. The
//!   plan's counter lives in `core/src/fault.rs`: the sites only `tick(`
//!   it — `settle_append` (WAL appends), `ScanIo::page_in` (cold reads,
//!   serial and a scan worker's alike) and `QueryCtx::check` (polls) — and
//!   the lost-power rule is `checkpoint`'s alone: `PageStore::commit` names
//!   no plan.
//! * Exact summation pays per addend, not per carry, and `VectorAvg` per
//!   element, not per copy: `ExactSum::add` has no loop (its carries wait
//!   for the periodic pass), `VectorAvgUda::accumulate` borrows its
//!   argument as an `ArrayView` and names none of `as_array`,
//!   `iter_scalars`, `collect`, `to_vec`, and the register's digit array
//!   (`[i64; DIGITS]`) is declared in `core/src/exact.rs` alone.
//! * A checkpoint and a recovery copy no page: page buffers are shared
//!   `Arc<[u8]>`s, so in `store.rs` bytes are copied (`copy_from_slice`)
//!   only by `write` and `apply_replay`, no page is duplicated through
//!   `to_vec`/`into_boxed_slice` or held as a `Box<[u8]>`, the dirty list
//!   (`dirty`, `mark_dirty`) stays gone — pointer inequality is the dirty
//!   set — and `Arc::get_mut`, the "is this page unshared" test, is asked
//!   by `write` alone.

use sqlarray_lint::driver::find_workspace_root;
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

#[test]
fn the_executor_has_one_fan_out_and_one_panic_boundary() {
    for name in ["scoped_map_ranges", "catch_unwind"] {
        assert_eq!(
            hits("crates/engine/src/exec", |f, k| followed_by_paren(
                f, k, name
            )),
            ["crates/engine/src/exec/scan.rs"],
            "`{name}(` must appear exactly once, in the scan driver"
        );
    }
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
fn the_scan_driver_has_two_bodies_and_dml_owns_neither() {
    for (visit, body) in [
        ("for_each_row", "scan_rows"),
        ("for_each_batch", "scan_batches"),
    ] {
        let is_call = |f: &SourceFile<'_>, k: usize| {
            followed_by_paren(f, k, visit) && !(k > 0 && f.is_ident(k - 1, "fn"))
        };
        let callers = hits_in_fn("crates/engine/src", is_call, enclosing_fn);
        assert!(!callers.is_empty(), "the matcher no longer sees `{visit}(`");
        let want = format!("crates/engine/src/exec/select.rs::{body}");
        assert!(
            callers.iter().all(|c| *c == want),
            "`{visit}(` is called from one function, `{body}`: {callers:?}"
        );
    }
    let scans = ["for_each_row", "for_each_batch", "RowCtx", "decode_col_ref"];
    let found = hits("crates/engine/src/exec/dml.rs", |f, k| {
        scans.iter().any(|w| f.is_ident(k, w))
    });
    assert!(
        found.is_empty(),
        "`exec/dml.rs` hands its match phase to the scan job; it names a scan loop {} time(s)",
        found.len()
    );
}

#[test]
fn a_statement_chooses_its_access_path_once() {
    let callers_of = |name: &'static str| {
        let is_call = move |f: &SourceFile<'_>, k: usize| {
            followed_by_paren(f, k, name) && !(k > 0 && f.is_ident(k - 1, "fn"))
        };
        hits_in_fn("crates/engine/src", is_call, enclosing_fn)
    };
    assert_eq!(
        callers_of("partition_keys"),
        ["crates/engine/src/exec/scan.rs::run_scan"],
        "the scan driver is the one place a table is partitioned"
    );
    assert_eq!(
        callers_of("partition"),
        [""; 0],
        "the engine always hands the driver an interval"
    );
    // `KeyRange::of(`: `of` preceded by `KeyRange ::`.
    let key_range_of = |f: &SourceFile<'_>, k: usize| {
        followed_by_paren(f, k, "of") && k >= 3 && f.is_ident(k - 3, "KeyRange")
    };
    assert_eq!(
        hits_in_fn("crates/engine/src", key_range_of, enclosing_fn),
        ["crates/engine/src/exec/select.rs::run"],
        "the interval is computed once per execution, in `SelectJob::run`"
    );
    let names = ["KeyRange", "partition", "partition_keys", "Access"];
    let found = hits("crates/engine/src/exec/dml.rs", |f, k| {
        names.iter().any(|w| f.is_ident(k, w))
    });
    assert!(
        found.is_empty(),
        "`exec/dml.rs` inherits its access path from the scan job; it names one {} time(s)",
        found.len()
    );
}

#[test]
fn the_engine_reads_the_environment_in_one_module() {
    let reads = hits("crates/engine/src", |f, k| {
        let env_path = f.is_ident(k, "env")
            && f.is_punct(k + 1, ":")
            && f.is_punct(k + 2, ":")
            && f.text(k + 3).starts_with("var");
        env_path || followed_by_paren(f, k, "env_usize")
    });
    assert!(!reads.is_empty(), "the matcher no longer sees config.rs");
    assert!(
        reads.iter().all(|p| p == "crates/engine/src/config.rs"),
        "`SQLARRAY_*` is parsed in `config.rs` only, once per engine: {reads:?}"
    );
    assert_eq!(
        hits_where(
            "crates/engine/src",
            |f, k| followed_by_paren(f, k, "configured_dop"),
            |_, _| String::new()
        ),
        [""; 0],
        "the engine never reads `SQLARRAY_DOP` through the array kernels' knob"
    );
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
    let executes = [
        "Instant",
        "black_box",
        "spin_loop",
        "static",
        "for",
        "while",
        "loop",
    ];
    let found = hits(hosting, |f, k| executes.iter().any(|w| f.is_ident(k, w)));
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
        ["crates/storage/src/store.rs::write"],
        "`PageStore::write` is the one place a page write reaches the log"
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
}

#[test]
fn a_partition_scan_has_two_bodies_over_one_open_and_clip_step() {
    let table = "crates/storage/src/table.rs";
    let callers_of = |name: &'static str| {
        let is_call = move |f: &SourceFile<'_>, k: usize| {
            followed_by_paren(f, k, name) && !(k > 0 && f.is_ident(k - 1, "fn"))
        };
        hits_in_fn(table, is_call, enclosing_fn)
    };
    assert_eq!(
        callers_of("leaf_slots_within"),
        [format!("{table}::open_leaf")],
        "one function opens a leaf and clips it to the key interval"
    );
    assert_eq!(
        callers_of("open_leaf"),
        ["scan_partition_batches", "walk_leaf"].map(|body| format!("{table}::{body}")),
        "the row body and the batch body share that step, and nothing else takes it"
    );
    assert_eq!(
        callers_of("walk_leaf"),
        [format!("{table}::scan_partition")],
        "the batch body decodes a leaf at a time, not through a per-record callback"
    );
    assert_eq!(
        hits_where(
            "crates",
            |f, k| f.is_ident(k, "decode_row_into"),
            |_, _| String::new()
        ),
        [""; 0],
        "the row-at-a-time batch decoder stays gone, from tests too"
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
fn a_page_access_pays_for_what_it_touched() {
    let pool = "crates/storage/src/pool.rs";
    assert!(
        !hits(pool, |f, k| f.is_ident(k, "BinaryHeap")).is_empty(),
        "the matcher no longer sees the pool's heap"
    );
    assert_eq!(
        hits(pool, |f, k| f.is_ident(k, "HashMap")
            || f.is_ident(k, "BTreeMap")),
        [""; 0],
        "a pool hit is an array store plus a heap push: no map outside the tests' oracle"
    );

    let store = "crates/storage/src/store.rs";
    let calls = |name: &'static str| {
        move |f: &SourceFile<'_>, k: usize| {
            followed_by_paren(f, k, name) && !(k > 0 && f.is_ident(k - 1, "fn"))
        }
    };
    let full_sum =
        |f: &SourceFile<'_>, k: usize| calls("block_sum")(f, k) || calls("block_sums")(f, k);
    assert_eq!(
        hits_in_fn(store, full_sum, enclosing_fn),
        ["open_with", "open_with", "replay", "page_in", "summed"].map(|f| format!("{store}::{f}")),
        "a full-page checksum runs where a page comes from disk — `open`'s verify pass, the \
         replay restamp, the one page-in step and a scan worker's group — never in `write`"
    );
    let blob = "crates/storage/src/blob.rs";
    let zero_filled = |f: &SourceFile<'_>, k: usize| {
        f.is_ident(k, "vec")
            && f.is_punct(k + 1, "!")
            && f.is_punct(k + 2, "[")
            && f.text(k + 3) == "0u8"
    };
    assert!(
        !hits_where(blob, zero_filled, |_, _| String::new()).is_empty(),
        "the matcher no longer sees the tests' zero-filled buffers"
    );
    assert_eq!(
        hits_in_fn(blob, zero_filled, enclosing_fn),
        [""; 0],
        "a LOB read writes each byte of its result once: no zero-filled buffer first"
    );
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
fn the_batch_path_short_circuits_in_refine_alone() {
    // `BExpr::And(..)`/`Or(..)`/`Not(..)` as a match pattern (`=>` or `|`
    // follows) that binds a name inside the parentheses.
    let looks_inside = |f: &SourceFile<'_>, k: usize| {
        let node = ["And", "Or", "Not"].iter().any(|n| f.is_ident(k, n))
            && k >= 3
            && f.is_ident(k - 3, "BExpr")
            && f.is_punct(k + 1, "(");
        if !node {
            return false;
        }
        let close = matching(f, k + 1, "(", ")");
        let pattern = f.is_punct(close + 1, "|") || f.is_punct(close + 1, "=");
        let binds = (k + 2..close)
            .any(|j| f.kind(j) == Some(sqlarray_lint::lexer::TokKind::Ident) && f.text(j) != "_");
        pattern && binds
    };
    let batch = "crates/engine/src/batch.rs";
    assert_eq!(
        hits_in_fn("crates/engine/src", looks_inside, enclosing_fn),
        ["refine"; 3].map(|f| format!("{batch}::{f}")),
        "only `refine` looks inside AND/OR/NOT: the short-circuit rule exists once"
    );
    let calls_refine = |f: &SourceFile<'_>, k: usize| {
        followed_by_paren(f, k, "refine") && !(k > 0 && f.is_ident(k - 1, "fn"))
    };
    let callers: Vec<String> = hits_in_fn("crates/engine/src", calls_refine, enclosing_fn)
        .into_iter()
        .filter(|c| *c != format!("{batch}::refine"))
        .collect();
    assert_eq!(
        callers,
        [
            format!("{batch}::eval"),
            "crates/engine/src/exec/select.rs::scan_batches".to_string()
        ],
        "a WHERE is refined by `refine`, and `eval` asks it for AND/OR/NOT lanes"
    );
}

#[test]
fn an_ungrouped_typed_lane_folds_without_a_value_per_element() {
    with_file("crates/engine/src/exec/agg.rs", |f| {
        let (open, close) = fn_body(f, "fold_lane");
        let named = |name: &str| (open..close).filter(|&j| f.is_ident(j, name)).count();
        assert_eq!(
            (named("fold_typed"), named("fold"), named("map")),
            (5, 1, 0),
            "`fold_lane` sends its five typed arms to `fold_typed` and only the dynamic one to `fold`"
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
fn selection_kernels_do_not_branch_per_row() {
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
}

/// The body braces of `fn name` inside the non-test `impl … for ty { … }`.
fn method_body(f: &SourceFile<'_>, ty: &str, name: &str) -> (usize, usize) {
    let imp = (0..f.sig.len())
        .find(|&k| {
            f.is_ident(k, "for")
                && f.is_ident(k + 1, ty)
                && f.is_punct(k + 2, "{")
                && !f.in_test(f.tok(k).start)
        })
        .unwrap_or_else(|| panic!("`impl … for {ty}` went missing from {}", f.path));
    let end = matching(f, imp + 2, "{", "}");
    let k = (imp..end)
        .find(|&k| f.is_ident(k, "fn") && f.is_ident(k + 1, name))
        .unwrap_or_else(|| panic!("`{ty}::{name}` went missing from {}", f.path));
    let open = (k..end).find(|&j| f.is_punct(j, "{")).unwrap();
    (open, matching(f, open, "{", "}"))
}

#[test]
fn an_exact_sum_pays_per_addend_and_vector_avg_reads_in_place() {
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
    with_file("crates/engine/src/aggregate.rs", |f| {
        let (open, close) = method_body(f, "VectorAvgUda", "accumulate");
        let named = |w: &str| (open..close).any(|j| f.is_ident(j, w));
        assert!(
            named("ArrayView"),
            "the matcher no longer sees the borrowed view"
        );
        for copy in ["as_array", "iter_scalars", "collect", "to_vec"] {
            assert!(
                !named(copy),
                "`VectorAvgUda::accumulate` names `{copy}`: a row's array is copied again"
            );
        }
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
    let replaced = [
        "FailPlan",
        "FailState",
        "arm_fail",
        "arm_read_faults",
        "read_faults_remaining",
        "read_faults",
        "read_fault_burst",
        "consume_read_fault",
        "cancel_after_checks",
        "set_cancel_after_checks",
        "count_checks",
        "trip_at",
    ];
    for rel in ["crates", "tests", "examples", "src"] {
        let found = hits_where(
            rel,
            |f, k| replaced.iter().any(|w| f.is_ident(k, w)),
            |f, k| format!(": `{}`", f.text(k)),
        );
        assert_eq!(found, [""; 0], "a replaced fault mechanism is back");
    }

    let callers_of = |name: &'static str| {
        let is_call = move |f: &SourceFile<'_>, k: usize| {
            followed_by_paren(f, k, name) && !(k > 0 && f.is_ident(k - 1, "fn"))
        };
        ["crates/core/src", "crates/storage/src", "crates/engine/src"]
            .into_iter()
            .flat_map(|rel| hits_in_fn(rel, is_call, enclosing_fn))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        callers_of("tick"),
        [
            "crates/core/src/lifecycle.rs::check",
            "crates/storage/src/store.rs::settle_append",
            "crates/storage/src/store.rs::page_in",
        ],
        "a fault site counts its events on the plan, nowhere else"
    );
    assert_eq!(
        callers_of("fired"),
        ["crates/storage/src/store.rs::checkpoint"],
        "a store that lost power changes nothing in one place: `checkpoint`"
    );
    with_file("crates/core/src/fault.rs", |f| {
        assert!(
            (0..f.sig.len()).any(|k| f.is_ident(k, "AtomicU64")),
            "the plan's counter went missing from `core::fault`"
        );
    });
    with_file("crates/storage/src/store.rs", |f| {
        let (open, close) = fn_body(f, "commit");
        let plan = ["fault", "Fault", "FaultPlan", "fired", "arm"];
        assert!(
            !(open..close).any(|j| plan.iter().any(|w| f.is_ident(j, w))),
            "`PageStore::commit` names no fault plan: arming changes nothing before the cut"
        );
    });
}

#[test]
fn a_checkpoint_and_a_recovery_copy_no_page() {
    let store = "crates/storage/src/store.rs";
    assert_eq!(
        hits_in_fn(store, |f, k| f.is_ident(k, "copy_from_slice"), enclosing_fn),
        ["write", "apply_replay"].map(|f| format!("{store}::{f}")),
        "a page's bytes are copied where it is written, live or replayed, and nowhere else"
    );
    let copies = ["to_vec", "into_boxed_slice", "dirty", "mark_dirty"];
    let boxed = |f: &SourceFile<'_>, k: usize| {
        f.is_ident(k, "Box")
            && f.is_punct(k + 1, "<")
            && f.is_punct(k + 2, "[")
            && f.is_ident(k + 3, "u8")
    };
    assert_eq!(
        hits_in_fn(
            store,
            |f, k| copies.iter().any(|w| f.is_ident(k, w)) || boxed(f, k),
            |f, k| format!(": `{}`", f.text(k))
        ),
        [""; 0],
        "pages are shared `Arc<[u8]>`s and a checkpoint finds the changed ones by pointer"
    );
    let get_mut = |f: &SourceFile<'_>, k: usize| {
        f.is_ident(k, "get_mut")
            && k >= 3
            && f.is_ident(k - 3, "Arc")
            && f.is_punct(k - 2, ":")
            && f.is_punct(k - 1, ":")
    };
    assert_eq!(
        hits_in_fn(store, get_mut, enclosing_fn),
        [format!("{store}::write")],
        "only `write` asks whether a page is unshared; everything else copies on write"
    );
}
