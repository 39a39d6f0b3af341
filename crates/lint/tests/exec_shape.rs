//! Source-shape pin for the executor: `crates/engine/src/exec/` has one
//! partitioned-scan driver, so it has exactly one fan-out call and one
//! panic boundary. A second `scoped_map_ranges(` or `catch_unwind(` means
//! a twin harness grew back (the pre-split `exec.rs` carried two of each,
//! one for SELECT and one for the DML match phase).

use sqlarray_lint::driver::find_workspace_root;
use sqlarray_lint::SourceFile;
use std::path::Path;

/// Calls of `name` (identifier followed by `(`) in non-test code of every
/// file under the executor directory; comments and strings do not count.
fn calls(name: &str) -> Vec<String> {
    let cwd = std::env::current_dir().unwrap();
    let root = find_workspace_root(&cwd).expect("run inside the workspace");
    let dir = root.join("crates/engine/src/exec");
    let mut hits = Vec::new();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "executor split went missing: {files:?}");
    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        let label = Path::new("crates/engine/src/exec").join(path.file_name().unwrap());
        let label = label.to_string_lossy().replace('\\', "/");
        let f = SourceFile::parse(&label, &src);
        for k in 0..f.sig.len() {
            if f.is_ident(k, name) && f.is_punct(k + 1, "(") && !f.in_test(f.tok(k).start) {
                hits.push(label.clone());
            }
        }
    }
    hits
}

#[test]
fn the_executor_has_one_fan_out_and_one_panic_boundary() {
    for name in ["scoped_map_ranges", "catch_unwind"] {
        let hits = calls(name);
        assert_eq!(
            hits,
            ["crates/engine/src/exec/scan.rs"],
            "`{name}(` must appear exactly once, in the scan driver"
        );
    }
}
