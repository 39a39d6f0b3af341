//! `--reach` on the two-crate fixture workspace in `fixtures/reach`: the
//! compiler, not a name index, decides which `pub` items stay public.

use std::fs;
use std::path::{Path, PathBuf};

use sqlarray_lint::reach;

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/reach")
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The item each finding names (between its message's first backticks).
fn flagged(root: &Path, work: &Path) -> Vec<String> {
    let (findings, _) = reach::run(root, work).expect("the fixture builds");
    let mut names: Vec<String> = findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, "reach");
            f.message.split('`').nth(1).unwrap_or("").to_string()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn what_no_other_unit_uses_is_flagged_and_the_rest_kept() {
    // Kept: `via_reexport` and its re-export (`beta` calls it through
    // them), `Table::width` (given back from E0624), `tested` (only an
    // integration test calls it). Never narrowed: the `#[cfg(test)]`
    // helper and the fn a `macro_rules!` body defines. Flagged:
    // `Table::from_rows`, though `beta` calls a `from_rows` of its own,
    // and `only_reexported`, which only its own `pub use` names.
    assert_eq!(
        flagged(&fixture(), &scratch("reach-fixture")),
        ["from_rows", "only_reexported", "use inner::only_reexported"]
    );
}

#[test]
fn an_error_at_no_narrowed_item_fails_the_check() {
    let root = scratch("reach-broken-src");
    copy_tree(&fixture(), &root);
    let lib = root.join("beta/src/lib.rs");
    let mut src = fs::read_to_string(&lib).unwrap();
    src.push_str("\nfn broken() -> u32 {\n    \"not a number\"\n}\n");
    fs::write(&lib, src).unwrap();
    let err = reach::run(&root, &scratch("reach-broken")).unwrap_err();
    assert!(err.contains("point at no narrowed item"), "{err}");
    assert!(err.contains("mismatched types"), "{err}");
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap().flatten() {
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if src.is_dir() {
            if entry.file_name() != "target" {
                copy_tree(&src, &dst);
            }
        } else {
            fs::copy(&src, &dst).unwrap();
        }
    }
}
