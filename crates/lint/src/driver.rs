//! Workspace walking and the CLI entry logic: finds the workspace root,
//! enumerates library sources, runs every rule, renders output.

use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::Finding;
use crate::rules;
use crate::source::SourceFile;

/// Path components that never contain library code subject to the rules.
/// `benchmark` is the standalone repo-benchmark package: a measurement
/// harness outside the workspace.
const SKIP_DIRS: &[&str] = &[
    "target",
    "vendor",
    "tests",
    "benchmark",
    "examples",
    "fixtures",
    ".git",
];

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Options {
    /// Emit one JSON object per finding instead of human text.
    pub json: bool,
    /// Exit nonzero if any finding survives suppression.
    pub deny_all: bool,
    /// Count code lines per crate ([`loc`]) instead of linting.
    pub loc: bool,
    /// Explicit files/dirs to lint; empty means the whole workspace.
    pub paths: Vec<PathBuf>,
}

impl Options {
    /// Parses `argv[1..]`. Unknown flags are errors.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut opts = Options::default();
        for a in args {
            match a.as_str() {
                "--format=json" => opts.json = true,
                "--format=human" => opts.json = false,
                "--deny-all" => opts.deny_all = true,
                "--loc" => opts.loc = true,
                "--help" | "-h" => return Err(usage()),
                f if f.starts_with('-') => return Err(format!("unknown flag `{f}`\n{}", usage())),
                p => opts.paths.push(PathBuf::from(p)),
            }
        }
        Ok(opts)
    }
}

fn usage() -> String {
    "usage: sqlarray-lint [--format=json|human] [--deny-all] [--loc] [paths…]\n\
     Lints the workspace's library sources against the repo invariants \
     (L001–L010). With no paths, walks up to the workspace root and lints \
     every crate's src/ tree. --loc prints, per crate, the lines of those \
     sources that hold code outside #[cfg(test)] instead."
        .to_string()
}

/// The code lines of one file: the lines that hold a significant token
/// (not whitespace, not a comment) outside `#[cfg(test)]` code. A token
/// that spans lines, such as a multi-line string, holds each of them.
pub fn loc(f: &SourceFile<'_>) -> usize {
    let mut lines = std::collections::BTreeSet::new();
    for k in 0..f.sig.len() {
        let tok = f.tok(k);
        if !f.in_test(tok.start) {
            let spanned = tok.text(f.src).matches('\n').count() as u32;
            lines.extend(tok.line..=tok.line + spanned);
        }
    }
    lines.len()
}

/// Lints one in-memory source. `path_label` drives crate attribution
/// (`crates/<name>/src/…`), so tests can lint fixtures under pretend
/// paths.
pub fn lint_source(path_label: &str, src: &str) -> Vec<Finding> {
    let f = SourceFile::parse(path_label, src);
    rules::run_all(&f)
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects the `.rs` files under `root` that the rules apply to:
/// everything beneath a `src/` directory, excluding vendored code, test
/// trees, examples and fixtures. Sorted for deterministic
/// output.
pub fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") && in_src_tree(&path) {
            out.push(path);
        }
    }
}

/// True when the path has a `src` component (library code, not build
/// scripts or top-level test harnesses).
fn in_src_tree(path: &Path) -> bool {
    path.components()
        .any(|c| c.as_os_str().to_string_lossy() == "src")
}

/// Path rendered workspace-relative with `/` separators, for stable
/// diagnostics across platforms.
fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for c in rel.components() {
        match c {
            std::path::Component::RootDir => out.push('/'),
            other => {
                if !out.is_empty() && !out.ends_with('/') {
                    out.push('/');
                }
                out.push_str(&other.as_os_str().to_string_lossy());
            }
        }
    }
    out
}

/// Runs the lint over the requested paths (or the whole workspace) and
/// returns (findings, files_scanned). IO failures on individual files
/// are reported to stderr and skipped, never fatal.
pub fn run(opts: &Options, cwd: &Path) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let scanned = for_each_source(opts, cwd, |f| findings.extend(rules::run_all(f)));
    (findings, scanned)
}

/// [`loc`] summed per crate over the requested paths (or the whole
/// workspace), in crate-name order.
pub fn loc_per_crate(opts: &Options, cwd: &Path) -> Vec<(String, usize)> {
    let mut per_crate = std::collections::BTreeMap::new();
    for_each_source(opts, cwd, |f| {
        *per_crate.entry(f.crate_name().to_string()).or_default() += loc(f);
    });
    per_crate.into_iter().collect()
}

/// Parses every source file the options select and hands it to `visit`;
/// returns how many were read. IO failures on individual files are
/// reported to stderr and skipped, never fatal.
fn for_each_source(opts: &Options, cwd: &Path, mut visit: impl FnMut(&SourceFile<'_>)) -> usize {
    let root = find_workspace_root(cwd).unwrap_or_else(|| cwd.to_path_buf());
    let files: Vec<PathBuf> = if opts.paths.is_empty() {
        collect_sources(&root)
    } else {
        let mut v = Vec::new();
        for p in &opts.paths {
            let p = if p.is_absolute() {
                p.clone()
            } else {
                cwd.join(p)
            };
            if p.is_dir() {
                v.extend(collect_sources(&p));
            } else {
                v.push(p);
            }
        }
        v.sort();
        v
    };
    let mut scanned = 0usize;
    for path in &files {
        let src = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sqlarray-lint: skipping {}: {e}", path.display());
                continue;
            }
        };
        scanned += 1;
        let label = rel_label(&root, path);
        visit(&SourceFile::parse(&label, &src));
    }
    scanned
}

/// The report of `findings` over `scanned` files, as the text to print
/// and the exit code: 1 under `--deny-all` when there is a finding, else 0.
pub fn report(opts: &Options, findings: &[Finding], scanned: usize) -> (String, u8) {
    let mut out = String::new();
    if opts.json {
        out.push_str("[\n");
        for (i, f) in findings.iter().enumerate() {
            let comma = if i + 1 == findings.len() { "" } else { "," };
            out.push_str(&format!("  {}{}\n", f.render_json(), comma));
        }
        out.push_str("]\n");
    } else {
        for f in findings {
            out.push_str(&format!("{}\n", f.render_human()));
        }
        out.push_str(&format!(
            "sqlarray-lint: {} finding(s) across {} file(s)\n",
            findings.len(),
            scanned
        ));
    }
    (out, u8::from(opts.deny_all && !findings.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_flags_and_paths() {
        let o = Options::parse(["--format=json", "--deny-all", "crates/storage"].map(String::from))
            .unwrap();
        assert!(o.json && o.deny_all);
        assert_eq!(o.paths, vec![PathBuf::from("crates/storage")]);
        assert!(Options::parse(["--bogus".to_string()]).is_err());
    }

    #[test]
    fn src_tree_filter() {
        assert!(in_src_tree(Path::new("crates/core/src/ops/agg.rs")));
        assert!(!in_src_tree(Path::new("crates/core/build.rs")));
    }

    #[test]
    fn lint_source_applies_allows() {
        let dirty = "fn f(offset: usize, len: usize) -> usize { offset + len }";
        assert_eq!(lint_source("crates/storage/src/x.rs", dirty).len(), 1);
        let clean = "// lint:allow(L003, reason = \"sum bounded by PAGE_SIZE\")\n\
                     fn f(offset: usize, len: usize) -> usize { offset + len }";
        assert!(lint_source("crates/storage/src/x.rs", clean).is_empty());
    }
}
