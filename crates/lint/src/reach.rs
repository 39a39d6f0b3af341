//! `--reach`: the compiler proves which `pub` items another compilation
//! unit uses.
//!
//! The workspace (the `benchmark/` package included) is copied under a
//! work directory. In the copy, every library source's `pub` fn, const,
//! static and type alias, and every path a `pub use` names, is narrowed
//! to `pub(crate)` — outside `#[cfg(test)]` code and `macro_rules!`
//! bodies. `cargo check --workspace --all-targets` then runs over the
//! workspace and over `benchmark/Cargo.toml`; every narrowed item that an
//! error (or a `private_interfaces`/`private_bounds` warning) points at
//! gets its `pub` back, and the build repeats until it is clean. What is
//! still narrowed then is exported for nothing: no other crate, bin,
//! example, integration test or the benchmark uses it.
//!
//! A re-export is a caller only when another unit uses the item through
//! it: each path of a `pub use` is narrowed on its own, with its item.
//! An error that names what no longer resolves — a restored re-export of
//! a narrowed item (E0364/E0365), a name a glob import lost — gives back
//! the module-level items that define that name. A public `len` keeps the
//! `is_empty` beside it, as clippy's `len_without_is_empty` asks.
//!
//! Limits: a glob re-export (`pub use m::*`) is never narrowed, and what
//! another unit reaches only through one is matched by name; doc tests
//! are not built. A build whose errors point at no narrowed item fails
//! the check.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::diag::Finding;
use crate::driver::{collect_sources, rel_label, walk};
use crate::json::{self, Json};
use crate::lexer::TokKind;
use crate::rules::finding_at;
use crate::source::SourceFile;

/// One narrowable `pub` item: a fn, const, static or type alias, or one
/// path of a `pub use`.
struct Item {
    /// Byte offset of its `pub` in the real file.
    at: usize,
    /// One past its name (past the `;` of a `pub use`) in the real file.
    end: usize,
    name: String,
    /// The name a `use` can import it by (none for a method or an item in
    /// a fn body).
    defines: Option<String>,
    /// The path it re-exports, `as` alias included.
    path: Option<String>,
    /// The significant token that opens its innermost block.
    block: usize,
    narrowed: bool,
    /// Its `[start, end)` in the copy as last written.
    span: (usize, usize),
    /// Where it is reported while it stays narrowed.
    finding: Finding,
}

/// A library source with its narrowable items.
struct Lib {
    label: String,
    src: String,
    items: Vec<Item>,
}

impl Lib {
    /// The source with every narrowed item's `pub` as `pub(crate)`;
    /// records where each item now lies. A `pub use` with a narrowed path
    /// is written as one `use` per path, so each has its own visibility.
    fn render(&mut self) -> String {
        let mut out = String::with_capacity(self.src.len());
        let mut done = 0;
        let mut i = 0;
        while i < self.items.len() {
            let at = self.items[i].at;
            let n = self.items[i..].iter().take_while(|x| x.at == at).count();
            let statement = &mut self.items[i..i + n];
            i += n;
            if statement.iter().all(|x| !x.narrowed) {
                continue;
            }
            out.push_str(&self.src[done..at]);
            done = statement[0].end;
            for item in statement {
                let start = out.len();
                let vis = if item.narrowed { "pub(crate)" } else { "pub" };
                match &item.path {
                    Some(path) => out.push_str(&format!("{vis} use {path}; ")),
                    None => out.push_str(&format!("{vis}{}", &self.src[at + 3..item.end])),
                }
                item.span = (start, out.len());
            }
        }
        out.push_str(&self.src[done..]);
        out
    }
}

/// Runs the check on the workspace at `root`, copying it to `work/ws` and
/// building into `work/target`; returns the findings and how many library
/// files were narrowed. `Err` carries what stopped the check: an IO
/// failure, a cargo that would not run, or a build whose errors point at
/// no narrowed item.
pub fn run(root: &Path, work: &Path) -> Result<(Vec<Finding>, usize), String> {
    at(work, fs::create_dir_all(work))?;
    let root = at(root, root.canonicalize())?;
    let work = at(work, work.canonicalize())?;
    let (ws, target) = (work.join("ws"), work.join("target"));
    let mut libs = library_sources(&root)?;
    sync_copy(&root, &ws, &libs)?;
    let manifests: Vec<PathBuf> = ["Cargo.toml", "benchmark/Cargo.toml"]
        .iter()
        .map(|m| ws.join(m))
        .filter(|m| m.is_file())
        .collect();
    let mut rounds = 0;
    'fixpoint: loop {
        rounds += 1;
        for lib in &mut libs {
            let text = lib.render();
            write_if_changed(&ws.join(&lib.label), text.as_bytes())?;
        }
        for manifest in &manifests {
            if restore(&mut libs, &check(manifest, &target)?, &ws)? > 0 {
                continue 'fixpoint;
            }
        }
        break;
    }
    eprintln!("sqlarray-lint --reach: clean build after {rounds} round(s)");
    let findings = libs.iter().flat_map(|l| &l.items).filter(|i| i.narrowed);
    let findings = findings.map(|i| Finding {
        message: format!(
            "`{}` is `pub` but no other crate, bin, example, integration test or the benchmark \
             uses it: narrow it to `pub(crate)` or delete it",
            i.name
        ),
        ..i.finding.clone()
    });
    Ok((findings.collect(), libs.len()))
}

/// The workspace's library sources (the lint's own file set, less bin
/// roots) with their narrowable items.
fn library_sources(root: &Path) -> Result<Vec<Lib>, String> {
    let mut libs = Vec::new();
    for path in collect_sources(root) {
        let label = rel_label(root, &path);
        if label.ends_with("src/main.rs") || label.contains("/src/bin/") {
            continue;
        }
        let src = fs::read_to_string(&path).map_err(|e| format!("{label}: {e}"))?;
        let items = narrowable(&SourceFile::parse(&label, &src));
        libs.push(Lib { label, src, items });
    }
    Ok(libs)
}

/// The `pub` items of `f` that `--reach` narrows, in source order.
fn narrowable(f: &SourceFile<'_>) -> Vec<Item> {
    let mut out = Vec::new();
    for (k, &(top, block, in_macro)) in scopes(f).iter().enumerate() {
        let tok = f.tok(k);
        if !f.is_ident(k, "pub") || f.is_punct(k + 1, "(") || in_macro || f.in_test(tok.start) {
            continue;
        }
        let item = |name: String, defines: String, path: Option<String>, last: usize| Item {
            at: tok.start,
            end: f.tok(last).end,
            finding: finding_at(f, "reach", k, String::new()),
            name,
            defines: top.then_some(defines),
            path,
            block,
            narrowed: true,
            span: (0, 0),
        };
        if f.is_ident(k + 1, "use") {
            let semi = (k..f.sig.len()).find(|&i| f.is_punct(i, ";")).unwrap_or(k);
            let toks: Vec<&str> = (k + 2..semi).map(|i| f.text(i)).collect();
            if !toks.is_empty() && !toks.contains(&"*") {
                let mut paths = Vec::new();
                use_paths(&toks, &mut 0, String::new(), &mut paths);
                out.extend(
                    paths
                        .into_iter()
                        .map(|(path, name)| item(format!("use {path}"), name, Some(path), semi)),
                );
            }
        } else if let Some(name_at) = item_name(f, k + 1) {
            let name = f.text(name_at).to_string();
            out.push(item(name.clone(), name, None, name_at));
        }
    }
    out
}

/// For each significant token of `f`: whether it lies outside every
/// brace block but `mod` bodies, where its innermost block opens, and
/// whether it lies in a `macro_rules!` body.
fn scopes(f: &SourceFile<'_>) -> Vec<(bool, usize, bool)> {
    // (opening token, a `mod` body, a `macro_rules!` body)
    let mut blocks: Vec<(usize, bool, bool)> = Vec::new();
    let mut out = Vec::with_capacity(f.sig.len());
    for k in 0..f.sig.len() {
        out.push((
            blocks.iter().all(|b| b.1),
            blocks.last().map_or(usize::MAX, |b| b.0),
            blocks.iter().any(|b| b.2),
        ));
        if f.is_punct(k, "{") {
            let before = |n: usize, id: &str| k >= n && f.is_ident(k - n, id);
            blocks.push((k, before(2, "mod"), before(3, "macro_rules")));
        } else if f.is_punct(k, "}") {
            blocks.pop();
        }
    }
    out
}

/// Reads one use tree of `t` from `*i` on, after `prefix`, and pushes
/// each path it imports with the name that path defines.
fn use_paths(t: &[&str], i: &mut usize, prefix: String, out: &mut Vec<(String, String)>) {
    let mut path = prefix;
    while let Some(&tok) = t.get(*i) {
        *i += 1;
        match tok {
            "{" => {
                while t.get(*i).is_some_and(|&x| x != "}") {
                    use_paths(t, i, path.clone(), out);
                    *i += usize::from(t.get(*i) == Some(&","));
                }
                *i += 1;
                return;
            }
            ":" => path.push(':'),
            seg => {
                path.push_str(seg);
                if t.get(*i) != Some(&":") {
                    break;
                }
            }
        }
    }
    let path = path.strip_suffix("::self").unwrap_or(&path).to_string();
    if t.get(*i) == Some(&"as") {
        let alias = t.get(*i + 1).copied().unwrap_or("_");
        *i += 2;
        out.push((format!("{path} as {alias}"), alias.to_string()));
    } else {
        let name = path.rsplit("::").next().unwrap_or(&path).to_string();
        out.push((path, name));
    }
}

/// For the tokens after a `pub` at `j`: the index of the item's name when
/// it is a fn, const, static or type alias.
fn item_name(f: &SourceFile<'_>, mut j: usize) -> Option<usize> {
    let any = |j: usize, ids: &[&str]| ids.iter().any(|id| f.is_ident(j, id));
    if any(j, &["const", "static"]) && !any(j + 1, &["fn", "unsafe", "async", "extern"]) {
        j += 1 + usize::from(f.is_ident(j + 1, "mut"));
    } else if f.is_ident(j, "type") {
        j += 1;
    } else {
        while any(j, &["const", "async", "unsafe", "extern"]) {
            j += 1 + usize::from(f.kind(j + 1) == Some(TokKind::Str));
        }
        if !f.is_ident(j, "fn") {
            return None;
        }
        j += 1;
    }
    (f.kind(j) == Some(TokKind::Ident)).then_some(j)
}

/// Makes `ws` a copy of `root` (less `target` and dot directories) whose
/// library sources are `libs`' current text. Writes only what differs, so
/// the build directory stays incremental; removes what `root` lacks.
fn sync_copy(root: &Path, ws: &Path, libs: &[Lib]) -> Result<(), String> {
    let (mut want, mut files, mut stale) = (BTreeSet::new(), Vec::new(), Vec::new());
    walk(root, &["target"], &mut files);
    for path in files {
        let label = rel_label(root, &path);
        if !libs.iter().any(|l| l.label == label) {
            let bytes = fs::read(&path).map_err(|e| format!("{label}: {e}"))?;
            write_if_changed(&ws.join(&label), &bytes)?;
        }
        want.insert(label);
    }
    walk(ws, &["target"], &mut stale);
    for path in stale {
        if !want.contains(&rel_label(ws, &path)) {
            at(&path, fs::remove_file(&path))?;
        }
    }
    Ok(())
}

fn write_if_changed(path: &Path, bytes: &[u8]) -> Result<(), String> {
    if fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(());
    }
    let dir = path.parent().unwrap_or(path);
    at(dir, fs::create_dir_all(dir))?;
    at(path, fs::write(path, bytes))
}

/// `r` with `path` named in its error.
fn at<T>(path: &Path, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{}: {e}", path.display()))
}

/// One compiler diagnostic of a check.
struct Diag {
    error: bool,
    code: String,
    /// Every span of the diagnostic, its children and the macro call
    /// sites they expand from: `(absolute file, start, end, primary)`,
    /// the diagnostic's own spans first.
    spans: Vec<(PathBuf, usize, usize, bool)>,
    rendered: String,
}

/// What one `cargo check` reported.
struct Check {
    diags: Vec<Diag>,
    success: bool,
    stderr: String,
}

/// Runs `cargo check --workspace --all-targets` on `manifest` into
/// `target`. (Without `--workspace`, a root manifest that is also a
/// package checks only that package.)
fn check(manifest: &Path, target: &Path) -> Result<Check, String> {
    let dir = manifest.parent().unwrap_or(manifest);
    let out = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["check", "--workspace", "--all-targets", "--offline"])
        .args(["--locked", "--message-format=json", "--manifest-path"])
        .arg(manifest)
        .env("CARGO_TARGET_DIR", target)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    let diags = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(json::parse)
        .filter(|m| m.str("reason") == "compiler-message")
        .filter_map(|m| {
            let d = m.get("message")?;
            let mut spans = Vec::new();
            collect_spans(d, dir, &mut spans);
            Some(Diag {
                error: d.str("level") == "error",
                code: d.get("code").map_or("", |c| c.str("code")).to_string(),
                spans,
                rendered: d.str("rendered").to_string(),
            })
        })
        .collect();
    Ok(Check {
        diags,
        success: out.status.success(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    })
}

/// Pushes the spans of diagnostic `d` and then of its children.
fn collect_spans(d: &Json, dir: &Path, out: &mut Vec<(PathBuf, usize, usize, bool)>) {
    for top in d.items("spans") {
        let mut span = Some(top);
        while let Some(s) = span {
            if let (Ok(a), Ok(b)) = (s.str("byte_start").parse(), s.str("byte_end").parse()) {
                let primary = s.str("is_primary") == "true";
                out.push((dir.join(s.str("file_name")), a, b, primary));
            }
            span = s.get("expansion").and_then(|e| e.get("span"));
        }
    }
    for child in d.items("children") {
        collect_spans(child, dir, out);
    }
}

/// Error codes of a name that does not resolve: a restored re-export of
/// a narrowed item (E0364, E0365), or a name a glob import no longer
/// brings (E0405, E0412, E0422, E0423, E0425, E0432, E0433).
const UNRESOLVED: &[&str] = &[
    "E0364", "E0365", "E0405", "E0412", "E0422", "E0423", "E0425", "E0432", "E0433",
];

/// Gives back `pub` to every narrowed item that `c`'s errors and
/// interface warnings point at, and to the module-level items of any
/// crate that define the name an [`UNRESOLVED`] error names when it
/// points at none; returns how many. A failed build that gives back
/// nothing is an `Err` with its errors.
fn restore(libs: &mut [Lib], c: &Check, ws: &Path) -> Result<usize, String> {
    let mut hit = BTreeSet::new();
    let mut names = Vec::new();
    for d in &c.diags {
        if !(d.error || matches!(d.code.as_str(), "private_interfaces" | "private_bounds")) {
            continue;
        }
        let before = hit.len();
        for (file, a, b, _) in &d.spans {
            let label = rel_label(ws, file);
            for (l, lib) in libs.iter().enumerate().filter(|(_, l)| l.label == label) {
                for (i, item) in lib.items.iter().enumerate().filter(|(_, i)| i.narrowed) {
                    let (s, e) = item.span;
                    if *a < e && (*b > s || (a == b && *a >= s)) {
                        hit.insert((l, i));
                    }
                }
            }
        }
        let primary = d.spans.iter().find(|s| s.3);
        if let (true, Some((file, a, b, _))) = (hit.len() == before, primary) {
            if UNRESOLVED.contains(&d.code.as_str()) {
                let text = fs::read_to_string(file).unwrap_or_default();
                let named = text.get(*a..*b).unwrap_or("");
                let name = named
                    .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .find(|n| !n.is_empty());
                names.extend(name.map(str::to_string));
            }
        }
    }
    for (l, lib) in libs.iter().enumerate() {
        for (i, item) in lib.items.iter().enumerate() {
            if item.narrowed && item.defines.as_ref().is_some_and(|n| names.contains(n)) {
                hit.insert((l, i));
            }
        }
    }
    for &(l, i) in &hit {
        let items = &mut libs[l].items;
        items[i].narrowed = false;
        // Clippy's `len_without_is_empty`: a public `len` keeps the
        // `is_empty` beside it.
        let (name, block) = (items[i].name == "len", items[i].block);
        for x in items.iter_mut().filter(|x| name && x.block == block) {
            x.narrowed &= x.name != "is_empty";
        }
    }
    if hit.is_empty() && !c.success {
        let errors = c
            .diags
            .iter()
            .filter(|d| d.error)
            .map(|d| d.rendered.as_str());
        return Err(format!(
            "the build failed and its errors point at no narrowed item:\n{}{}",
            errors.collect::<String>(),
            c.stderr
        ));
    }
    Ok(hit.len())
}
