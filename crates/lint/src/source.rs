//! Per-file analysis context shared by every rule: the lexed token
//! stream, a significant-token view (comments and whitespace stripped,
//! with back-pointers into the raw stream), `#[cfg(test)]` regions, and
//! parsed `// lint:allow(...)` suppressions.

use crate::lexer::{lex, Tok, TokKind};

/// A parsed `lint:allow` suppression comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule ids the comment suppresses (e.g. `["L003", "L006"]`).
    pub rules: Vec<String>,
    /// The mandatory justification.
    pub reason: String,
    /// 1-based line of the comment. The allow covers findings on this
    /// line and the line immediately below (comment-above style).
    pub line: u32,
}

/// A malformed suppression (missing or empty reason, unparseable list).
#[derive(Debug, Clone)]
pub struct BadAllow {
    /// 1-based line of the offending comment.
    pub line: u32,
    /// What was wrong.
    pub why: String,
}

/// Everything a rule needs to scan one file.
pub struct SourceFile<'a> {
    /// Path label used for crate attribution and diagnostics. Uses `/`
    /// separators regardless of platform.
    pub path: &'a str,
    /// Raw file contents.
    pub src: &'a str,
    /// Full token stream (spans partition `src`).
    pub toks: Vec<Tok>,
    /// Indices into `toks` of non-whitespace, non-comment tokens.
    pub sig: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]`-gated items.
    pub test_regions: Vec<(usize, usize)>,
    /// Well-formed suppressions.
    pub allows: Vec<Allow>,
    /// Malformed suppressions (each becomes an `L000` finding).
    pub bad_allows: Vec<BadAllow>,
}

impl<'a> SourceFile<'a> {
    /// Lexes and pre-analyzes one file.
    pub fn parse(path: &'a str, src: &'a str) -> SourceFile<'a> {
        let toks = lex(src);
        let sig: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let test_regions = find_test_regions(src, &toks, &sig);
        let (allows, bad_allows) = parse_allows(src, &toks);
        SourceFile {
            path,
            src,
            toks,
            sig,
            test_regions,
            allows,
            bad_allows,
        }
    }

    /// The crate a workspace path belongs to: `crates/storage/src/x.rs`
    /// → `"storage"`; the root facade (`src/lib.rs`) → `"sqlarray"`.
    pub(crate) fn crate_name(&self) -> &str {
        if let Some(rest) = self.path.split("crates/").nth(1) {
            rest.split('/').next().unwrap_or("sqlarray")
        } else {
            "sqlarray"
        }
    }

    /// Kind of significant token `k` (index into `self.sig`).
    pub fn kind(&self, k: usize) -> Option<TokKind> {
        self.sig.get(k).map(|&i| self.toks[i].kind)
    }

    /// Text of significant token `k`.
    pub fn text(&self, k: usize) -> &str {
        self.toks[self.sig[k]].text(self.src)
    }

    /// The raw token behind significant index `k`.
    pub fn tok(&self, k: usize) -> &Tok {
        &self.toks[self.sig[k]]
    }

    /// True if significant token `k` is a `Punct` with exactly this text.
    pub fn is_punct(&self, k: usize, p: &str) -> bool {
        self.kind(k) == Some(TokKind::Punct) && self.text(k) == p
    }

    /// True if significant token `k` is an `Ident` with exactly this text.
    pub fn is_ident(&self, k: usize, id: &str) -> bool {
        self.kind(k) == Some(TokKind::Ident) && self.text(k) == id
    }

    /// True when the byte offset falls inside a `#[cfg(test)]` region.
    pub fn in_test(&self, byte: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| byte >= s && byte < e)
    }

    /// True when `rule` is suppressed at `line` by a well-formed allow on
    /// the same line or the line above.
    pub(crate) fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == rule))
    }

    /// Column (1-based, in bytes) of a byte offset.
    pub(crate) fn col(&self, byte: usize) -> u32 {
        let line_start = self.src[..byte].rfind('\n').map_or(0, |p| p + 1);
        (byte - line_start) as u32 + 1
    }

    /// The full source line (1-based) containing `line`, for diagnostics.
    pub(crate) fn line_text(&self, line: u32) -> &str {
        self.src.lines().nth(line as usize - 1).unwrap_or("")
    }
}

/// Finds items gated behind `#[cfg(test)]` (or `#[cfg(all(test, …))]`):
/// the attribute plus the item it decorates — through any further
/// attributes, up to the end of the item's `{ … }` block or terminating
/// `;`. Returns byte ranges.
fn find_test_regions(src: &str, toks: &[Tok], sig: &[usize]) -> Vec<(usize, usize)> {
    let text = |k: usize| toks[sig[k]].text(src);
    let is_p = |k: usize, p: &str| toks[sig[k]].kind == TokKind::Punct && text(k) == p;
    let mut out = Vec::new();
    let mut k = 0usize;
    while k + 1 < sig.len() {
        if !(is_p(k, "#") && is_p(k + 1, "[")) {
            k += 1;
            continue;
        }
        let attr_start_byte = toks[sig[k]].start;
        // Find the matching `]`, tracking bracket depth.
        let mut j = k + 2;
        let mut depth = 1usize;
        let mut saw_cfg = false;
        let mut saw_test = false;
        let mut first_ident = true;
        while j < sig.len() && depth > 0 {
            if is_p(j, "[") {
                depth += 1;
            } else if is_p(j, "]") {
                depth -= 1;
            } else if toks[sig[j]].kind == TokKind::Ident {
                if first_ident {
                    saw_cfg = text(j) == "cfg";
                    first_ident = false;
                } else if text(j) == "test" {
                    saw_test = true;
                }
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) {
            k = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while j + 1 < sig.len() && is_p(j, "#") && is_p(j + 1, "[") {
            let mut d = 1usize;
            j += 2;
            while j < sig.len() && d > 0 {
                if is_p(j, "[") {
                    d += 1;
                } else if is_p(j, "]") {
                    d -= 1;
                }
                j += 1;
            }
        }
        // Skip the item: to a top-level `;`, or through a `{ … }` block.
        let mut brace = 0usize;
        let mut entered = false;
        while j < sig.len() {
            if is_p(j, "{") {
                brace += 1;
                entered = true;
            } else if is_p(j, "}") {
                brace = brace.saturating_sub(1);
                if entered && brace == 0 {
                    j += 1;
                    break;
                }
            } else if is_p(j, ";") && !entered {
                j += 1;
                break;
            }
            j += 1;
        }
        let end_byte = if j == 0 || j >= sig.len() {
            src.len()
        } else {
            toks[sig[j - 1]].end
        };
        out.push((attr_start_byte, end_byte));
        k = j;
    }
    out
}

/// Parses every `lint:allow(RULES, reason = "…")` comment in the file.
fn parse_allows(src: &str, toks: &[Tok]) -> (Vec<Allow>, Vec<BadAllow>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for t in toks {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        // A directive must LEAD the comment (`// lint:allow(...)`); a
        // `lint:allow` mentioned mid-prose — doc comments describing the
        // mechanism — is not a suppression and is not policed.
        let body = t.text(src).trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix("lint:allow") else {
            continue;
        };
        match parse_allow_body(rest) {
            Ok((rules, reason)) => ok.push(Allow {
                rules,
                reason,
                line: t.line,
            }),
            Err(why) => bad.push(BadAllow { line: t.line, why }),
        }
    }
    (ok, bad)
}

/// Parses `(L00x[, L00y…], reason = "…")` after the `lint:allow` marker.
fn parse_allow_body(rest: &str) -> Result<(Vec<String>, String), String> {
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix('(') else {
        return Err("expected `(` after lint:allow".into());
    };
    let Some(close) = inner.rfind(')') else {
        return Err("unclosed lint:allow(...)".into());
    };
    let inner = &inner[..close];
    let Some(reason_at) = inner.find("reason") else {
        return Err("missing mandatory `reason = \"…\"`".into());
    };
    let (rule_part, reason_part) = inner.split_at(reason_at);
    let mut rules = Vec::new();
    for item in rule_part.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let valid = item.len() == 4
            && item.starts_with('L')
            && item[1..].bytes().all(|b| b.is_ascii_digit());
        if !valid {
            return Err(format!("`{item}` is not a rule id (expected L0xx)"));
        }
        rules.push(item.to_string());
    }
    if rules.is_empty() {
        return Err("no rule ids listed".into());
    }
    let after = reason_part["reason".len()..].trim_start();
    let Some(after_eq) = after.strip_prefix('=') else {
        return Err("expected `=` after `reason`".into());
    };
    let after_eq = after_eq.trim_start();
    let Some(q) = after_eq.strip_prefix('"') else {
        return Err("reason must be a quoted string".into());
    };
    let Some(endq) = q.find('"') else {
        return Err("unterminated reason string".into());
    };
    let reason = q[..endq].trim().to_string();
    if reason.is_empty() {
        return Err("reason must not be empty".into());
    }
    Ok((rules, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_attribution() {
        let f = SourceFile::parse("crates/storage/src/blob.rs", "fn x() {}");
        assert_eq!(f.crate_name(), "storage");
        let r = SourceFile::parse("src/lib.rs", "fn x() {}");
        assert_eq!(r.crate_name(), "sqlarray");
    }

    #[test]
    fn cfg_test_module_is_a_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\nfn after() {}";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert_eq!(f.test_regions.len(), 1);
        let live = src.find("live").unwrap();
        let t = src.find("fn t").unwrap();
        let after = src.find("after").unwrap();
        assert!(!f.in_test(live));
        assert!(f.in_test(t));
        assert!(!f.in_test(after));
    }

    #[test]
    fn cfg_all_test_counts_too() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod m { fn t() {} }";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.in_test(src.find("fn t").unwrap()));
    }

    #[test]
    fn cfg_not_test_items_stay_live() {
        let src = "#[cfg(unix)]\nfn live() {}";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!f.in_test(src.find("live").unwrap()));
    }

    #[test]
    fn allow_parsing_happy_path() {
        let src = "// lint:allow(L003, L006, reason = \"bounded above\")\nlet x = offset + 1;";
        let f = SourceFile::parse("crates/storage/src/x.rs", src);
        assert_eq!(f.bad_allows.len(), 0);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rules, vec!["L003", "L006"]);
        assert!(f.is_allowed("L003", 2)); // line below the comment
        assert!(f.is_allowed("L006", 1)); // the comment's own line
        assert!(!f.is_allowed("L002", 2));
        assert!(!f.is_allowed("L003", 3));
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        for bad in [
            "// lint:allow(L003)",
            "// lint:allow(L003, reason = \"\")",
            "// lint:allow(reason = \"no rules\")",
            "// lint:allow(L3, reason = \"bad id\")",
        ] {
            let f = SourceFile::parse("crates/storage/src/x.rs", bad);
            assert_eq!(f.allows.len(), 0, "{bad}");
            assert_eq!(f.bad_allows.len(), 1, "{bad}");
        }
    }

    #[test]
    fn allow_inside_string_is_ignored() {
        let src = "let s = \"lint:allow(L003, reason = \\\"nope\\\")\";";
        let f = SourceFile::parse("crates/storage/src/x.rs", src);
        assert!(f.allows.is_empty() && f.bad_allows.is_empty());
    }
}
