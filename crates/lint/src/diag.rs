//! Diagnostics: the finding record and its human/JSON renderings.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`L002` … `L010`, `L000` for malformed suppressions).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed, for context.
    pub snippet: String,
}

impl Finding {
    /// `path:line:col: RULE: message` plus the source line.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}\n    | {}",
            self.path, self.line, self.col, self.rule, self.message, self.snippet
        )
    }

    /// One JSON object (stable key order, fully escaped).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"snippet\":\"{}\"}}",
            self.rule,
            json_escape(&self.path),
            self.line,
            self.col,
            json_escape(&self.message),
            json_escape(&self.snippet)
        )
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn renderings_carry_location() {
        let f = Finding {
            rule: "L003",
            path: "crates/core/src/x.rs".into(),
            line: 3,
            col: 7,
            message: "msg".into(),
            snippet: "offset + len".into(),
        };
        assert!(f.render_human().contains("x.rs:3:7: L003"));
        assert!(f.render_json().contains("\"line\":3"));
    }
}
