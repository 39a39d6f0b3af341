//! Just enough JSON to read cargo's `--message-format=json` lines.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// A number, `true`, `false` or `null`, as written.
    Atom(String),
    Str(String),
    /// An object's fields, or an array's items under empty keys.
    List(Vec<(String, Json)>),
}

impl Json {
    /// The value of `key` when this is an object that has it.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::List(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string or atom at `key`, or `""`.
    pub(crate) fn str(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Json::Str(s) | Json::Atom(s)) => s,
            _ => "",
        }
    }

    /// The items of the array (or fields of the object) at `key`.
    pub(crate) fn items(&self, key: &str) -> impl Iterator<Item = &Json> {
        let list = match self.get(key) {
            Some(Json::List(items)) => &items[..],
            _ => &[],
        };
        list.iter().map(|(_, v)| v)
    }
}

/// Parses one JSON document; `None` when `text` is not one.
pub(crate) fn parse(text: &str) -> Option<Json> {
    let (v, rest) = value(text)?;
    rest.trim().is_empty().then_some(v)
}

/// The value at the start of `s` and what follows it.
fn value(s: &str) -> Option<(Json, &str)> {
    let s = s.trim_start();
    let (close, keyed) = match s.chars().next()? {
        '"' => return string(&s[1..]).map(|(text, rest)| (Json::Str(text), rest)),
        '[' => (']', false),
        '{' => ('}', true),
        _ => {
            let end = s
                .find(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
                .unwrap_or(s.len());
            return (end > 0).then(|| (Json::Atom(s[..end].to_string()), &s[end..]));
        }
    };
    let mut items = Vec::new();
    let mut rest = s[1..].trim_start();
    if let Some(after) = rest.strip_prefix(close) {
        return Some((Json::List(items), after));
    }
    loop {
        let mut key = String::new();
        if keyed {
            (key, rest) = string(rest.trim_start().strip_prefix('"')?)?;
            rest = rest.trim_start().strip_prefix(':')?;
        }
        let (v, after) = value(rest)?;
        items.push((key, v));
        rest = after.trim_start();
        if let Some(after) = rest.strip_prefix(close) {
            return Some((Json::List(items), after));
        }
        rest = rest.strip_prefix(',')?;
    }
}

/// The body of a string literal whose opening quote is already read,
/// unescaped, and what follows its closing quote.
fn string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => out.push(match chars.next()?.1 {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'u' => {
                    let hex: String = (0..4)
                        .filter_map(|_| chars.next().map(|(_, h)| h))
                        .collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?).unwrap_or('\u{fffd}')
                }
                other => other,
            }),
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_cargo_message_shape() {
        let line = r#"{"reason":"compiler-message","message":{"level":"error","code":null,
            "spans":[{"file_name":"src/a.rs","byte_end":7,"is_primary":true}],
            "rendered":"e\u00e9\"\n\\","n":-1.5e2,"e":[], "o": {}}}"#;
        let v = parse(line).unwrap();
        let m = v.get("message").unwrap();
        assert_eq!(m.str("level"), "error");
        assert_eq!(m.str("code"), "null");
        let span = m.items("spans").next().unwrap();
        assert_eq!(
            (span.str("byte_end"), span.str("is_primary")),
            ("7", "true")
        );
        assert_eq!(span.str("file_name"), "src/a.rs");
        assert_eq!(m.str("rendered"), "e\u{e9}\"\n\\");
        assert_eq!(m.str("n"), "-1.5e2");
        assert_eq!(m.items("e").count() + m.items("o").count(), 0);
    }

    #[test]
    fn rejects_what_is_not_one_document() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "\"open",
            "[1 2]",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_none(), "{bad}");
        }
    }
}
