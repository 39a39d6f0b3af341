//! Array-notation syntactic sugar — the §8 wishlist item.
//!
//! "A syntactic sugar to T-SQL and a pre-parser would be desirable that
//! translates a special flavor of SQL designed for array notation to
//! standard T-SQL with function calls. This could be achieved by writing
//! a specialized .NET database connector that provides the translation."
//! (§8)
//!
//! This module is that pre-parser. It rewrites, purely textually (like
//! the connector-level translator the paper envisions):
//!
//! | sugar                     | translation                                         |
//! |---------------------------|-----------------------------------------------------|
//! | `@a[i]`, `@a[i, j]`       | `Schema.Item(@a, i, j)`                             |
//! | `@a[i0:i1]`               | `Schema.Subarray(@a, IntArray.Vector(i0), IntArray.Vector(i1 - i0), 1)` |
//! | `@a[i0:i1, j0:j1]`        | ditto with rank-2 offset/size vectors               |
//! | `@a[i] = e` (in SET)      | `SET @a = Schema.UpdateItem(@a, i, e)`              |
//! | mixed `@a[2, j0:j1]`      | point indices become width-1 slice axes             |
//!
//! The element schema of each sugared identifier comes from a declared
//! type map (the connector would read it from the catalog); untyped
//! identifiers default to `FloatArray`/`FloatArrayMax`.

use crate::value::{EngineError, Result};
use std::collections::HashMap;

/// Which function schema a sugared identifier's array belongs to.
#[derive(Debug, Clone, Default)]
pub struct SugarTypes {
    map: HashMap<String, String>,
}

impl SugarTypes {
    /// Empty map with `FloatArray` as the default schema.
    pub fn new() -> SugarTypes {
        SugarTypes::default()
    }

    /// Declares the schema of one identifier (variable name without `@`,
    /// or column name).
    pub fn declare(&mut self, ident: &str, schema: &str) {
        self.map
            .insert(ident.to_ascii_lowercase(), schema.to_string());
    }

    fn schema_of(&self, ident: &str) -> &str {
        self.map
            .get(&ident.to_ascii_lowercase())
            .map(String::as_str)
            .unwrap_or("FloatArray")
    }
}

/// One parsed bracket axis: a point index or a half-open slice.
enum Axis {
    Point(String),
    Slice(String, String),
}

/// Translates array-notation sugar into plain T-SQL. Text outside
/// brackets passes through untouched; strings and comments are respected.
pub(crate) fn desugar(src: &str, types: &SugarTypes) -> Result<String> {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len() + 64);
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            // String literals pass through verbatim.
            b'\'' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\'' {
                        if bytes.get(i + 1) == Some(&b'\'') {
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                out.push_str(&src[start..i]);
            }
            // Line comments pass through verbatim.
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.push_str(&src[start..i]);
            }
            b'@' | b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                // Read an identifier (optionally @-prefixed), then check
                // for a bracket.
                let start = i;
                if c == b'@' {
                    i += 1;
                }
                let ident_start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let ident = &src[ident_start..i];
                let full = &src[start..i];
                // Skip whitespace to find a bracket.
                let mut j = i;
                while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\t') {
                    j += 1;
                }
                if ident.is_empty() || j >= bytes.len() || bytes[j] != b'[' {
                    out.push_str(full);
                    continue;
                }
                // Parse the bracket body; both parentheses and nested
                // brackets (`@a[@ix[0]]`) may appear inside indices.
                let body_start = j + 1;
                let mut depth = 0i32;
                let mut bracket_depth = 0i32;
                let mut k = body_start;
                while k < bytes.len() {
                    match bytes[k] {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        b'[' => bracket_depth += 1,
                        b']' if bracket_depth > 0 => bracket_depth -= 1,
                        b']' if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                if k >= bytes.len() {
                    return Err(EngineError::Parse {
                        pos: j,
                        msg: "unterminated `[` in array notation".to_string(),
                    });
                }
                let body = &src[body_start..k];
                i = k + 1;

                let axes = parse_axes(body, body_start)?;
                let schema = types.schema_of(ident);

                // Assignment form: `@a[i] = expr` inside SET (detected by
                // a following single `=` that is not `==`/`<=`/`>=`).
                let mut m = i;
                while m < bytes.len() && (bytes[m] == b' ' || bytes[m] == b'\t') {
                    m += 1;
                }
                let is_assign = m < bytes.len()
                    && bytes[m] == b'='
                    && bytes.get(m + 1) != Some(&b'=')
                    && out.trim_end().to_ascii_lowercase().ends_with("set");
                if is_assign {
                    // Consume `=` and the RHS up to the statement end
                    // (`;` or end of input).
                    let rhs_start = m + 1;
                    let mut e = rhs_start;
                    let mut depth = 0i32;
                    while e < bytes.len() {
                        match bytes[e] {
                            b'(' => depth += 1,
                            b')' => depth -= 1,
                            b';' if depth == 0 => break,
                            _ => {}
                        }
                        e += 1;
                    }
                    let rhs = desugar(&src[rhs_start..e], types)?;
                    i = e;
                    let points: Vec<&String> = axes
                        .iter()
                        .map(|a| match a {
                            Axis::Point(p) => Ok(p),
                            Axis::Slice(..) => Err(EngineError::Unsupported(
                                "slice assignment is not supported".to_string(),
                            )),
                        })
                        .collect::<Result<_>>()?;
                    // `SET @a[...] = rhs` became: the `SET ` is already in
                    // `out`; emit `@a = Schema.UpdateItem(@a, idx..., rhs)`.
                    out.push_str(full);
                    out.push_str(" = ");
                    out.push_str(schema);
                    out.push_str(".UpdateItem(");
                    out.push_str(full);
                    for p in points {
                        out.push_str(", ");
                        out.push_str(p.trim());
                    }
                    out.push_str(", ");
                    out.push_str(rhs.trim());
                    out.push(')');
                    continue;
                }

                if axes.iter().all(|a| matches!(a, Axis::Point(_))) {
                    // Pure item access.
                    out.push_str(schema);
                    out.push_str(".Item(");
                    out.push_str(full);
                    for a in &axes {
                        if let Axis::Point(p) = a {
                            out.push_str(", ");
                            out.push_str(desugar(p, types)?.trim());
                        }
                    }
                    out.push(')');
                } else {
                    // Slice: offsets and sizes as IntArray vectors; point
                    // axes become width-1 slices and are squeezed away.
                    let mut offsets = Vec::new();
                    let mut sizes = Vec::new();
                    for a in &axes {
                        match a {
                            Axis::Point(p) => {
                                let p = desugar(p, types)?;
                                offsets.push(p.trim().to_string());
                                sizes.push("1".to_string());
                            }
                            Axis::Slice(lo, hi) => {
                                let lo = desugar(lo, types)?.trim().to_string();
                                let hi = desugar(hi, types)?.trim().to_string();
                                sizes.push(format!("({hi}) - ({lo})"));
                                offsets.push(lo);
                            }
                        }
                    }
                    out.push_str(schema);
                    out.push_str(".Subarray(");
                    out.push_str(full);
                    out.push_str(", IntArray.Vector(");
                    out.push_str(&offsets.join(", "));
                    out.push_str("), IntArray.Vector(");
                    out.push_str(&sizes.join(", "));
                    out.push_str("), 1)");
                }
            }
            _ => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    Ok(out)
}

/// Splits a bracket body into comma-separated axes, honoring nested
/// parentheses; each axis is a point or a `lo:hi` slice.
fn parse_axes(body: &str, pos: usize) -> Result<Vec<Axis>> {
    let mut axes = Vec::new();
    let bytes = body.as_bytes();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut colon: Option<usize> = None;
    let flush = |start: usize, end: usize, colon: Option<usize>| -> Result<Axis> {
        let seg = body[start..end].trim();
        if seg.is_empty() {
            return Err(EngineError::Parse {
                pos,
                msg: "empty axis in array notation".to_string(),
            });
        }
        Ok(match colon {
            Some(c) => Axis::Slice(
                body[start..c].trim().to_string(),
                body[c + 1..end].trim().to_string(),
            ),
            None => Axis::Point(seg.to_string()),
        })
    };
    for (k, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b':' if depth == 0 => {
                if colon.is_some() {
                    return Err(EngineError::Parse {
                        pos,
                        msg: "multiple `:` in one axis".to_string(),
                    });
                }
                colon = Some(k);
            }
            b',' if depth == 0 => {
                axes.push(flush(start, k, colon)?);
                start = k + 1;
                colon = None;
            }
            _ => {}
        }
    }
    axes.push(flush(start, body.len(), colon)?);
    Ok(axes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::{Database, Engine};

    fn t() -> SugarTypes {
        SugarTypes::new()
    }

    #[test]
    fn item_access_rewrites() {
        let out = desugar("SELECT @a[3]", &t()).unwrap();
        assert_eq!(out, "SELECT FloatArray.Item(@a, 3)");
        let out = desugar("SELECT @m[1, 0]", &t()).unwrap();
        assert_eq!(out, "SELECT FloatArray.Item(@m, 1, 0)");
    }

    #[test]
    fn slice_rewrites_to_subarray() {
        let out = desugar("SELECT @a[1:4]", &t()).unwrap();
        assert_eq!(
            out,
            "SELECT FloatArray.Subarray(@a, IntArray.Vector(1), IntArray.Vector((4) - (1)), 1)"
        );
    }

    #[test]
    fn mixed_point_and_slice() {
        let out = desugar("SELECT @m[2, 0:3]", &t()).unwrap();
        assert_eq!(
            out,
            "SELECT FloatArray.Subarray(@m, IntArray.Vector(2, 0), \
             IntArray.Vector(1, (3) - (0)), 1)"
        );
    }

    #[test]
    fn schema_map_and_columns() {
        let mut types = t();
        types.declare("flux", "FloatArrayMax");
        types.declare("flags", "SmallIntArray");
        let out = desugar("SELECT flux[0], flags[2] FROM spectra", &types).unwrap();
        assert_eq!(
            out,
            "SELECT FloatArrayMax.Item(flux, 0), SmallIntArray.Item(flags, 2) FROM spectra"
        );
    }

    #[test]
    fn assignment_becomes_update_item() {
        let out = desugar("SET @a[2] = 9.5", &t()).unwrap();
        assert_eq!(out, "SET @a = FloatArray.UpdateItem(@a, 2, 9.5)");
        // Slice assignment is rejected.
        assert!(desugar("SET @a[0:2] = 1", &t()).is_err());
    }

    #[test]
    fn strings_and_comments_untouched() {
        let out = desugar("SELECT 'a[1]' -- @x[2]\n", &t()).unwrap();
        assert_eq!(out, "SELECT 'a[1]' -- @x[2]\n");
    }

    #[test]
    fn nested_expressions_in_indices() {
        let out = desugar("SELECT @a[(1 + 2) * 1]", &t()).unwrap();
        assert_eq!(out, "SELECT FloatArray.Item(@a, (1 + 2) * 1)");
        // Index expressions can themselves be sugared.
        let out = desugar("SELECT @a[@ix[0]]", &t()).unwrap();
        assert_eq!(out, "SELECT FloatArray.Item(@a, FloatArray.Item(@ix, 0))");
    }

    #[test]
    fn errors_on_malformed_brackets() {
        assert!(desugar("SELECT @a[1", &t()).is_err());
        assert!(desugar("SELECT @a[]", &t()).is_err());
        assert!(desugar("SELECT @a[1:2:3]", &t()).is_err());
    }

    #[test]
    fn end_to_end_through_the_session() {
        let mut s = Engine::new(Database::new()).session();
        s.execute("DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)")
            .unwrap();
        // SELECT @a[3] via the sugar API.
        let v = s.query_sugar("SELECT @a[3]", &t()).unwrap();
        assert_eq!(v.rows[0][0], Value::F64(4.0));
        // Slice + aggregate: sum of @a[1:4] = 2+3+4.
        let v = s
            .query_sugar("SELECT FloatArray.Sum(@a[1:4])", &t())
            .unwrap();
        assert_eq!(v.rows[0][0], Value::F64(9.0));
        // Element assignment.
        s.execute_sugar("SET @a[0] = 10.0", &t()).unwrap();
        let v = s.query_sugar("SELECT @a[0]", &t()).unwrap();
        assert_eq!(v.rows[0][0], Value::F64(10.0));
    }

    #[test]
    fn sugared_query_over_table_columns() {
        use sqlarray_storage::{ColType, RowValue, Schema};
        let mut db = Database::new();
        db.create_table(
            "vecs",
            Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
        )
        .unwrap();
        for k in 0..10 {
            let a = sqlarray_core::build::short_vector(&[k as f64, 2.0 * k as f64]).unwrap();
            db.insert(
                "vecs",
                k,
                &[RowValue::I64(k), RowValue::Bytes(a.into_blob())],
            )
            .unwrap();
        }
        let mut s = Engine::new(db).session_with_hosting(crate::hosting::HostingModel::free());
        // Q4 of Table 1, in sugar: SELECT SUM(v[1]) FROM vecs.
        let v = s.query_sugar("SELECT SUM(v[1]) FROM vecs", &t()).unwrap();
        let expect: f64 = (0..10).map(|k| 2.0 * k as f64).sum();
        assert_eq!(v.rows[0][0], Value::F64(expect));
    }
}
