//! Textual form of arrays.
//!
//! "Arrays can also be converted to and from strings" (§5.1). The grammar:
//!
//! ```text
//! array  := type '[' dims ']' '{' items '}'
//! dims   := usize (',' usize)*
//! items  := scalar (',' scalar)*        -- column-major order
//! ```
//!
//! Example: `float64[2,3]{1,2,3,4,5,6}`. The storage class is not part of
//! the text form; parsing picks it automatically
//! (short when it fits, max otherwise), matching the original library's
//! conversion functions which exist for both schemas.

use crate::array::SqlArray;
use crate::element::ElementType;
use crate::errors::{ArrayError, Result};
use crate::scalar::Scalar;
use std::fmt;

/// Renders an array in the canonical text form.
pub fn to_string(a: &SqlArray) -> String {
    let mut out = String::new();
    #[expect(
        clippy::expect_used,
        reason = "fmt::Write into a String is infallible; the Err arm is unreachable for this writer"
    )]
    render(a, &mut out).expect("string formatting cannot fail");
    out
}

fn render(a: &SqlArray, out: &mut impl fmt::Write) -> fmt::Result {
    write!(out, "{}[", a.elem())?;
    for (i, d) in a.dims().iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{d}")?;
    }
    out.write_str("]{")?;
    for (i, s) in a.iter_scalars().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{s}")?;
    }
    out.write_char('}')
}

/// Parses the canonical text form back into an array. The storage class is
/// chosen automatically from the decoded size.
fn from_string(s: &str) -> Result<SqlArray> {
    let s = s.trim();
    let bad = |msg: &str| ArrayError::Parse(format!("{msg} in `{s}`"));

    let lbrack = s.find('[').ok_or_else(|| bad("missing `[`"))?;
    let rbrack = s.find(']').ok_or_else(|| bad("missing `]`"))?;
    if rbrack < lbrack {
        return Err(bad("`]` before `[`"));
    }
    let elem: ElementType = s[..lbrack].trim().parse()?;

    let dims: Vec<usize> = s[lbrack + 1..rbrack]
        .split(',')
        .map(|d| d.trim().parse::<usize>().map_err(|_| bad("bad dimension")))
        .collect::<Result<_>>()?;

    let rest = s[rbrack + 1..].trim();
    let inner = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| bad("missing `{...}` item list"))?;

    // Complex items contain no commas in our format (`1+2i`), so a flat
    // split is unambiguous.
    let items: Vec<Scalar> = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner
            .split(',')
            .map(|tok| Scalar::parse(elem, tok))
            .collect::<Result<_>>()?
    };

    let class = SqlArray::auto_class(elem, &dims)?;
    let mut a = SqlArray::zeros(class, elem, &dims)?;
    if items.len() != a.count() {
        return Err(ArrayError::CountMismatch {
            dims_product: a.count(),
            count: items.len(),
        });
    }
    for (lin, item) in items.into_iter().enumerate() {
        let idx = a.shape().multi_index(lin);
        a.update_item(&idx, item)?;
    }
    Ok(a)
}

impl fmt::Display for SqlArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        render(self, f)
    }
}

impl std::str::FromStr for SqlArray {
    type Err = ArrayError;

    fn from_str(s: &str) -> Result<Self> {
        from_string(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{matrix, short_vector};
    use crate::complex::Complex64;
    use crate::header::StorageClass;

    #[test]
    fn vector_to_string() {
        let a = short_vector(&[1.0f64, 2.5, -3.0]).unwrap();
        assert_eq!(to_string(&a), "float64[3]{1,2.5,-3}");
    }

    #[test]
    fn matrix_to_string_is_column_major() {
        let m = matrix(StorageClass::Short, 2, 2, &[1i32, 2, 3, 4]).unwrap();
        assert_eq!(to_string(&m), "int32[2,2]{1,3,2,4}");
    }

    #[test]
    fn round_trip_real() {
        let a = short_vector(&[1.5f32, -0.25, 1e10]).unwrap();
        let s = to_string(&a);
        let b: SqlArray = s.parse().unwrap();
        assert_eq!(a.to_vec::<f32>().unwrap(), b.to_vec::<f32>().unwrap());
        assert_eq!(a.dims(), b.dims());
        assert_eq!(a.elem(), b.elem());
    }

    #[test]
    fn round_trip_complex() {
        let a = short_vector(&[Complex64::new(1.0, -2.0), Complex64::new(0.0, 3.0)]).unwrap();
        let s = to_string(&a);
        assert_eq!(s, "complex64[2]{1-2i,0+3i}");
        let b: SqlArray = s.parse().unwrap();
        assert_eq!(
            b.to_vec::<Complex64>().unwrap(),
            a.to_vec::<Complex64>().unwrap()
        );
    }

    #[test]
    fn parse_with_whitespace() {
        let b: SqlArray = " int16 [ 2 , 2 ] { 1 , 2 , 3 , 4 } ".parse().unwrap();
        assert_eq!(b.dims(), &[2, 2]);
        assert_eq!(b.to_vec::<i16>().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn parse_picks_class_by_size() {
        let small: SqlArray = "int8[2]{1,2}".parse().unwrap();
        assert_eq!(small.class(), StorageClass::Short);
        let big_items: String = (0..3000)
            .map(|i| (i % 100).to_string())
            .collect::<Vec<_>>()
            .join(",");
        let big: SqlArray = format!("float64[3000]{{{big_items}}}").parse().unwrap();
        assert_eq!(big.class(), StorageClass::Max);
    }

    #[test]
    fn parse_errors() {
        assert!("float64{1,2}".parse::<SqlArray>().is_err()); // no dims
        assert!("float64[2]{1}".parse::<SqlArray>().is_err()); // count
        assert!("nosuch[1]{1}".parse::<SqlArray>().is_err()); // type
        assert!("float64[2]1,2".parse::<SqlArray>().is_err()); // braces
        assert!("float64[0]{}".parse::<SqlArray>().is_err()); // zero dim
        assert!("int32[2]{a,b}".parse::<SqlArray>().is_err()); // items
    }

    #[test]
    fn display_trait_matches_helper() {
        let a = short_vector(&[7i64]).unwrap();
        assert_eq!(format!("{a}"), to_string(&a));
    }
}
