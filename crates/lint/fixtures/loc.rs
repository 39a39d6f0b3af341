//! Nine code lines: comments, blank lines and the test module hold none.

/// A documented item.
#[derive(Debug)]
pub struct Point {
    x: i64, // a trailing comment

    /* a block comment */
    y: i64,
}

const TEXT: &str = "a string
over three
lines";

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}

fn after() {}
