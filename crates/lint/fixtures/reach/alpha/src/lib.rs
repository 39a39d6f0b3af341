//! The library whose exports the check proves.

mod inner {
    /// Used by `beta` through the re-export below: kept.
    pub fn via_reexport() -> u32 {
        1
    }

    /// Named only by its own re-export: flagged.
    pub fn only_reexported() -> u32 {
        2
    }
}

pub use inner::via_reexport;

pub use inner::only_reexported;

/// A table of rows.
pub struct Table;

impl Table {
    /// Nothing calls it; `beta` calls a `from_rows` of its own: flagged.
    pub fn from_rows(rows: u32) -> Table {
        let _ = rows;
        Table
    }

    /// Called by `beta`; narrowed, it is a private method (E0624): kept.
    pub fn width(&self) -> u32 {
        3
    }
}

/// Called only by this crate's integration test: kept.
pub fn tested() -> u32 {
    4
}

macro_rules! make {
    () => {
        pub fn made() -> u32 {
            5
        }
    };
}

make!();

#[cfg(test)]
mod tests {
    pub fn helper() -> u32 {
        super::tested()
    }

    #[test]
    fn helper_calls_tested() {
        assert_eq!(helper(), 4);
    }
}
