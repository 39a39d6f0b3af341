//! The other crate: every `alpha` item it names is kept.

/// Called by this crate's bin: kept.
pub fn run() -> u32 {
    alpha::via_reexport() + alpha::Table.width() + from_rows(&[1, 2])
}

fn from_rows(rows: &[u32]) -> u32 {
    rows.iter().sum()
}
