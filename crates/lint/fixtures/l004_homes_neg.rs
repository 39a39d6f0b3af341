// Negative fixture for L004's homes, linted as the scan driver
// (`crates/engine/src/exec/scan.rs`): its one fan-out and its one panic
// boundary. Names, definitions, comments and strings are not calls —
// configured_dop(), env::var, catch_unwind( — and test code may catch
// panics, spawn threads and read the environment.

pub fn run_scan(parts: usize) -> Vec<usize> {
    scoped_map_ranges(parts, parts, |r| {
        std::panic::catch_unwind(|| r.len()).unwrap_or(0)
    })
}

pub fn catch_unwind(x: usize) -> usize {
    x
}

pub const DOC: &str = "configured_dop() env::var(\"SQLARRAY_DOP\") catch_unwind(";

#[cfg(test)]
mod tests {
    #[test]
    fn harness() {
        let _ = std::env::var("SQLARRAY_DOP");
        let _ = std::panic::catch_unwind(|| 1);
        std::thread::scope(|s| {
            s.spawn(|| {});
        });
    }
}
