// Positive fixture for L004's homes: two scan harnesses, each with its own
// fan-out and panic boundary, a knob parsed beside `config.rs`, and a unit
// test reading the array kernels' DOP. Linted under several pretend paths.

pub fn scan_rows(parts: usize) -> usize {
    let out = scoped_map_ranges(parts, parts, |r| r.len());
    std::panic::catch_unwind(|| out.len()).unwrap_or(0)
}

pub fn scan_batches(data: &mut [u8]) -> bool {
    scoped_for_ranges_mut(data, 1, 2, |_, chunk| chunk.fill(0));
    std::panic::catch_unwind(|| data.len()).is_ok()
}

pub fn knobs() -> Option<usize> {
    let raw = std::env::var("SQLARRAY_BATCH_ROWS").ok();
    raw.and(env_usize("SQLARRAY_DOP"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernels_dop() {
        assert!(sqlarray_core::parallel::configured_dop() >= 1);
    }
}
