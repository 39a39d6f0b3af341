// Library fixture for L011, linted as crates/core/src/fixture.rs inside a
// pretend workspace whose other files name some of these functions.

pub fn lonely() {}

pub fn named_in_tests() {}

pub fn re_exported() {}

pub const fn called_by_engine() -> u32 {
    1
}

pub fn called_by_benchmark() {}

// lint:allow(L011, reason = "crates/core/tests/instruments.rs calls it")
pub fn allowed_instrument() {}

// lint:allow(L011)
pub fn reasonless() {}

pub(crate) fn narrowed() {}

fn private() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
