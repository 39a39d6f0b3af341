//! Environment-variable parsing shared by every tuning knob.
//!
//! The workspace reads several `usize` knobs from the environment
//! (`SQLARRAY_DOP`, `SQLARRAY_BATCH_ROWS`, `SQLARRAY_WORKER_BUDGET`).
//! They all want the same semantics — set and parseable wins, anything
//! else falls through to the caller's default — so the parse lives here
//! once instead of being re-implemented per knob. Clamping (a DOP must be
//! ≥ 1, a batch size may be 0) stays with the caller: it is knob policy,
//! not parse policy.

/// Reads environment variable `name` as a `usize`.
///
/// Returns `Some(n)` when the variable is set and [`parse_usize`] accepts
/// its value; `None` when unset, empty, or malformed — the caller
/// supplies its own default and clamp.
pub(crate) fn env_usize(name: &str) -> Option<usize> {
    parse_usize(&std::env::var(name).ok()?)
}

/// The parse rule every knob shares, for values that did not come from
/// the process environment (the engine reads its knobs through a lookup
/// closure): surrounding whitespace is ignored, anything that is not a
/// `usize` is `None`.
pub fn parse_usize(raw: &str) -> Option<usize> {
    raw.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::env_usize;

    // Each test uses a distinct variable name: the process environment is
    // shared across the test harness's threads, so tests must not race on
    // one name.

    #[test]
    fn unset_is_none() {
        assert_eq!(env_usize("SQLARRAY_TEST_ENV_UNSET"), None);
    }

    #[test]
    fn set_parses_with_whitespace() {
        std::env::set_var("SQLARRAY_TEST_ENV_WS", "  42\n");
        assert_eq!(env_usize("SQLARRAY_TEST_ENV_WS"), Some(42));
    }

    #[test]
    fn zero_is_some_zero() {
        // 0 is a meaningful value for some knobs (batch rows 0 = row
        // interpreter), so the parser must not conflate it with unset.
        std::env::set_var("SQLARRAY_TEST_ENV_ZERO", "0");
        assert_eq!(env_usize("SQLARRAY_TEST_ENV_ZERO"), Some(0));
    }

    #[test]
    fn malformed_is_none() {
        for (var, val) in [
            ("SQLARRAY_TEST_ENV_NEG", "-3"),
            ("SQLARRAY_TEST_ENV_WORD", "four"),
            ("SQLARRAY_TEST_ENV_EMPTY", ""),
            ("SQLARRAY_TEST_ENV_FLOAT", "2.5"),
        ] {
            std::env::set_var(var, val);
            assert_eq!(env_usize(var), None, "{var}={val:?}");
        }
    }
}
