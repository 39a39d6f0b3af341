//! The parse rule every tuning knob shares.
//!
//! The engine reads its `usize` knobs (`SQLARRAY_DOP`,
//! `SQLARRAY_BATCH_ROWS`, `SQLARRAY_STATEMENT_TIMEOUT_MS`,
//! `SQLARRAY_QUERY_MEM_BYTES`, `SQLARRAY_WORKER_BUDGET`,
//! `SQLARRAY_ADMISSION_QUEUE`) once per engine, in its `config` module,
//! through a lookup closure. They all want the same semantics — set and
//! parseable wins, anything else falls through to the caller's default —
//! so the parse lives here once. Clamping (a DOP must be ≥ 1,
//! a batch size may be 0) stays with the caller: it is knob policy, not
//! parse policy.

/// Parses a knob's raw value: surrounding whitespace is ignored, anything
/// that is not a `usize` is `None`, and the caller supplies its own
/// default and clamp.
pub fn parse_usize(raw: &str) -> Option<usize> {
    raw.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::parse_usize;

    #[test]
    fn whitespace_is_ignored() {
        assert_eq!(parse_usize("  42\n"), Some(42));
    }

    #[test]
    fn zero_is_some_zero() {
        // 0 is a meaningful value for some knobs (batch rows 0 = row
        // interpreter), so the parser must not conflate it with unset.
        assert_eq!(parse_usize("0"), Some(0));
    }

    #[test]
    fn malformed_is_none() {
        for val in ["-3", "four", "", "2.5"] {
            assert_eq!(parse_usize(val), None, "{val:?}");
        }
    }
}
