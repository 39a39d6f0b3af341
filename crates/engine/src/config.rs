//! Configuration: every `SQLARRAY_*` variable the engine honours, read
//! once per engine.
//!
//! This is the only module of the crate that touches the process
//! environment (`sqlarray-lint`'s L004 flags a read anywhere else). The
//! variables are parsed through a *lookup closure* — [`Settings::from_env`]
//! passes `std::env::var`, a test passes a map — into a [`Settings`] value
//! the engine constructor consumes. The engine keeps the parsed session
//! defaults, so minting a session copies four words and reads nothing.
//!
//! | variable | meaning | unset / unparseable |
//! |---|---|---|
//! | `SQLARRAY_DOP` | session default degree of parallelism (≥ 1) | core count |
//! | `SQLARRAY_BATCH_ROWS` | session default rows per column batch; `0` = row interpreter | [`DEFAULT_BATCH_ROWS`] |
//! | `SQLARRAY_STATEMENT_TIMEOUT_MS` | session default statement deadline; `0` = none | none |
//! | `SQLARRAY_QUERY_MEM_BYTES` | session default per-statement budget; `0` = unlimited | unlimited |
//! | `SQLARRAY_WORKER_BUDGET` | [`EngineConfig::worker_budget`] (≥ 1) | the default DOP |
//! | `SQLARRAY_ADMISSION_QUEUE` | [`EngineConfig::admission_queue_cap`] (≥ 1) | [`DEFAULT_ADMISSION_QUEUE_CAP`] |

use crate::engine::EngineConfig;
use crate::plancache::DEFAULT_PLAN_CACHE_CAPACITY;
use crate::sched::DEFAULT_ADMISSION_QUEUE_CAP;
use sqlarray_core::batch::DEFAULT_BATCH_ROWS;
use sqlarray_core::parallel::{dop_or_cores, DOP_ENV_VAR};

const BATCH_ROWS_ENV_VAR: &str = "SQLARRAY_BATCH_ROWS";
const STATEMENT_TIMEOUT_ENV_VAR: &str = "SQLARRAY_STATEMENT_TIMEOUT_MS";
const QUERY_MEM_ENV_VAR: &str = "SQLARRAY_QUERY_MEM_BYTES";
const WORKER_BUDGET_ENV_VAR: &str = "SQLARRAY_WORKER_BUDGET";
const ADMISSION_QUEUE_ENV_VAR: &str = "SQLARRAY_ADMISSION_QUEUE";

/// What every session an engine mints starts from; the session's setters
/// override it per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SessionDefaults {
    pub dop: usize,
    pub batch_rows: usize,
    pub statement_timeout_ms: Option<u64>,
    pub query_mem_bytes: u64,
}

/// Everything an engine is configured by: the construction-time tuning
/// plus the defaults of the sessions it will mint. The session half is
/// only obtainable from a lookup — it is the `SQLARRAY_*` variables, not
/// a second set of knobs.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Construction-time tuning.
    pub engine: EngineConfig,
    pub(crate) session: SessionDefaults,
}

impl Settings {
    /// Parses the process environment.
    pub fn from_env() -> Settings {
        Settings::from_lookup(|name| std::env::var(name).ok())
    }

    /// Parses the variables `lookup` answers for, asking for each of the
    /// six exactly once. Values go through
    /// [`sqlarray_core::env::parse_usize`]: set and parseable wins,
    /// anything else falls through to the default.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Settings {
        let knob = |name| lookup(name).and_then(|raw| sqlarray_core::env::parse_usize(&raw));
        let dop = dop_or_cores(knob(DOP_ENV_VAR));
        Settings {
            engine: EngineConfig {
                worker_budget: knob(WORKER_BUDGET_ENV_VAR).map_or(dop, |n| n.max(1)),
                plan_cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
                admission_queue_cap: knob(ADMISSION_QUEUE_ENV_VAR)
                    .map_or(DEFAULT_ADMISSION_QUEUE_CAP, |n| n.max(1)),
            },
            session: SessionDefaults {
                dop,
                batch_rows: knob(BATCH_ROWS_ENV_VAR).unwrap_or(DEFAULT_BATCH_ROWS),
                statement_timeout_ms: knob(STATEMENT_TIMEOUT_ENV_VAR)
                    .filter(|&ms| ms > 0)
                    .map(|ms| ms as u64),
                query_mem_bytes: knob(QUERY_MEM_ENV_VAR).unwrap_or(0) as u64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn parse(vars: &[(&str, &str)]) -> Settings {
        let map: HashMap<&str, &str> = vars.iter().copied().collect();
        Settings::from_lookup(|name| map.get(name).map(|v| v.to_string()))
    }

    #[test]
    fn unset_variables_take_the_documented_defaults() {
        let s = parse(&[]);
        let cores = dop_or_cores(None);
        assert!(cores >= 1);
        assert_eq!(
            s.session,
            SessionDefaults {
                dop: cores,
                batch_rows: DEFAULT_BATCH_ROWS,
                statement_timeout_ms: None,
                query_mem_bytes: 0,
            }
        );
        assert_eq!(s.engine.worker_budget, cores);
        assert_eq!(s.engine.plan_cache_capacity, DEFAULT_PLAN_CACHE_CAPACITY);
        assert_eq!(s.engine.admission_queue_cap, DEFAULT_ADMISSION_QUEUE_CAP);
    }

    #[test]
    fn garbage_falls_through_to_the_default_of_each_knob() {
        let unset = parse(&[]);
        for junk in ["", "four", "-3", "2.5", "1e3", "0x10"] {
            let s = parse(&[
                (DOP_ENV_VAR, junk),
                (BATCH_ROWS_ENV_VAR, junk),
                (STATEMENT_TIMEOUT_ENV_VAR, junk),
                (QUERY_MEM_ENV_VAR, junk),
                (WORKER_BUDGET_ENV_VAR, junk),
                (ADMISSION_QUEUE_ENV_VAR, junk),
            ]);
            assert_eq!(s.session, unset.session, "{junk:?}");
            assert_eq!(s.engine.worker_budget, unset.engine.worker_budget);
            assert_eq!(
                s.engine.admission_queue_cap,
                unset.engine.admission_queue_cap
            );
        }
    }

    #[test]
    fn values_parse_with_surrounding_whitespace() {
        let s = parse(&[
            (DOP_ENV_VAR, " 3\n"),
            (BATCH_ROWS_ENV_VAR, "\t256 "),
            (STATEMENT_TIMEOUT_ENV_VAR, " 1500"),
            (QUERY_MEM_ENV_VAR, "1048576 "),
            (WORKER_BUDGET_ENV_VAR, " 6 "),
            (ADMISSION_QUEUE_ENV_VAR, "9\n"),
        ]);
        assert_eq!(
            s.session,
            SessionDefaults {
                dop: 3,
                batch_rows: 256,
                statement_timeout_ms: Some(1500),
                query_mem_bytes: 1 << 20,
            }
        );
        assert_eq!(s.engine.worker_budget, 6);
        assert_eq!(s.engine.admission_queue_cap, 9);
    }

    #[test]
    fn zero_means_what_each_knob_says_it_means() {
        let s = parse(&[
            (DOP_ENV_VAR, "0"),
            (BATCH_ROWS_ENV_VAR, "0"),
            (STATEMENT_TIMEOUT_ENV_VAR, "0"),
            (QUERY_MEM_ENV_VAR, "0"),
            (WORKER_BUDGET_ENV_VAR, "0"),
            (ADMISSION_QUEUE_ENV_VAR, "0"),
        ]);
        // A DOP, a budget and a queue clamp to 1; 0 batch rows is the row
        // interpreter; a 0 timeout is no timeout; 0 bytes is unlimited.
        assert_eq!(s.session.dop, 1);
        assert_eq!(s.session.batch_rows, 0);
        assert_eq!(s.session.statement_timeout_ms, None);
        assert_eq!(s.session.query_mem_bytes, 0);
        assert_eq!(s.engine.worker_budget, 1);
        assert_eq!(s.engine.admission_queue_cap, 1);
    }

    #[test]
    fn worker_budget_follows_the_default_dop_unless_set() {
        assert_eq!(parse(&[(DOP_ENV_VAR, "5")]).engine.worker_budget, 5);
        let both = parse(&[(DOP_ENV_VAR, "5"), (WORKER_BUDGET_ENV_VAR, "2")]);
        assert_eq!((both.session.dop, both.engine.worker_budget), (5, 2));
    }
}
