//! The engine-wide plan cache: parsed (and, where legal, compiled) plans
//! reused across statements, sessions, and prepared-statement executions.
//!
//! Two levels are cached, keyed by **normalized statement text**
//! (whitespace runs and `--` comments outside string literals collapse to
//! one space; case and literals are preserved, so normalization can never
//! conflate two semantically different batches):
//!
//! * the **parsed batch** — an `Arc<Vec<Stmt>>` shared by every session
//!   executing the same text, so repeated statements skip the parser
//!   entirely;
//! * per-statement **compiled batch plans** — the `BatchPlan` the
//!   vectorized scan of a SELECT, or of an UPDATE/DELETE match phase,
//!   runs. A compiled plan folds session-variable values into its
//!   constants, so a plan is only reusable when the statement references
//!   no `@variables`; schemas are immutable once created (the dialect has
//!   no `ALTER`/`DROP`), which is what makes a cached compiled plan valid
//!   for the lifetime of the engine. Revisit the [`SelectSlot`] fill
//!   logic if schema evolution ever lands.
//!
//! Bounded LRU: the cache holds at most its configured capacity of parsed
//! batches, evicting the least-recently-used entry under a logical tick
//! (no wall clock — eviction order is deterministic given the access
//! sequence). Hit/miss/eviction counters feed `Engine::stats`.

use crate::batch::Fallback;
use crate::expr::Expr;
use crate::tsql::{parse, Stmt};
use crate::value::Result;
use sqlarray_storage::Schema;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default number of parsed batches the cache retains.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// Observable plan-cache counters (snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to parse.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Parsed batches currently cached.
    pub entries: usize,
    /// Compiled `BatchPlan` reuses across all cached statements.
    pub compiled_reuses: u64,
}

/// One cached batch: the shared parsed statements plus a compiled-plan
/// slot per statement (filled lazily on first execution; only SELECT,
/// UPDATE and DELETE ever fill theirs).
pub struct CachedPlan {
    /// The parsed statements, shared by every executing session.
    pub stmts: Arc<Vec<Stmt>>,
    slots: Vec<SelectSlot>,
    /// The normalized text this plan was cached under.
    pub key: String,
}

impl CachedPlan {
    fn new(key: String, stmts: Vec<Stmt>, reuses: Arc<ReuseCounter>) -> CachedPlan {
        let slots = stmts
            .iter()
            .map(|s| SelectSlot::for_stmt(s, Arc::clone(&reuses)))
            .collect();
        CachedPlan {
            stmts: Arc::new(stmts),
            slots,
            key,
        }
    }

    /// Each statement with its compiled-plan slot, in batch order.
    pub(crate) fn statements(&self) -> impl Iterator<Item = (&Stmt, &SelectSlot)> {
        self.stmts.iter().zip(&self.slots)
    }
}

/// Shared tally of compiled-plan reuses (the slots live inside `Arc`ed
/// plans, so the counter is shared rather than owned by the cache map).
#[derive(Default)]
struct ReuseCounter(std::sync::atomic::AtomicU64);

/// The compiled-`BatchPlan` slot of one scanning statement (SELECT, or
/// the match phase of an UPDATE/DELETE).
///
/// `fill` state machine: `Empty` until the statement first executes with
/// batching enabled; then either `Plan` (compiled) or `NoPlan` (the
/// statement doesn't vectorize — also worth caching, with its reason, so
/// the fallback decision isn't re-derived every execution).
pub struct SelectSlot {
    cacheable: bool,
    state: Mutex<SlotState>,
    reuses: Arc<ReuseCounter>,
}

enum SlotState {
    Empty,
    NoPlan(Fallback),
    Plan {
        plan: Arc<crate::batch::BatchPlan>,
        /// The schema the plan was compiled against. Schemas are
        /// immutable today; the check is the safety net for when they
        /// stop being so.
        schema: Schema,
    },
}

impl SelectSlot {
    fn for_stmt(stmt: &Stmt, reuses: Arc<ReuseCounter>) -> SelectSlot {
        let var_free = |e: &Expr| !e.contains_var();
        let cacheable = match stmt {
            Stmt::Select(sel) => {
                sel.items.iter().all(|it| var_free(&it.expr))
                    && sel.where_clause.iter().all(var_free)
                    && sel.group_by.iter().all(var_free)
            }
            Stmt::Update(u) => {
                u.sets.iter().all(|(_, e)| var_free(e)) && u.where_clause.iter().all(var_free)
            }
            Stmt::Delete(d) => d.where_clause.iter().all(var_free),
            Stmt::Declare { .. } | Stmt::Set { .. } => false,
        };
        SelectSlot {
            cacheable,
            state: Mutex::new(SlotState::Empty),
            reuses,
        }
    }

    fn state(&self) -> MutexGuard<'_, SlotState> {
        // Straight-line assignments and clones only under the guard; the
        // repo-wide recover-on-poison policy (sqlarray_core::sync) holds.
        sqlarray_core::sync::lock_unpoisoned(&self.state)
    }

    /// Returns the compiled plan for this statement, compiling through
    /// `compile` on first use. Var-bearing statements compile fresh every
    /// time (their plans embed the variable bindings); var-free ones fill
    /// the slot once and reuse it, bumping the engine's reuse counter.
    pub(crate) fn plan_for(
        &self,
        schema: &Schema,
        compile: impl FnOnce() -> std::result::Result<crate::batch::BatchPlan, Fallback>,
    ) -> std::result::Result<Arc<crate::batch::BatchPlan>, Fallback> {
        if !self.cacheable {
            return compile().map(Arc::new);
        }
        let mut st = self.state();
        match &*st {
            SlotState::Plan { plan, schema: s } if s == schema => {
                self.reuses
                    .0
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(Arc::clone(plan))
            }
            SlotState::NoPlan(why) => Err(why.clone()),
            _ => {
                let compiled = compile().map(Arc::new);
                *st = match &compiled {
                    Ok(p) => SlotState::Plan {
                        plan: Arc::clone(p),
                        schema: schema.clone(),
                    },
                    Err(why) => SlotState::NoPlan(why.clone()),
                };
                compiled
            }
        }
    }
}

struct Entry {
    plan: Arc<CachedPlan>,
    last_used: u64,
}

struct CacheState {
    map: HashMap<String, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The bounded LRU cache itself. One per [`crate::engine::Engine`].
pub struct PlanCache {
    capacity: usize,
    state: Mutex<CacheState>,
    reuses: Arc<ReuseCounter>,
}

impl PlanCache {
    /// A cache retaining at most `capacity` parsed batches (≥ 1).
    pub(crate) fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            reuses: Arc::new(ReuseCounter::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, CacheState> {
        // No user code runs under the guard (parsing happens before the
        // insert lock below); the repo-wide recover-on-poison policy
        // (sqlarray_core::sync) holds.
        sqlarray_core::sync::lock_unpoisoned(&self.state)
    }

    /// Looks `sql` up by normalized text, parsing and inserting on miss.
    /// Parse errors are returned without caching (error texts would only
    /// evict useful plans).
    pub fn get_or_parse(&self, sql: &str) -> Result<Arc<CachedPlan>> {
        let key = normalize(sql);
        {
            let mut st = self.state();
            st.tick += 1;
            let tick = st.tick;
            if let Some(e) = st.map.get_mut(&key) {
                e.last_used = tick;
                let plan = Arc::clone(&e.plan);
                st.hits += 1;
                return Ok(plan);
            }
        }
        // Parse outside the lock: a slow parse of one statement must not
        // serialize every other session's cache lookups.
        let stmts = parse(sql)?;
        let plan = Arc::new(CachedPlan::new(
            key.clone(),
            stmts,
            Arc::clone(&self.reuses),
        ));
        let mut st = self.state();
        st.misses += 1;
        st.tick += 1;
        let tick = st.tick;
        // Two sessions can race to parse the same new text; first insert
        // wins so both share one plan (and one set of compiled slots).
        if let Some(e) = st.map.get_mut(&key) {
            e.last_used = tick;
            return Ok(Arc::clone(&e.plan));
        }
        if st.map.len() >= self.capacity {
            if let Some(victim) = st
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                st.map.remove(&victim);
                st.evictions += 1;
            }
        }
        st.map.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                last_used: tick,
            },
        );
        Ok(plan)
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        let st = self.state();
        PlanCacheStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            entries: st.map.len(),
            compiled_reuses: self.reuses.0.load(std::sync::atomic::Ordering::Relaxed),
        }
    }
}

/// Normalizes statement text for cache keying: whitespace runs outside
/// single-quoted string literals collapse to a single space, leading and
/// trailing whitespace drops, and a `--` comment — which, as in the lexer,
/// starts only outside a literal, runs to the end of its line and holds no
/// quote that counts — is a separator like any whitespace. Case and
/// literal contents are untouched — `'a  b'` and `'a b'` stay distinct
/// keys.
pub(crate) fn normalize(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_str = false;
    let mut pending_space = false;
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if in_str {
            out.push(c);
            in_str = c != '\'';
            continue;
        }
        let comment = c == '-' && chars.peek() == Some(&'-');
        if comment {
            chars.by_ref().find(|&c| c == '\n');
        }
        if comment || c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        out.push(c);
        in_str = c == '\'';
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_outside_strings_only() {
        assert_eq!(normalize("  SELECT   1\n+\t2  "), "SELECT 1 + 2");
        assert_eq!(normalize("SELECT 'a  b'  "), "SELECT 'a  b'");
        // Case is preserved: lowercasing would fold string literals.
        assert_eq!(normalize("select X"), "select X");
    }

    #[test]
    fn normalize_is_comment_aware() {
        // The newline that ends a comment ends it in the key too: what
        // follows is SQL in one text and comment in the other.
        let (live, dead) = ("SELECT 1 -- c\n, 2", "SELECT 1 -- c , 2");
        assert_eq!(normalize(live), "SELECT 1 , 2");
        assert_eq!(normalize(dead), "SELECT 1");
        // A quote inside a comment opens no literal.
        let (wide, narrow) = ("-- it's\nSELECT 'a  b'", "-- it's\nSELECT 'a b'");
        assert_eq!(normalize(wide), "SELECT 'a  b'");
        assert_eq!(normalize(narrow), "SELECT 'a b'");
        // `--` inside a literal is text, and a comment separates tokens.
        assert_eq!(normalize("SELECT '--x'  -- y"), "SELECT '--x'");
        assert_eq!(normalize("SELECT 1--c\n+ 2"), "SELECT 1 + 2");
        assert_eq!(normalize("SELECT 'it''s  --'"), "SELECT 'it''s  --'");

        // Either order on one cache: each text keeps its own parse.
        for pair in [[live, dead], [dead, live], [wide, narrow], [narrow, wide]] {
            let cache = PlanCache::new(8);
            for sql in pair {
                let cached = cache.get_or_parse(sql).unwrap();
                assert_eq!(*cached.stmts, parse(sql).unwrap(), "{sql:?} after {pair:?}");
            }
            assert_eq!(cache.stats().misses, 2, "{pair:?} shared a key");
        }
    }

    #[test]
    fn hit_miss_and_shared_parse() {
        let cache = PlanCache::new(8);
        let a = cache.get_or_parse("SELECT 1 + 2").unwrap();
        let b = cache.get_or_parse("  SELECT\t1 + 2 ").unwrap();
        assert!(Arc::ptr_eq(&a.stmts, &b.stmts), "same normalized text");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = PlanCache::new(8);
        assert!(cache.get_or_parse("SELEKT nope nope").is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        cache.get_or_parse("SELECT 1").unwrap();
        cache.get_or_parse("SELECT 2").unwrap();
        cache.get_or_parse("SELECT 1").unwrap(); // refresh 1
        cache.get_or_parse("SELECT 3").unwrap(); // evicts 2
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // 1 survived (refreshed), 2 was the victim.
        let before = cache.stats().hits;
        cache.get_or_parse("SELECT 1").unwrap();
        assert_eq!(cache.stats().hits, before + 1);
        cache.get_or_parse("SELECT 2").unwrap();
        assert_eq!(cache.stats().misses, 4, "2 re-parsed after eviction");
    }

    #[test]
    fn var_bearing_selects_are_not_plan_cacheable() {
        let cache = PlanCache::new(8);
        let with_var = cache
            .get_or_parse("SELECT v1 + @x FROM t WHERE v1 > 0")
            .unwrap();
        assert!(!with_var.statements().next().unwrap().1.cacheable);
        let without = cache.get_or_parse("SELECT v1 + 1 FROM t").unwrap();
        assert!(without.statements().next().unwrap().1.cacheable);
        let var_in_where = cache
            .get_or_parse("SELECT v1 FROM t WHERE v1 > @lo")
            .unwrap();
        assert!(!var_in_where.statements().next().unwrap().1.cacheable);
        // DML match phases plan like SELECTs: var-free ones keep theirs.
        for (sql, cacheable) in [
            ("DELETE FROM t WHERE v1 > 1", true),
            ("DELETE FROM t WHERE v1 > @lo", false),
            ("UPDATE t SET v1 = v1 + 1 WHERE v1 > 1", true),
            ("UPDATE t SET v1 = @x WHERE v1 > 1", false),
            ("DECLARE @x BIGINT = 1", false),
        ] {
            let plan = cache.get_or_parse(sql).unwrap();
            assert_eq!(
                plan.statements().next().unwrap().1.cacheable,
                cacheable,
                "{sql}"
            );
        }
    }
}
