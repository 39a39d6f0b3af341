//! The closed-loop cycle: a fixed statement list replayed by one client
//! at DOP 1, each statement timed on its own and checked against the
//! oracle outside the timed region.

use crate::gen::{KeyedRows, Sizes};
use crate::harness::Tracer;
use sqlarray_core::SqlArray;
use sqlarray_engine::{
    Database, Engine, EngineConfig, HostingModel, Prepared, QueryResult, QueryStats, Session, Value,
};
use sqlarray_storage::{DiskImage, DiskProfile, IoStats, PageStore};
use std::sync::Arc;
use std::time::Instant;

/// Scan workers the engine may hand out. DOP is pinned to 1; the budget
/// only matters to the two diagnostics that ask for more.
pub const WORKER_BUDGET: usize = 2;
/// Rows per column batch (the engine default, pinned).
pub const BATCH_ROWS: usize = 1024;

/// What one statement does.
pub enum Action {
    /// Ad-hoc text through `Session::execute` (plan-cache lookup, parse on
    /// miss). `cold` clears the buffer pool first, untimed, as in 6.3.
    Sql { text: String, cold: bool },
    /// `Session::execute_prepared` on `Plan::prepared[handle]` after
    /// binding `vars`.
    Prepared {
        handle: usize,
        vars: Vec<(&'static str, Value)>,
    },
    /// Row-at-a-time `Database::insert` of `rows` plus one `commit`.
    Ingest {
        table: &'static str,
        rows: KeyedRows,
    },
    /// `PageStore::checkpoint()`.
    Checkpoint,
}

/// What the oracle says a statement must return.
pub enum Expect {
    /// Exactly these rows, in order; floats compare by bit pattern.
    Rows(Vec<Vec<Value>>),
    /// These rows in any order (GROUP BY output).
    Groups(Vec<Vec<Value>>),
    /// One row, one column: the blob of this array.
    Array(Arc<SqlArray>),
    /// A DML statement changing this many rows.
    Affected(u64),
    /// Nothing to compare (ingest, checkpoint): success is enough.
    Nothing,
}

pub struct Stmt {
    /// Index into the workload's class list.
    pub class: usize,
    pub action: Action,
    pub expect: Expect,
}

/// The seed-derived, immutable half of a workload: statement list,
/// oracle expectations and payload accounting. One plan drives both the
/// live database and every recovered copy.
pub struct Plan {
    pub classes: &'static [&'static str],
    /// `stmt.<class>` span names, leaked once per plan.
    pub span_names: Vec<&'static str>,
    pub stmts: Vec<Stmt>,
    /// Texts prepared once per session, indexed by `Action::Prepared`.
    pub prepared_sql: Vec<String>,
    /// Untimed checks run after every cycle (the dml_mix model).
    pub post_cycle: Vec<(String, Expect)>,
    /// Start every cycle from the image set-up left (see
    /// [`Bench::restore`]): for cycles that are logically state-neutral
    /// but leave the pages different.
    pub restore_each_cycle: bool,
    /// User payload bytes written by set-up, by one cycle, and live at
    /// the end of a cycle.
    pub setup_user_bytes: u64,
    pub cycle_user_bytes: u64,
    pub live_user_bytes: u64,
    /// Table the scan and point-lookup probes run over, the distance
    /// between its consecutive keys, and one of its blobs.
    pub main_table: &'static str,
    pub main_key_stride: i64,
    pub sample_blob: Vec<u8>,
    /// Rows per table expected after recovery.
    pub table_rows: Vec<(&'static str, u64)>,
}

impl Plan {
    pub fn new(classes: &'static [&'static str], main_table: &'static str) -> Plan {
        Plan {
            classes,
            span_names: classes
                .iter()
                .map(|c| &*Box::leak(format!("stmt.{c}").into_boxed_str()))
                .collect(),
            stmts: Vec::new(),
            prepared_sql: Vec::new(),
            post_cycle: Vec::new(),
            restore_each_cycle: false,
            setup_user_bytes: 0,
            cycle_user_bytes: 0,
            live_user_bytes: 0,
            main_table,
            main_key_stride: 1,
            sample_blob: Vec::new(),
            table_rows: Vec::new(),
        }
    }

    pub fn class_index(&self, class: &str) -> usize {
        self.classes
            .iter()
            .position(|c| *c == class)
            .expect("class is declared in the registry")
    }

    pub fn push(&mut self, class: &str, action: Action, expect: Expect) {
        let class = self.class_index(class);
        self.stmts.push(Stmt {
            class,
            action,
            expect,
        });
    }
}

/// A database as set-up leaves it, with what set-up measured on the way.
pub struct Built {
    pub db: Database,
    /// Rows loaded and seconds spent inside the load calls alone.
    pub rows_loaded: u64,
    pub load_seconds: f64,
}

/// The mutable half: one engine, one session, pinned settings.
pub struct Bench {
    pub session: Session,
    pub prepared: Vec<Prepared>,
    pool_pages: usize,
    /// The image every cycle restarts from, when the plan asks for that.
    restore_from: Option<DiskImage>,
}

impl Bench {
    pub fn new(db: Database, plan: &Plan, sizes: &Sizes) -> Bench {
        let engine = Engine::with_config(
            db,
            EngineConfig {
                worker_budget: WORKER_BUDGET,
                ..EngineConfig::default()
            },
        );
        let session = pinned_session(&engine);
        let prepared = plan
            .prepared_sql
            .iter()
            .map(|sql| session.prepare(sql).expect("prepared text parses"))
            .collect();
        let mut bench = Bench {
            session,
            prepared,
            pool_pages: sizes.pool_pages,
            restore_from: None,
        };
        if plan.restore_each_cycle {
            bench.restore_from = Some(bench.crash_image());
        }
        bench
    }

    /// The durable state a crash right now would leave, with a commit
    /// record in its log. The catalog travels only in commit records and
    /// a checkpoint folds the log away, so an image taken right after a
    /// checkpoint (every set-up past 8 MiB auto-checkpoints inside its
    /// commit) would recover to a database without tables; one more
    /// commit puts the catalog back. If that commit itself trips the
    /// auto-checkpoint, the next one cannot.
    pub fn crash_image(&mut self) -> DiskImage {
        let mut db = self.session.db_mut();
        db.commit();
        if db.store.wal_len() == 0 {
            db.commit();
        }
        db.store.crash_image()
    }

    /// Recovers `image` the way `Database::recover` does, with the pool
    /// size pinned like the live store's.
    pub fn recover(image: &DiskImage, pool_pages: usize) -> Result<Database, String> {
        let rec = PageStore::open_with(image, pool_pages, DiskProfile::default())
            .map_err(|e| e.to_string())?;
        Database::from_recovery(rec).map_err(|e| e.to_string())
    }

    /// Puts the database back to the image taken when this bench was
    /// made (untimed), keeping engine, plan cache and prepared
    /// statements. The B-tree never reuses the space deleted records
    /// leave, so a logically state-neutral insert/delete cycle splits a
    /// few more leaves every time; restoring makes every cycle do
    /// identical physical work from a cold pool, which a minimum over
    /// cycles needs.
    fn restore(&mut self) {
        if let Some(image) = &self.restore_from {
            let db =
                Bench::recover(image, self.pool_pages).expect("the bench's own image recovers");
            *self.session.db_mut() = db;
        }
    }
}

/// A session with every knob pinned: DOP 1, 1024-row batches, free
/// hosting (the calibrated 2 us spin would re-import host noise; the CLR
/// charge is reported as a modelled count instead), no timeout, no budget.
pub fn pinned_session(engine: &Arc<Engine>) -> Session {
    let mut s = engine.session_with_hosting(HostingModel::free());
    s.set_dop(1);
    s.set_batch_rows(BATCH_ROWS);
    s.set_statement_timeout_ms(None);
    s.set_query_mem_bytes(0);
    s
}

/// Work counts of one cycle, from each statement's `QueryStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub sql_stmts: u64,
    pub adhoc_stmts: u64,
    pub rows_scanned: u64,
    pub batch_rows_scanned: u64,
    pub batches: u64,
    pub udf_calls: u64,
    pub rows_out: u64,
    pub row_path_stmts: u64,
    pub vector_path_stmts: u64,
    /// Logical page touches (hits + reads) per class.
    pub class_pages: Vec<u64>,
    pub class_stmts: Vec<u64>,
}

impl Counts {
    fn add(&mut self, class: usize, st: &QueryStats, rows_out: u64) {
        self.sql_stmts += 1;
        self.rows_scanned += st.rows_scanned;
        self.batches += st.batches;
        self.udf_calls += st.udf_calls;
        self.rows_out += rows_out + st.rows_affected;
        if st.batches > 0 {
            self.vector_path_stmts += 1;
            self.batch_rows_scanned += st.rows_scanned;
        } else {
            self.row_path_stmts += 1;
        }
        self.class_pages[class] += st.io.logical_reads();
    }
}

/// What one replay of the statement list measured.
#[derive(Default)]
pub struct CycleOut {
    /// Wall time of each executed statement, in list order. Harness
    /// checks between statements are not the system under test and are
    /// not in here.
    pub stmt_ns: Vec<u64>,
    /// Statements plus post-cycle checks.
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
    /// Store counters over the whole cycle (post-cycle checks excluded).
    pub io: IoStats,
    pub sim_io_seconds: f64,
    /// Plan-cache and admission counters over the cycle.
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    pub sched_queued: u64,
    pub sched_wait_ns: u64,
}

impl CycleOut {
    /// Statements the cycle executed.
    pub fn stmts(&self) -> u64 {
        self.stmt_ns.len() as u64
    }

    /// The cycle's wall time: the sum of its statements' times.
    pub fn total_ns(&self) -> u64 {
        self.stmt_ns.iter().sum()
    }
}

fn bits_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn rows_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| bits_equal(p, q)))
}

/// Orders GROUP BY output by its first column (an integer key here).
fn by_group_key(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let key = |r: &Vec<Value>| match r.first() {
        Some(Value::I64(k)) => *k,
        Some(Value::I32(k)) => *k as i64,
        _ => i64::MIN,
    };
    let mut sorted = rows.to_vec();
    sorted.sort_by_key(key);
    sorted
}

/// Checks one statement's outcome against the oracle.
fn meets(expect: &Expect, results: &[QueryResult]) -> bool {
    let last = results.last();
    match expect {
        Expect::Nothing => true,
        Expect::Affected(n) => last.is_some_and(|r| r.stats.rows_affected == *n),
        Expect::Rows(want) => last.is_some_and(|r| rows_equal(&r.rows, want)),
        Expect::Groups(want) => {
            last.is_some_and(|r| rows_equal(&by_group_key(&r.rows), &by_group_key(want)))
        }
        Expect::Array(a) => last.is_some_and(|r| {
            matches!(r.rows.as_slice(), [row] if matches!(row.as_slice(),
                [Value::Bytes(b)] if b.as_slice() == a.as_blob()))
        }),
    }
}

/// Reports the first few mismatches in full; a broken oracle would
/// otherwise flood the log with one line per statement.
fn report_mismatch(what: &str, expect: &Expect, got: &Result<Vec<QueryResult>, String>) {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SHOWN: AtomicU32 = AtomicU32::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) >= 5 {
        return;
    }
    let clip = |s: String| {
        if s.len() > 400 {
            format!("{}...", &s[..400])
        } else {
            s
        }
    };
    let want = match expect {
        Expect::Rows(r) | Expect::Groups(r) => clip(format!("{} rows {:?}", r.len(), r)),
        Expect::Array(a) => format!("array blob of {} bytes", a.as_blob().len()),
        Expect::Affected(n) => format!("{n} rows affected"),
        Expect::Nothing => "success".into(),
    };
    let got = match got {
        Err(e) => format!("error: {e}"),
        Ok(rs) => match rs.last() {
            None => "no result".into(),
            Some(r) => clip(format!(
                "{} rows, {} affected, {:?}",
                r.rows.len(),
                r.stats.rows_affected,
                r.rows
            )),
        },
    };
    eprintln!("MISMATCH {what}\n  want {want}\n  got  {got}");
}

/// Replays the plan's statement list once. With a tracer, every statement
/// records a `stmt.<class>` root span over `engine.plancache.prepare` and
/// `engine.session.execute_prepared` (or the storage call it makes).
/// `skip_checkpoint` leaves the cycle open so a crash image still holds
/// its WAL.
pub fn run_cycle(
    plan: &Plan,
    bench: &mut Bench,
    mut tracer: Option<&mut Tracer>,
    skip_checkpoint: bool,
) -> CycleOut {
    let n_classes = plan.classes.len();
    let mut out = CycleOut {
        stmt_ns: Vec::with_capacity(plan.stmts.len()),
        counts: Counts {
            class_pages: vec![0; n_classes],
            class_stmts: vec![0; n_classes],
            ..Counts::default()
        },
        ..CycleOut::default()
    };
    bench.restore();
    let io_before = bench.session.db().store.stats();
    let engine = Arc::clone(bench.session.engine());
    let (plans_before, sched_before) = (engine.plans().stats(), engine.sched().stats());
    for stmt in &plan.stmts {
        if skip_checkpoint && matches!(stmt.action, Action::Checkpoint) {
            continue;
        }
        if let Action::Sql { cold: true, .. } = stmt.action {
            bench.session.db().store.clear_cache();
        }
        let root = tracer
            .as_deref_mut()
            .map(|t| t.begin_stmt(plan.span_names[stmt.class]));
        let t0 = Instant::now();
        let result = execute(stmt, bench, tracer.as_deref_mut());
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), root) {
            let counts = match &result {
                Ok(rs) => rs.last().map_or(Vec::new(), |r| {
                    vec![
                        ("rows_scanned", r.stats.rows_scanned),
                        ("pages_read", r.stats.io.pages_read),
                        ("cache_hits", r.stats.io.cache_hits),
                        ("udf_calls", r.stats.udf_calls),
                        ("rows_out", r.rows.len() as u64 + r.stats.rows_affected),
                    ]
                }),
                Err(_) => vec![("failed", 1)],
            };
            t.close(id, counts);
        }
        out.stmt_ns.push(ns);
        out.counts.class_stmts[stmt.class] += 1;
        out.attempted += 1;
        if let Ok(rs) = &result {
            if matches!(stmt.action, Action::Sql { .. }) {
                out.counts.adhoc_stmts += 1;
            }
            for r in rs {
                out.counts.add(stmt.class, &r.stats, r.rows.len() as u64);
            }
        }
        let ok = result.as_ref().is_ok_and(|rs| meets(&stmt.expect, rs));
        if !ok {
            out.failed += 1;
            report_mismatch(plan.classes[stmt.class], &stmt.expect, &result);
        }
    }
    {
        let db = bench.session.db();
        out.io = db.store.stats().since(&io_before);
        out.sim_io_seconds = db.store.io_seconds_since(&io_before);
    }
    let (plans, sched) = (engine.plans().stats(), engine.sched().stats());
    out.plan_hits = plans.hits - plans_before.hits;
    out.plan_misses = plans.misses - plans_before.misses;
    out.plan_evictions = plans.evictions - plans_before.evictions;
    out.sched_queued = sched.queued - sched_before.queued;
    out.sched_wait_ns = sched.wait_nanos - sched_before.wait_nanos;
    for (sql, expect) in &plan.post_cycle {
        out.attempted += 1;
        let result = bench.session.execute(sql).map_err(|e| e.to_string());
        if !result.as_ref().is_ok_and(|rs| meets(expect, rs)) {
            out.failed += 1;
            report_mismatch(sql, expect, &result);
        }
    }
    out
}

fn execute(
    stmt: &Stmt,
    bench: &mut Bench,
    tracer: Option<&mut Tracer>,
) -> Result<Vec<QueryResult>, String> {
    let s = &mut bench.session;
    match (&stmt.action, tracer) {
        (Action::Sql { text, .. }, None) => s.execute(text).map_err(|e| e.to_string()),
        (Action::Sql { text, .. }, Some(t)) => {
            let prepared = t.span("engine.plancache.prepare", || s.prepare(text));
            let prepared = prepared.map_err(|e| e.to_string())?;
            t.span("engine.session.execute_prepared", || {
                s.execute_prepared(&prepared)
            })
            .map_err(|e| e.to_string())
        }
        (Action::Prepared { handle, vars }, tracer) => {
            for (name, v) in vars {
                s.set_var(name, v.clone());
            }
            let prepared = &bench.prepared[*handle];
            match tracer {
                None => s.execute_prepared(prepared),
                Some(t) => t.span("engine.session.execute_prepared", || {
                    s.execute_prepared(prepared)
                }),
            }
            .map_err(|e| e.to_string())
        }
        (Action::Ingest { table, rows }, tracer) => {
            let mut db = s.db_mut();
            let mut load = || -> Result<(), String> {
                for (key, values) in rows {
                    db.insert(table, *key, values).map_err(|e| e.to_string())?;
                }
                Ok(())
            };
            match tracer {
                None => {
                    load()?;
                    db.commit();
                }
                Some(t) => {
                    t.span("engine.database.insert", load)?;
                    t.span("engine.database.commit", || db.commit());
                }
            }
            Ok(Vec::new())
        }
        (Action::Checkpoint, tracer) => {
            let mut db = s.db_mut();
            match tracer {
                None => db.store.checkpoint(),
                Some(t) => t.span("storage.store.checkpoint", || db.store.checkpoint()),
            }
            Ok(Vec::new())
        }
    }
}

/// The lower envelope of the replayed cycles: each statement slot's
/// minimum wall time. Every replay does identical work, so a slot's
/// minimum is its time on an undisturbed machine, and it only needs a
/// quiet moment as long as that one statement — not a quiet window as
/// long as the whole cycle, which this host often does not offer within
/// one run.
pub struct SlotMin {
    best_ns: Vec<u64>,
}

impl SlotMin {
    pub fn new(plan: &Plan) -> SlotMin {
        SlotMin {
            best_ns: vec![u64::MAX; plan.stmts.len()],
        }
    }

    pub fn update(&mut self, cycle: &CycleOut) {
        assert_eq!(
            cycle.stmt_ns.len(),
            self.best_ns.len(),
            "a timed cycle runs every statement"
        );
        for (best, &ns) in self.best_ns.iter_mut().zip(&cycle.stmt_ns) {
            *best = (*best).min(ns);
        }
    }

    /// Sum of the slot minima: the cycle time the end-to-end metric reports.
    pub fn cycle_ms(&self) -> f64 {
        self.best_ns.iter().sum::<u64>() as f64 / 1e6
    }

    /// Mean slot minimum per statement class, microseconds.
    pub fn class_us(&self, plan: &Plan) -> Vec<f64> {
        let mut sum = vec![0u64; plan.classes.len()];
        let mut count = vec![0u64; plan.classes.len()];
        for (stmt, &ns) in plan.stmts.iter().zip(&self.best_ns) {
            sum[stmt.class] += ns;
            count[stmt.class] += 1;
        }
        sum.iter()
            .zip(&count)
            .map(|(&s, &c)| s as f64 / c.max(1) as f64 / 1e3)
            .collect()
    }
}
