//! Sessions: cheap per-connection state over a shared [`Engine`],
//! executing T-SQL batches.
//!
//! A session owns only what is genuinely per-connection — variables, DOP,
//! batch size, the hosting-cost model, UDA mode, row limit. Everything
//! heavy (store, catalog, registries, plan cache, scheduler) lives in the
//! engine and is shared by every session cloned off it.

use crate::aggregate::UdaMode;
use crate::database::Database;
use crate::engine::Engine;
use crate::exec::{
    eval_scalars, exec_delete, exec_select, exec_update, QueryResult, QueryStats, SelectOpts,
    StmtCtx, DEFAULT_ROW_LIMIT,
};
use crate::hosting::HostingModel;
use crate::plancache::{CachedPlan, SelectSlot};
use crate::tsql::Stmt;
use crate::value::{EngineError, Result, Value};
use sqlarray_core::fault::FaultPlan;
use sqlarray_core::lifecycle::{CancelHandle, QueryCtx, QueryLimits};
use std::collections::HashMap;
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};

/// A prepared statement: the batch's cached parse (and, per SELECT, UPDATE
/// and DELETE, its compiled-plan slot) pinned so repeated executions skip
/// both the cache lookup and — for var-free statements — recompilation.
/// Cheap to clone; executable from any session of the same engine.
#[derive(Clone)]
pub struct Prepared {
    plan: Arc<CachedPlan>,
}

impl Prepared {
    /// The normalized statement text this plan was cached under.
    pub fn key(&self) -> &str {
        &self.plan.key
    }
}

/// An interactive session: per-connection state over a shared [`Engine`].
///
/// [`Engine::session`] / [`Engine::session_with_hosting`] are the only way
/// to obtain one. Statement isolation is single-writer/multi-reader: see
/// the [`crate::engine`] module docs.
pub struct Session {
    engine: Arc<Engine>,
    /// CLR hosting-cost model (per-session: forks into scan workers and
    /// accumulates this session's call counters).
    pub hosting: HostingModel,
    /// How UDA state is maintained between rows.
    pub uda_mode: UdaMode,
    /// Row cap for projections without TOP.
    pub row_limit: usize,
    /// Maximum degree of parallelism for scans (≥ 1).
    dop: usize,
    /// Target rows per column batch for vectorized scans; 0 runs every
    /// statement row-at-a-time.
    batch_rows: usize,
    vars: HashMap<String, Value>,
    /// The cancellation flag every statement of this session polls;
    /// [`Session::cancel_handle`] clones it out for other threads.
    cancel: CancelHandle,
    /// Statement timeout; `None` = no deadline.
    statement_timeout_ms: Option<u64>,
    /// Per-statement memory budget in bytes; 0 = unlimited.
    query_mem_bytes: u64,
    /// Kill-matrix knob: the cancel plan each following statement's
    /// lifecycle context gets a fresh copy of ([`QueryLimits::fault`]).
    fault: Option<FaultPlan>,
    /// Measurements of the most recent *aborted* statement (cancel,
    /// timeout, budget, worker panic); `None` after a successful one.
    last_partial: Option<QueryStats>,
    /// Lifecycle context of the most recent statement — exposes its
    /// check count and charged bytes after the fact.
    last_query: Option<QueryCtx>,
}

impl Session {
    /// The one place a session is built: the engine's defaults (parsed
    /// from `SQLARRAY_*` when the engine was constructed) are copied, the
    /// environment is not consulted.
    pub(crate) fn on_engine(engine: Arc<Engine>, hosting: HostingModel) -> Session {
        let defaults = engine.session_defaults;
        Session {
            engine,
            hosting,
            uda_mode: UdaMode::InMemory,
            row_limit: DEFAULT_ROW_LIMIT,
            dop: defaults.dop,
            batch_rows: defaults.batch_rows,
            vars: HashMap::new(),
            cancel: CancelHandle::new(),
            statement_timeout_ms: defaults.statement_timeout_ms,
            query_mem_bytes: defaults.query_mem_bytes,
            fault: None,
            last_partial: None,
            last_query: None,
        }
    }

    /// The shared engine this session runs on. Clone the `Arc` to spawn
    /// concurrent sessions over the same database.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Read access to the shared database — for inspecting the store or
    /// catalog (`s.db().store.stats()`). Excludes writers; drop the guard
    /// before executing statements.
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.engine.db()
    }

    /// Exclusive access to the shared database — for loading data
    /// (`s.db_mut().bulk_insert_with_dop(...)`) or direct mutation. Drop
    /// the guard before executing statements.
    pub fn db_mut(&self) -> RwLockWriteGuard<'_, Database> {
        self.engine.db_mut()
    }

    /// The session's degree of parallelism: how many workers a scan may
    /// fan out over. Defaults to the engine's `SQLARRAY_DOP` (read when
    /// the engine was constructed), otherwise the number of available
    /// cores.
    pub fn dop(&self) -> usize {
        self.dop
    }

    /// Sets the degree of parallelism (clamped to ≥ 1). `set_dop(1)`
    /// forces serial execution; results are bit-identical at every
    /// setting.
    pub fn set_dop(&mut self, dop: usize) {
        self.dop = dop.max(1);
    }

    /// The target rows per column batch for vectorized scans. Defaults to
    /// the engine's `SQLARRAY_BATCH_ROWS`, otherwise
    /// [`sqlarray_core::batch::DEFAULT_BATCH_ROWS`]; 0 means batch
    /// execution is disabled.
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// Sets the target rows per column batch. `set_batch_rows(0)` disables
    /// the vectorized path entirely — every SELECT and every UPDATE/DELETE
    /// match phase runs the row-at-a-time interpreter; results are
    /// bit-identical at every setting.
    pub fn set_batch_rows(&mut self, rows: usize) {
        self.batch_rows = rows;
    }

    /// A cancellation handle for this session's statements. Clone-cheap
    /// and thread-safe: call [`CancelHandle::cancel`] from any thread to
    /// abort the statement currently running (or the next one to start)
    /// with [`EngineError::Cancelled`]. The session clears the flag once
    /// a statement has consumed it, so subsequent statements run.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel.clone()
    }

    /// The statement timeout, milliseconds; `None` = no deadline.
    /// Defaults to the engine's `SQLARRAY_STATEMENT_TIMEOUT_MS` (unset or
    /// 0 = none).
    pub fn statement_timeout_ms(&self) -> Option<u64> {
        self.statement_timeout_ms
    }

    /// Sets the statement timeout. A statement past its deadline aborts
    /// with [`EngineError::Timeout`] within one batch worth of work —
    /// including while it is still queued for admission.
    pub fn set_statement_timeout_ms(&mut self, ms: Option<u64>) {
        self.statement_timeout_ms = ms.filter(|&ms| ms > 0);
    }

    /// The per-statement memory budget in bytes; 0 = unlimited. Defaults
    /// to the engine's `SQLARRAY_QUERY_MEM_BYTES`.
    pub fn query_mem_bytes(&self) -> u64 {
        self.query_mem_bytes
    }

    /// Sets the per-statement memory budget. Statements whose cumulative
    /// charges (batch lanes, aggregation state, LOB materialization)
    /// exceed it abort with [`EngineError::ResourceExhausted`].
    pub fn set_query_mem_bytes(&mut self, bytes: u64) {
        self.query_mem_bytes = bytes;
    }

    /// Arms a deterministic trip point for the kill-matrix tests: each
    /// following statement polls its lifecycle under a copy of `plan`
    /// whose count starts at zero, so a
    /// [`Fault::Cancel`](sqlarray_core::fault::Fault::Cancel) plan at `at`
    /// cancels the statement at its `at`-th check, and a count-only plan
    /// counts them ([`last_query_ctx`](Self::last_query_ctx) reads the
    /// count back). `None` disarms.
    pub fn set_fault(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// Measurements of the most recent aborted statement — the partial
    /// work a cancel/timeout/budget/panic abort left behind. `None` when
    /// the last statement succeeded (its stats ride in its
    /// [`QueryResult`]) or failed before reaching the executor.
    pub fn partial_stats(&self) -> Option<&QueryStats> {
        self.last_partial.as_ref()
    }

    /// The lifecycle context of the most recent statement: its fault
    /// plan's count (when one was armed) and charged bytes.
    pub fn last_query_ctx(&self) -> Option<&QueryCtx> {
        self.last_query.as_ref()
    }

    /// Mints the lifecycle context for one statement. Minting happens at
    /// statement start so the deadline measures statement time (admission
    /// wait included), not batch time.
    fn mint_query(&mut self) -> QueryCtx {
        let query = QueryCtx::with_limits(
            self.cancel.clone(),
            QueryLimits {
                timeout_ms: self.statement_timeout_ms,
                mem_limit_bytes: self.query_mem_bytes,
                fault: self.fault.as_ref().map(FaultPlan::rearmed),
            },
        );
        self.last_partial = None;
        self.last_query = Some(query.clone());
        query
    }

    /// The statement lifecycle, start to end — every statement kind runs
    /// inside it, and nothing of a statement happens outside it: mint the
    /// [`QueryCtx`], hand `body` the engine and the [`StmtCtx`] borrowed
    /// from this session, settle the outcome. `body` takes whatever
    /// database lock its statement kind needs and drops it before
    /// returning, so a session never carries a lock between statements.
    fn statement<T>(
        &mut self,
        body: impl FnOnce(&Engine, &mut StmtCtx<'_>) -> Result<T>,
    ) -> Result<T> {
        let query = self.mint_query();
        let mut ctx = StmtCtx {
            udfs: self.engine.udfs(),
            vars: &self.vars,
            hosting: &mut self.hosting,
            query: &query,
            dop: 1,
            partial: &mut self.last_partial,
        };
        let outcome = body(&self.engine, &mut ctx);
        // A statement that reports `Cancelled` has consumed the session's
        // cancel request: clear the sticky flag so the *next* statement
        // runs instead of aborting instantly.
        if let Err(EngineError::Cancelled) = &outcome {
            self.cancel.clear();
        }
        outcome
    }

    /// A statement that scans — SELECT, UPDATE, DELETE: the lifecycle plus
    /// an admission ticket, held until `body` returns, and the session's
    /// scan settings over the statement's plan-cache `slot`. Ticket before
    /// lock: a queued session must not hold the database lock while it
    /// waits, or it would block the very writers whose release frees the
    /// budget. The admission wait itself polls the statement's lifecycle
    /// (deadline, cancel) and can refuse with a typed error.
    fn admitted<T>(
        &mut self,
        slot: &SelectSlot,
        body: impl FnOnce(&Engine, &mut StmtCtx<'_>, &SelectOpts<'_>) -> Result<T>,
    ) -> Result<T> {
        let (requested, uda_mode, row_limit, batch_rows) =
            (self.dop, self.uda_mode, self.row_limit, self.batch_rows);
        self.statement(|engine, ctx| {
            let ticket = engine.sched().acquire(requested, ctx.query)?;
            ctx.dop = ticket.granted();
            let opts = SelectOpts {
                udas: engine.udas(),
                uda_mode,
                row_limit,
                batch_rows,
                cached: slot,
            };
            body(engine, ctx, &opts)
        })
    }

    /// Reads a session variable (case-insensitive, no allocation for
    /// already-lowercase names).
    pub fn var(&self, name: &str) -> Option<&Value> {
        crate::expr::lookup_var(&self.vars, name)
    }

    /// Sets a session variable directly (bypassing SQL). Names normalize
    /// to lowercase once, here at insert.
    pub fn set_var(&mut self, name: &str, v: Value) {
        self.vars.insert(name.to_ascii_lowercase(), v);
    }

    /// Prepares a batch: parses it through the engine's plan cache and
    /// pins the result. Repeated [`execute_prepared`](Self::execute_prepared)
    /// calls skip the parser; var-free SELECTs, UPDATEs and DELETEs also
    /// reuse their compiled batch plan.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        Ok(Prepared {
            plan: self.engine.plans().get_or_parse(sql)?,
        })
    }

    /// Executes a previously prepared batch.
    pub fn execute_prepared(&mut self, prepared: &Prepared) -> Result<Vec<QueryResult>> {
        self.run_plan(&prepared.plan)
    }

    /// Executes a batch; returns the result of each SELECT, UPDATE and
    /// DELETE in order (DML results carry no rows — their
    /// `stats.rows_affected` is the row count). The parse comes from the
    /// engine's plan cache, shared with every other session.
    pub fn execute(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        let plan = self.engine.plans().get_or_parse(sql)?;
        self.run_plan(&plan)
    }

    /// Runs one cached batch, statement by statement. SELECT and DML are
    /// [`admitted`](Self::admitted); DECLARE/SET initializers run the bare
    /// [`statement`](Self::statement) lifecycle (they scan nothing, so
    /// they take no ticket).
    fn run_plan(&mut self, cached: &CachedPlan) -> Result<Vec<QueryResult>> {
        let mut results = Vec::new();
        for (stmt, slot) in cached.statements() {
            match stmt {
                Stmt::Declare { name, init } => {
                    let v = match init {
                        Some(e) => self.eval_expr(e)?,
                        None => Value::Null,
                    };
                    self.vars.insert(name.to_ascii_lowercase(), v);
                }
                Stmt::Set { name, expr } => {
                    let key = name.to_ascii_lowercase();
                    if !self.vars.contains_key(&key) {
                        return Err(EngineError::Unknown(format!(
                            "variable `@{name}` (DECLARE it first)"
                        )));
                    }
                    let v = self.eval_expr(expr)?;
                    self.vars.insert(key, v);
                }
                Stmt::Select(sel) => {
                    let result = self.admitted(slot, |engine, ctx, opts| {
                        exec_select(ctx, &engine.db(), opts, sel)
                    })?;
                    for (name, v) in &result.assignments {
                        self.vars.insert(name.to_ascii_lowercase(), v.clone());
                    }
                    results.push(result);
                }
                Stmt::Update(u) => {
                    results.push(self.run_dml(slot, |ctx, db, opts| exec_update(ctx, db, opts, u))?)
                }
                Stmt::Delete(d) => {
                    results.push(self.run_dml(slot, |ctx, db, opts| exec_delete(ctx, db, opts, d))?)
                }
            }
        }
        Ok(results)
    }

    /// Runs one mutating statement under the engine's write guard and
    /// commits before releasing it — concurrent readers blocked by the
    /// guard therefore only ever observe committed state.
    fn run_dml(
        &mut self,
        slot: &SelectSlot,
        f: impl FnOnce(&mut StmtCtx<'_>, &mut Database, &SelectOpts<'_>) -> Result<QueryResult>,
    ) -> Result<QueryResult> {
        self.admitted(slot, |engine, ctx, opts| {
            let mut db = engine.db_mut();
            let logged = db.store.stats().wal_records;
            match f(ctx, &mut db, opts) {
                // Statement-level autocommit: each DML statement is a
                // durability point, written while this session is still
                // the exclusive owner.
                Ok(result) => {
                    db.commit();
                    Ok(result)
                }
                // An aborted match phase changed no page and logged
                // nothing. Any error in the apply phase — a refused row, a
                // corrupt or unreadable page — may stop a statement that
                // has begun to write: it returns to the last commit, so no
                // later commit makes its first rows durable.
                Err(e) => {
                    if db.store.stats().wal_records != logged {
                        db.rollback()?;
                    }
                    Err(e)
                }
            }
        })
    }

    /// Executes a batch written in the §8 array-notation sugar (`@a[3]`,
    /// `v[1:4]`, `SET @a[0] = x`), translating it through
    /// [`crate::sugar::desugar`] first.
    pub fn execute_sugar(
        &mut self,
        sql: &str,
        types: &crate::sugar::SugarTypes,
    ) -> Result<Vec<QueryResult>> {
        let plain = crate::sugar::desugar(sql, types)?;
        self.execute(&plain)
    }

    /// Sugar variant of [`query`](Self::query).
    pub fn query_sugar(
        &mut self,
        sql: &str,
        types: &crate::sugar::SugarTypes,
    ) -> Result<QueryResult> {
        self.query(&crate::sugar::desugar(sql, types)?)
    }

    /// Executes a batch and returns the last SELECT's result.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)?
            .pop()
            .ok_or_else(|| EngineError::Unsupported("batch contains no SELECT".into()))
    }

    /// Executes a batch expecting a single scalar result.
    pub fn query_scalar(&mut self, sql: &str) -> Result<Value> {
        Ok(self.query(sql)?.scalar()?.clone())
    }

    /// Evaluates a standalone expression (DECLARE/SET initializers) as a
    /// statement of its own: under a read guard and a freshly minted
    /// lifecycle context, so timeouts, cancellation and the memory budget
    /// apply to initializers like to any SELECT.
    fn eval_expr(&mut self, e: &crate::expr::Expr) -> Result<Value> {
        self.statement(|engine, ctx| {
            eval_scalars(ctx, &engine.db().store, [e]).map(|mut v| v.remove(0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlarray_storage::{ColType, RowValue, Schema};

    fn session_with_tables(rows: i64) -> Session {
        let mut db = Database::new();
        db.create_table(
            "Tscalar",
            Schema::new(&[
                ("id", ColType::I64),
                ("v1", ColType::F64),
                ("v2", ColType::F64),
                ("v3", ColType::F64),
                ("v4", ColType::F64),
                ("v5", ColType::F64),
            ]),
        )
        .unwrap();
        db.create_table(
            "Tvector",
            Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
        )
        .unwrap();
        for k in 0..rows {
            let comps: Vec<f64> = (0..5).map(|i| k as f64 + i as f64 * 0.25).collect();
            let scalar_row: Vec<RowValue> = std::iter::once(RowValue::I64(k))
                .chain(comps.iter().map(|&c| RowValue::F64(c)))
                .collect();
            db.insert("Tscalar", k, &scalar_row).unwrap();
            let arr = sqlarray_core::build::short_vector(&comps).unwrap();
            db.insert(
                "Tvector",
                k,
                &[RowValue::I64(k), RowValue::Bytes(arr.into_blob())],
            )
            .unwrap();
        }
        Engine::new(db).session_with_hosting(HostingModel::free())
    }

    #[test]
    fn paper_queries_1_through_5() {
        let mut s = session_with_tables(200);
        // Q1 / Q2: COUNT(*).
        let q1 = s
            .query_scalar("SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)")
            .unwrap();
        assert_eq!(q1, Value::I64(200));
        let q2 = s
            .query_scalar("SELECT COUNT(*) FROM Tvector WITH (NOLOCK)")
            .unwrap();
        assert_eq!(q2, Value::I64(200));
        // Q3: native column sum.
        let q3 = s
            .query_scalar("SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)")
            .unwrap();
        let expected: f64 = (0..200).map(|k| k as f64).sum();
        assert_eq!(q3, Value::F64(expected));
        // Q4: sum through the array UDF.
        let q4 = s
            .query_scalar("SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)")
            .unwrap();
        assert_eq!(q4, Value::F64(expected));
        // Q5: the empty managed function.
        let q5 = s
            .query_scalar("SELECT SUM(dbo.EmptyFunction(v, 0)) FROM Tvector WITH (NOLOCK)")
            .unwrap();
        assert_eq!(q5, Value::F64(0.0));
    }

    #[test]
    fn q4_charges_one_udf_call_per_row() {
        let mut s = session_with_tables(150);
        let r = s
            .query("SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector")
            .unwrap();
        assert_eq!(r.stats.rows_scanned, 150);
        assert_eq!(r.stats.udf_calls, 150);
        // Q3 makes none.
        let r3 = s.query("SELECT SUM(v1) FROM Tscalar").unwrap();
        assert_eq!(r3.stats.udf_calls, 0);
    }

    #[test]
    fn declare_set_select_variables() {
        let mut s = session_with_tables(0);
        let results = s
            .execute(
                "DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0);\
                 SELECT FloatArray.Item_1(@a, 3)",
            )
            .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].rows[0][0], Value::F64(4.0));
        // SET without DECLARE fails.
        assert!(s.execute("SET @zzz = 1").is_err());
    }

    #[test]
    fn where_and_projection() {
        let mut s = session_with_tables(20);
        let r = s
            .query("SELECT TOP 3 id, v1 FROM Tscalar WHERE id >= 5")
            .unwrap();
        assert_eq!(r.columns, vec!["id", "v1"]);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::I64(5));
        assert_eq!(r.rows[2][0], Value::I64(7));
    }

    #[test]
    fn group_by_aggregation() {
        let mut s = session_with_tables(10);
        let r = s
            .query("SELECT id % 2, COUNT(*), SUM(v1) FROM Tscalar GROUP BY id % 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        // Insertion order: group of id=0 (even) first.
        assert_eq!(r.rows[0][1], Value::I64(5));
        assert_eq!(r.rows[1][1], Value::I64(5));
        let even: f64 = (0..10).step_by(2).map(|k| k as f64).sum();
        assert_eq!(r.rows[0][2], Value::F64(even));
    }

    #[test]
    fn min_max_avg() {
        let mut s = session_with_tables(9);
        let r = s
            .query("SELECT MIN(v1), MAX(v1), AVG(v1), COUNT(v1) FROM Tscalar")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::F64(0.0));
        assert_eq!(r.rows[0][1], Value::F64(8.0));
        assert_eq!(r.rows[0][2], Value::F64(4.0));
        assert_eq!(r.rows[0][3], Value::I64(9));
    }

    #[test]
    fn concat_uda_via_sql() {
        let mut s = session_with_tables(6);
        // Assemble all six v1 values into one vector, in scan order.
        let results = s
            .execute(
                "DECLARE @l VARBINARY(100) = IntArray.Vector_1(6);\
                 DECLARE @a VARBINARY(MAX);\
                 SELECT @a = FloatArrayMax.Concat(@l, v1) FROM Tscalar",
            )
            .unwrap();
        assert_eq!(results.len(), 1);
        let a = s.var("a").unwrap().as_array().unwrap();
        assert_eq!(a.dims(), &[6]);
        assert_eq!(
            a.to_vec::<f64>().unwrap(),
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        );
    }

    #[test]
    fn vector_avg_group_composite() {
        let mut s = session_with_tables(8);
        let r = s
            .query("SELECT id % 2, FloatArrayMax.VectorAvg(v) FROM Tvector GROUP BY id % 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let even = r.rows[0][1].as_array().unwrap();
        // Rows 0,2,4,6: v1 mean = 3.0.
        assert_eq!(even.item(&[0]).unwrap().as_f64().unwrap(), 3.0);
    }

    #[test]
    fn stats_track_io() {
        let mut s = session_with_tables(2000);
        s.db().store.clear_cache();
        let r = s.query("SELECT COUNT(*) FROM Tscalar").unwrap();
        assert!(r.stats.io.pages_read > 5);
        assert!(r.stats.sim_io_seconds > 0.0);
        assert!(r.stats.wall_seconds > 0.0);
        // Cached re-run does less physical I/O.
        let r2 = s.query("SELECT COUNT(*) FROM Tscalar").unwrap();
        assert!(r2.stats.io.pages_read < r.stats.io.pages_read);
    }

    #[test]
    fn parallel_execution_matches_serial_bit_for_bit() {
        // 3000 rows span ~30 leaf pages, so DOP 4 genuinely splits the
        // scan. Every query class must return identical rows at any DOP.
        let queries = [
            "SELECT COUNT(*) FROM Tscalar",
            "SELECT SUM(v1), AVG(v2), MIN(v3), MAX(v4), COUNT(v5) FROM Tscalar",
            "SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector",
            "SELECT id % 3, COUNT(*), SUM(v1) FROM Tscalar GROUP BY id % 3",
            "SELECT TOP 11 id, v1 + v2 FROM Tscalar WHERE id >= 100",
            "SELECT id % 2, FloatArrayMax.VectorAvg(v) FROM Tvector GROUP BY id % 2",
        ];
        for q in queries {
            let mut serial = session_with_tables(3000);
            serial.set_dop(1);
            let a = serial.query(q).unwrap();
            assert_eq!(a.stats.dop, 1);
            for dop in [2, 3, 8] {
                let mut par = session_with_tables(3000);
                par.set_dop(dop);
                let b = par.query(q).unwrap();
                assert_eq!(a.columns, b.columns);
                assert_eq!(a.rows, b.rows, "rows differ at dop {dop}: {q}");
                assert!(b.stats.dop >= 2, "dop {dop} did not fan out: {q}");
            }
        }
    }

    #[test]
    fn parallel_stats_merge_workers() {
        let mut s = session_with_tables(3000);
        s.set_dop(4);
        s.db().store.clear_cache();
        let r = s
            .query("SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector")
            .unwrap();
        assert_eq!(r.stats.rows_scanned, 3000);
        assert_eq!(r.stats.udf_calls, 3000);
        assert_eq!(r.stats.dop, 4);
        assert!(r.stats.io.pages_read > 10);
        assert!(r.stats.wall_seconds > 0.0);
        // Summed worker CPU plus the coordinator's serial part covers the
        // wall clock (up to float rounding).
        assert!(r.stats.cpu_seconds >= r.stats.wall_seconds * (1.0 - 1e-9));
        assert!(r.stats.measured_speedup() > 0.0);
    }

    #[test]
    fn parallel_scan_errors_propagate() {
        let mut s = session_with_tables(2000);
        s.set_dop(4);
        // Integer division by zero on row id = 500 hits one worker
        // mid-scan; it must surface as an error, not a panic or a partial
        // result.
        let err = s.query("SELECT id / (id - 500) FROM Tscalar");
        assert!(err.is_err());
        // The failed query must leave the session's accounting coherent:
        // the pages its successful workers read are in the pool, and the
        // next query runs normally with consistent stats.
        let r = s.query("SELECT COUNT(*) FROM Tscalar").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(2000));
        assert_eq!(r.stats.udf_calls, 0);
        assert!(r.stats.io.logical_reads() > 0);
    }

    #[test]
    fn concat_uda_is_order_preserving_under_parallelism() {
        let mut s = session_with_tables(2000);
        s.set_dop(5);
        s.execute(
            "DECLARE @l VARBINARY(100) = IntArray.Vector_1(2000);\
             DECLARE @a VARBINARY(MAX);\
             SELECT @a = FloatArrayMax.Concat(@l, v1) FROM Tscalar",
        )
        .unwrap();
        let a = s.var("a").unwrap().as_array().unwrap();
        assert_eq!(a.dims(), &[2000]);
        let vals = a.to_vec::<f64>().unwrap();
        // v1 of row k is k (session_with_tables fills k + 0·0.25).
        assert!(vals.iter().enumerate().all(|(k, &v)| v == k as f64));
    }

    #[test]
    fn bulk_insert_matches_row_inserts_through_sql() {
        // Two databases with the same logical content — one loaded row by
        // row, one bulk-loaded in parallel — must answer every query
        // identically at every DOP.
        let mut by_row = session_with_tables(2500);
        let rows: Vec<(i64, Vec<RowValue>)> = (0..2500)
            .map(|k| {
                let comps: Vec<f64> = (0..5).map(|i| k as f64 + i as f64 * 0.25).collect();
                let v: Vec<RowValue> = std::iter::once(RowValue::I64(k))
                    .chain(comps.iter().map(|&c| RowValue::F64(c)))
                    .collect();
                (k, v)
            })
            .collect();
        let mut db = Database::new();
        db.create_table(
            "Tscalar",
            Schema::new(&[
                ("id", ColType::I64),
                ("v1", ColType::F64),
                ("v2", ColType::F64),
                ("v3", ColType::F64),
                ("v4", ColType::F64),
                ("v5", ColType::F64),
            ]),
        )
        .unwrap();
        db.bulk_insert_with_dop("Tscalar", &rows, 4).unwrap();
        let mut bulk = Engine::new(db).session_with_hosting(HostingModel::free());
        for q in [
            "SELECT COUNT(*) FROM Tscalar",
            "SELECT SUM(v1), AVG(v3), MIN(v2), MAX(v5) FROM Tscalar",
            "SELECT TOP 7 id, v1 FROM Tscalar WHERE id >= 1000",
        ] {
            for dop in [1usize, 4] {
                by_row.set_dop(dop);
                bulk.set_dop(dop);
                let a = by_row.query(q).unwrap();
                let b = bulk.query(q).unwrap();
                assert_eq!(a.rows, b.rows, "{q} at dop {dop}");
            }
        }
        // Bulk loading a non-empty table errors.
        assert!(bulk
            .db_mut()
            .bulk_insert_with_dop("Tscalar", &rows, 4)
            .is_err());
    }

    #[test]
    fn unknown_names_error() {
        let mut s = session_with_tables(1);
        assert!(s.query("SELECT COUNT(*) FROM nope").is_err());
        assert!(s.query("SELECT nocol FROM Tscalar").is_err());
        assert!(s.query("SELECT no.such.fn(1)").is_err());
    }

    #[test]
    fn selects_without_from() {
        let mut s = session_with_tables(0);
        let v = s.query_scalar("SELECT 1 + 2 * 3").unwrap();
        assert_eq!(v, Value::I64(7));
    }

    #[test]
    fn prepared_statements_reuse_the_cached_plan() {
        let mut s = session_with_tables(300);
        let p = s.prepare("SELECT SUM(v1) FROM Tscalar").unwrap();
        let a = s.execute_prepared(&p).unwrap();
        let b = s.execute_prepared(&p).unwrap();
        assert_eq!(a[0].rows, b[0].rows);
        // The second execution reused the compiled batch plan.
        let stats = s.engine().stats();
        assert!(stats.plans.compiled_reuses >= 1, "{stats:?}");
        // Ad-hoc execution of the same (differently spaced) text hits the
        // parsed-plan cache rather than re-parsing.
        let hits_before = s.engine().stats().plans.hits;
        s.query("SELECT  SUM(v1)\nFROM Tscalar").unwrap();
        assert!(s.engine().stats().plans.hits > hits_before);
    }

    #[test]
    fn var_bearing_selects_compile_fresh_per_execution() {
        let mut s = session_with_tables(100);
        s.execute("DECLARE @lo FLOAT = 10.0").unwrap();
        let p = s
            .prepare("SELECT COUNT(*) FROM Tscalar WHERE v1 >= @lo")
            .unwrap();
        let a = s.execute_prepared(&p).unwrap();
        assert_eq!(a[0].rows[0][0], Value::I64(90));
        // Changing the variable must change the result: the plan embeds
        // variable values, so it is recompiled, not reused.
        s.execute("SET @lo = 50.0").unwrap();
        let b = s.execute_prepared(&p).unwrap();
        assert_eq!(b[0].rows[0][0], Value::I64(50));
    }

    #[test]
    fn sessions_share_one_engine() {
        let s = session_with_tables(50);
        let engine = std::sync::Arc::clone(s.engine());
        let mut s1 = engine.session_with_hosting(HostingModel::free());
        let mut s2 = engine.session_with_hosting(HostingModel::free());
        let a = s1.query_scalar("SELECT SUM(v1) FROM Tscalar").unwrap();
        let b = s2.query_scalar("SELECT SUM(v1) FROM Tscalar").unwrap();
        assert_eq!(a, b);
        // The second session's identical text hit the shared plan cache.
        assert!(engine.stats().plans.hits >= 1);
        // Sessions do not share variables.
        s1.set_var("x", Value::I64(1));
        assert!(s2.var("x").is_none());
        // Both admissions went through the scheduler.
        assert!(engine.stats().sched.admitted >= 2);
    }

    #[test]
    fn var_reads_are_case_insensitive_without_insert_normalization_loss() {
        let mut s = session_with_tables(0);
        s.set_var("MiXeD", Value::I64(7));
        assert_eq!(s.var("mixed"), Some(&Value::I64(7)));
        assert_eq!(s.var("MIXED"), Some(&Value::I64(7)));
        assert_eq!(s.var("MiXeD"), Some(&Value::I64(7)));
        assert!(s.var("other").is_none());
    }
}
