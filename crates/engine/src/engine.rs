//! The shared engine: one database, many cheap sessions.
//!
//! [`Engine`] owns everything that is per-*database* — the page store and
//! table catalog behind a reader/writer lock, the immutable function
//! registries, the [plan cache](crate::plancache), and the
//! [admission-control scheduler](crate::sched). A
//! [`Session`] is per-*connection* state (variables, DOP,
//! batch size, hosting model) over an `Arc<Engine>`, so spawning a session
//! costs a handful of words, like handing out a connection from a pool.
//!
//! ## One way in
//!
//! [`Engine::with_registries`] is the constructor ([`Engine::new`] and
//! [`Engine::with_config`] pass it the standard function library);
//! [`Engine::session`] / [`Engine::session_with_hosting`] are the only
//! source of a [`Session`]; the session's `execute`/`query` methods are
//! the only way to run a statement. Configuration ([`crate::config`]) is
//! read when the engine is built and never again.
//!
//! ## Isolation: single writer, many snapshot readers
//!
//! Statements take the database lock at statement granularity:
//!
//! * **SELECT** runs under a **read** guard — any number of sessions scan
//!   concurrently, sharing the live buffer pool;
//! * **UPDATE/DELETE** runs under the **write** guard, commits through
//!   the WAL (statement-level autocommit), and only then releases.
//!
//! Readers therefore always observe a *committed* state — never a
//! half-applied mutation — and every page a statement reads belongs to
//! the same commit epoch ([`sqlarray_storage::ScanCtx::snapshot_epoch`]
//! names it). This is the single-writer/multi-reader epoch scheme: the
//! honest stepping stone to MVCC, where readers would keep their snapshot
//! *while* a writer proceeds instead of briefly excluding it.

use crate::aggregate::UdaRegistry;
use crate::config::{SessionDefaults, Settings};
use crate::database::Database;
use crate::hosting::HostingModel;
use crate::plancache::{PlanCache, PlanCacheStats};
use crate::sched::{DopScheduler, SchedStats};
use crate::session::Session;
use crate::udf::UdfRegistry;
use sqlarray_core::sync::{read_unpoisoned, write_unpoisoned};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Construction-time tuning for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Global scan-worker budget the scheduler arbitrates
    /// (`SQLARRAY_WORKER_BUDGET`, else the configured DOP).
    pub worker_budget: usize,
    /// Parsed batches the plan cache retains.
    pub plan_cache_capacity: usize,
    /// Statements admission control will queue before refusing further
    /// arrivals with [`crate::EngineError::Overloaded`]
    /// (`SQLARRAY_ADMISSION_QUEUE`).
    pub admission_queue_cap: usize,
}

impl Default for EngineConfig {
    /// The environment's tuning: the engine half of
    /// [`Settings::from_env`].
    fn default() -> Self {
        Settings::from_env().engine
    }
}

/// Engine-wide observability: plan-cache and scheduler counters plus the
/// store's commit epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Plan-cache counters.
    pub plans: PlanCacheStats,
    /// Admission-control counters.
    pub sched: SchedStats,
    /// Commits the store has accepted.
    pub committed_epoch: u64,
}

/// The shared query engine. See the module docs for the ownership story.
pub struct Engine {
    db: RwLock<Database>,
    udfs: UdfRegistry,
    udas: UdaRegistry,
    plans: PlanCache,
    sched: DopScheduler,
    /// What [`Session::on_engine`] copies into every session it builds.
    pub(crate) session_defaults: SessionDefaults,
}

impl Engine {
    /// An engine over `db` configured by the environment, with the
    /// standard function library.
    pub fn new(db: Database) -> Arc<Engine> {
        let (udfs, udas) = Engine::standard_registries();
        Engine::with_registries(db, Settings::from_env(), udfs, udas)
    }

    /// An engine with explicit tuning (session defaults still from the
    /// environment) and the standard function library.
    pub fn with_config(db: Database, config: EngineConfig) -> Arc<Engine> {
        let (udfs, udas) = Engine::standard_registries();
        let mut settings = Settings::from_env();
        settings.engine = config;
        Engine::with_registries(db, settings, udfs, udas)
    }

    /// The one constructor: an engine serving exactly the functions in
    /// `udfs`/`udas`, configured by `settings`. User-registered functions
    /// are the paper's §5 extension mechanism — start from
    /// [`standard_registries`](Self::standard_registries) and register
    /// more (the robustness suites add [`crate::faultfn::register_faults`]
    /// this way). The registries are immutable from here on. Nothing past
    /// this call reads the environment.
    pub fn with_registries(
        db: Database,
        settings: Settings,
        udfs: UdfRegistry,
        udas: UdaRegistry,
    ) -> Arc<Engine> {
        let config = settings.engine;
        Arc::new(Engine {
            db: RwLock::new(db),
            udfs,
            udas,
            plans: PlanCache::new(config.plan_cache_capacity),
            sched: DopScheduler::with_queue_cap(config.worker_budget, config.admission_queue_cap),
            session_defaults: settings.session,
        })
    }

    /// What a standard engine serves: every array schema, the `dbo`
    /// utilities and the math bindings as scalar functions, the array
    /// aggregates as UDAs. No fault-injection functions.
    pub fn standard_registries() -> (UdfRegistry, UdaRegistry) {
        let mut udfs = UdfRegistry::new();
        crate::arraybind::register_all(&mut udfs);
        crate::mathfn::register_math(&mut udfs);
        let mut udas = UdaRegistry::new();
        udas.register_array_aggregates();
        (udfs, udas)
    }

    /// Spawns a session that charges the paper's 2 µs per CLR call as a
    /// modelled, counted cost ([`QueryStats::udf_overhead_ns`]); nothing
    /// is executed for the charge, so the session runs exactly as fast as
    /// one built with [`HostingModel::free`].
    ///
    /// [`QueryStats::udf_overhead_ns`]: crate::QueryStats::udf_overhead_ns
    pub fn session(self: &Arc<Self>) -> Session {
        self.session_with_hosting(HostingModel::paper_clr())
    }

    /// Spawns a session with an explicit hosting model. Every session
    /// starts from the defaults this engine was constructed with.
    pub fn session_with_hosting(self: &Arc<Self>, hosting: HostingModel) -> Session {
        Session::on_engine(Arc::clone(self), hosting)
    }

    /// Read access to the database: shared with every other concurrent
    /// reader, excluded only by a writer. Hold it no longer than one
    /// statement.
    pub fn db(&self) -> RwLockReadGuard<'_, Database> {
        // Recover-on-poison ([`sqlarray_core::sync`]): the data this lock
        // guards is only reachable through committed WAL state, so
        // continuing with the inner value is sound (recovery semantics
        // are the WAL's, not the lock's) — and scan-worker panics are
        // already contained at the fan-out boundary before they could
        // unwind through a guard.
        read_unpoisoned(&self.db)
    }

    /// Exclusive write access to the database (the single-writer half of
    /// the isolation scheme).
    pub fn db_mut(&self) -> RwLockWriteGuard<'_, Database> {
        write_unpoisoned(&self.db)
    }

    /// The shared scalar-UDF registry.
    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// The shared UDA registry.
    pub fn udas(&self) -> &UdaRegistry {
        &self.udas
    }

    /// The engine's plan cache.
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// The engine's admission-control scheduler.
    pub fn sched(&self) -> &DopScheduler {
        &self.sched
    }

    /// Engine-wide counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            plans: self.plans.stats(),
            sched: self.sched.stats(),
            committed_epoch: self.db().store.committed_epoch(),
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("worker_budget", &self.sched.budget())
            .field("plans", &self.plans.stats())
            .finish()
    }
}
