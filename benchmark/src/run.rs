//! One benchmark run: set-up, warm-up, the timed phase (cycles with
//! rebuilds and recoveries spread through it), and for traced runs the
//! layer probes.

use crate::cycle::{
    run_cycle, Bench, Built, Counts, CycleOut, Plan, SlotMin, BATCH_ROWS, WORKER_BUDGET,
};
use crate::gen::Sizes;
use crate::harness::{self, Dist, Tracer};
use crate::json::Json;
use crate::probes::{run_probes, Metrics, ProbeCtx};
use crate::registry::{self, END_TO_END};
use crate::workloads::{self, Workload};
use sqlarray_engine::Database;
use sqlarray_storage::{DiskImage, PAGE_SIZE};
use std::path::PathBuf;
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where `trace.json` goes.
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Declared metrics of this trace mode, in registry order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The full record: settings, host facts, work per cycle, result.
    pub record: Json,
}

impl RunResult {
    /// The contract's result line: exactly these four keys.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit)),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Running totals of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn cycle(&mut self, c: &CycleOut) {
        self.attempted += c.attempted;
        self.failed += c.failed;
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED {what}");
        }
    }
}

/// What a phase of replayed cycles measured.
struct Phase {
    slots: SlotMin,
    /// Whole-cycle wall times, ms.
    cycles: Dist,
    last: Option<CycleOut>,
}

/// Replays the cycle until `seconds` have passed (and at least
/// `min_cycles` ran). `between` runs before every cycle with the share of
/// the phase already spent; the untraced run uses it to spread its
/// rebuilds and recoveries through the same window.
fn timed_cycles(
    plan: &Plan,
    bench: &mut Bench,
    mut tracer: Option<&mut Tracer>,
    (seconds, min_cycles): (f64, usize),
    tally: &mut Tally,
    mut between: impl FnMut(f64, &mut Tally),
) -> Phase {
    let t0 = Instant::now();
    let mut slots = SlotMin::new(plan);
    let mut totals = Vec::new();
    let mut last = None;
    loop {
        let spent = t0.elapsed().as_secs_f64() / seconds;
        if totals.len() >= min_cycles && spent >= 1.0 {
            break;
        }
        between(spent, tally);
        let c = run_cycle(plan, bench, tracer.as_deref_mut(), false);
        tally.cycle(&c);
        slots.update(&c);
        totals.push(c.total_ns() as f64 / 1e6);
        last = Some(c);
    }
    Phase {
        slots,
        cycles: Dist::new(totals),
        last,
    }
}

/// Share of the timed phase spent rebuilding the database, and recovering
/// the crash image: cheap set-ups and recoveries get more repetitions.
const SETUP_SHARE: f64 = 0.12;
const RECOVER_SHARE: f64 = 0.08;

/// How many repetitions of an operation taking `one_s` seconds fit in
/// `share` of a `seconds`-long phase: at least 3, at most `cap`.
fn reps_for(share: f64, seconds: f64, one_s: f64, cap: usize) -> usize {
    ((share * seconds / one_s) as usize).clamp(3.min(cap), cap)
}

/// Set-up and recovery, each repeated at evenly spaced points of the
/// timed phase: a minimum over samples spread through the whole window
/// survives a slow stretch that would inflate back-to-back repetitions.
struct Maintenance<'a> {
    workload: &'a Workload,
    seed: u64,
    sizes: &'a Sizes,
    plan: &'a Plan,
    /// Length of the timed phase, seconds.
    seconds: f64,
    image: DiskImage,
    setup_s: f64,
    builds: usize,
    recover_ms: f64,
    recoveries: usize,
    recovered: Option<Database>,
}

impl Maintenance<'_> {
    /// Runs whatever is due once `spent` (0..1) of the phase has passed.
    fn due(&mut self, spent: f64, tally: &mut Tally) {
        let due = |reps: usize| ((spent * reps as f64) as usize + 1).min(reps);
        let build_reps = reps_for(
            SETUP_SHARE,
            self.seconds,
            self.setup_s,
            self.sizes.setup_reps,
        );
        let recover_reps = reps_for(
            RECOVER_SHARE,
            self.seconds,
            self.recover_ms / 1e3,
            self.sizes.recover_reps,
        );
        if self.builds < due(build_reps) {
            self.builds += 1;
            let t0 = Instant::now();
            let rebuilt = (self.workload.build)(self.seed, self.sizes);
            self.setup_s = self.setup_s.min(t0.elapsed().as_secs_f64());
            drop(rebuilt);
        }
        if self.recoveries < due(recover_reps) {
            self.recoveries += 1;
            drop(self.recovered.take());
            let t0 = Instant::now();
            let db = Bench::recover(&self.image, self.sizes.pool_pages);
            self.recover_ms = self.recover_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            match db {
                Ok(db) => {
                    let rows_ok =
                        self.plan.table_rows.iter().all(|(name, rows)| {
                            db.table(name).is_some_and(|t| t.row_count() == *rows)
                        });
                    tally.check(
                        rows_ok,
                        "recovered row counts differ from the pre-crash tables",
                    );
                    self.recovered = Some(db);
                }
                Err(e) => tally.check(false, &format!("recovery failed: {e}")),
            }
        }
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let removed_env = harness::scrub_env();
    let workload = workloads::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let sizes = &args.sizes;
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut m = Metrics::default();

    let t0 = Instant::now();
    let Built {
        db,
        rows_loaded,
        load_seconds,
    } = tracer.span("setup", || (workload.build)(args.seed, sizes));
    let first_setup_s = t0.elapsed().as_secs_f64();
    let plan = (workload.plan)(args.seed, sizes);
    let setup_io = db.store.stats();
    let mut bench = Bench::new(db, &plan, sizes);

    for _ in 0..sizes.warmup_cycles {
        tally.cycle(&run_cycle(&plan, &mut bench, None, false));
    }
    // The accounting cycle: one steady-state replay whose exact counts
    // feed every count-type metric.
    let acct = run_cycle(&plan, &mut bench, None, false);
    tally.cycle(&acct);
    let stored = {
        let db = bench.session.db();
        db.store.file_bytes() - (db.store.free_pages().len() * PAGE_SIZE) as u64
    };

    let min_cycles = sizes.min_cycles;
    let phase = if args.trace {
        let untraced = timed_cycles(
            &plan,
            &mut bench,
            None,
            (args.seconds * 0.2, min_cycles),
            &mut tally,
            |_, _| {},
        );
        let traced = timed_cycles(
            &plan,
            &mut bench,
            Some(&mut tracer),
            (args.seconds * 0.2, min_cycles),
            &mut tally,
            |_, _| {},
        );
        let stmt_us = Dist::new(
            tracer
                .spans
                .iter()
                .filter(|s| s.name.starts_with("stmt."))
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        );
        let cycle_min_ms = untraced.slots.cycle_ms();
        m.set("harness.cycles", untraced.cycles.len() as f64);
        m.set("harness.cycle_p50_ms", untraced.cycles.quantile(0.5));
        m.set("harness.cycle_p90_ms", untraced.cycles.quantile(0.9));
        m.set(
            "harness.noise_ratio",
            untraced.cycles.quantile(0.5) / cycle_min_ms,
        );
        m.set("harness.stmt_p50_us", stmt_us.quantile(0.5));
        m.set("harness.stmt_p99_us", stmt_us.tail(0.99));
        m.set(
            "harness.trace_overhead_ratio",
            traced.slots.cycle_ms() / cycle_min_ms,
        );

        let class_min_us = untraced.slots.class_us(&plan);
        let mut cx = ProbeCtx {
            seed: args.seed,
            sizes,
            plan: &plan,
            bench: &mut bench,
            tracer: &mut tracer,
            acct: &acct,
            class_min_us: &class_min_us,
            cycle_min_ms,
            rows_loaded,
            load_seconds,
        };
        run_probes(&mut cx, &mut m);
        print_self_times(&tracer);
        std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
        let path = args.out_dir.join("trace.json");
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        untraced
    } else {
        // Crash with one cycle's log still open. The cycles that follow
        // are read-only or restart from their own image, so the crash
        // image can be taken before them and recovered between them.
        tally.cycle(&run_cycle(&plan, &mut bench, None, true));
        let mut maintenance = Maintenance {
            workload: &workload,
            seed: args.seed,
            sizes,
            plan: &plan,
            seconds: args.seconds,
            image: bench.crash_image(),
            setup_s: first_setup_s,
            builds: 1,
            recover_ms: f64::INFINITY,
            recoveries: 0,
            recovered: None,
        };
        let phase = timed_cycles(
            &plan,
            &mut bench,
            None,
            (args.seconds, min_cycles),
            &mut tally,
            |spent, tally| maintenance.due(spent, tally),
        );
        maintenance.due(1.0, &mut tally);
        // The recovered image must answer the whole cycle like the live one.
        let recovered = maintenance
            .recovered
            .take()
            .ok_or("no recovery succeeded")?;
        let mut replay = Bench::new(recovered, &plan, sizes);
        tally.cycle(&run_cycle(&plan, &mut replay, None, false));
        drop(replay);

        let stmts = acct.stmts().max(1) as f64;
        let (wal_bytes, user_bytes) = if plan.cycle_user_bytes > 0 {
            (acct.io.wal_bytes, plan.cycle_user_bytes)
        } else {
            (setup_io.wal_bytes, plan.setup_user_bytes)
        };
        m.set("setup_s", maintenance.setup_s);
        m.set("cycle_min_ms", phase.slots.cycle_ms());
        m.set("recover_min_ms", maintenance.recover_ms);
        m.set("pages_read_per_stmt", acct.io.pages_read as f64 / stmts);
        m.set("sim_io_ms_per_stmt", acct.sim_io_seconds * 1e3 / stmts);
        m.set(
            "wal_bytes_per_user_byte",
            wal_bytes as f64 / user_bytes as f64,
        );
        m.set(
            "stored_bytes_per_user_byte",
            stored as f64 / plan.live_user_bytes as f64,
        );
        m.set("peak_rss_mb", harness::peak_rss_mb());
        phase
    };

    let stationary = phase
        .last
        .as_ref()
        .is_some_and(|c| c.counts == acct.counts && c.io == acct.io);
    if !stationary {
        eprintln!("warning: the last timed cycle's counts differ from the accounting cycle's");
    }
    let metrics = collect(&m, args.trace)?;
    let work = work_json(&acct.counts, acct.stmts(), &phase, stationary);
    let mut result = RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        record: Json::Null,
    };
    result.record = Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Num(args.trace as u8 as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("settings", settings_json(sizes, &removed_env)),
        ("host", harness::host_facts()),
        ("work", work),
        ("result", result.result_json()),
    ]);
    Ok(result)
}

/// Picks the declared metrics of this trace mode out of `m`, in registry
/// order. A missing end-to-end metric or a non-finite value is an error;
/// a per-layer metric the workload has no data for reads 0.
fn collect(m: &Metrics, trace: bool) -> Result<Vec<(String, f64, &'static str)>, String> {
    let declared: Vec<(String, &'static str)> = if trace {
        registry::per_layer()
            .into_iter()
            .map(|l| (l.name, l.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|e| (e.name.to_string(), e.unit))
            .collect()
    };
    if let Some(stray) = m.0.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
        return Err(format!(
            "metric `{stray}` is set but not declared in the registry"
        ));
    }
    declared
        .into_iter()
        .map(|(name, unit)| {
            let value = match m.0.get(&name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            Ok((name, value, unit))
        })
        .collect()
}

/// The fixed work of one cycle (throughput = work / `cycle_min_ms`) and
/// the ungated whole-cycle statistics that show how disturbed the run was.
fn work_json(c: &Counts, stmts: u64, phase: &Phase, stationary: bool) -> Json {
    let cycle_min_ms = phase.slots.cycle_ms();
    Json::obj(vec![
        ("stmts_per_cycle", Json::Num(stmts as f64)),
        ("rows_scanned_per_cycle", Json::Num(c.rows_scanned as f64)),
        ("rows_out_per_cycle", Json::Num(c.rows_out as f64)),
        ("cycles", Json::Num(phase.cycles.len() as f64)),
        ("whole_cycle_min_ms", Json::Num(phase.cycles.min())),
        ("cycle_p50_ms", Json::Num(phase.cycles.quantile(0.5))),
        ("cycle_p90_ms", Json::Num(phase.cycles.quantile(0.9))),
        (
            "noise_ratio",
            Json::Num(phase.cycles.quantile(0.5) / cycle_min_ms),
        ),
        ("counts_stationary", Json::Bool(stationary)),
    ])
}

fn settings_json(sizes: &Sizes, removed_env: &[String]) -> Json {
    Json::obj(vec![
        ("clients", Json::Num(1.0)),
        ("dop", Json::Num(1.0)),
        ("batch_rows", Json::Num(BATCH_ROWS as f64)),
        ("hosting", Json::str("free")),
        ("worker_budget", Json::Num(WORKER_BUDGET as f64)),
        ("statement_timeout_ms", Json::Null),
        ("query_mem_bytes", Json::Num(0.0)),
        (
            "env_removed",
            Json::Arr(removed_env.iter().map(|k| Json::str(k)).collect()),
        ),
        ("sizes", sizes.to_json()),
    ])
}

/// Per span name: count, total self time, self time per span.
fn print_self_times(tracer: &Tracer) {
    eprintln!("self time by span ({} spans):", tracer.spans.len());
    for (name, count, ns) in tracer.self_times() {
        eprintln!(
            "  {:<46} {:>8} x {:>12.3} us = {:>10.3} ms",
            name,
            count,
            ns as f64 / count as f64 / 1e3,
            ns as f64 / 1e6
        );
    }
}
