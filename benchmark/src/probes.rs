//! Outside-in layer probes: min-of-N timings of each layer's public
//! functions, called from here on the workload's own data, plus the
//! paper's 7.1 differencing. No engine code is instrumented; a probe that
//! needs data the workload does not have reports 0.

use crate::cycle::{pinned_session, run_cycle, Action, Bench, CycleOut, Plan};
use crate::gen::{self, Sizes};
use crate::harness::{min_ns_per_op, Tracer};
use crate::registry::class_metric;
use crate::workloads::{array_cutout, scan_native, scan_udf};
use sqlarray_core::batch::sum_f64;
use sqlarray_core::lifecycle::QueryCtx;
use sqlarray_core::ops::subarray::subarray;
use sqlarray_core::rng::Rng;
use sqlarray_core::{ExactSum, Header};
use sqlarray_engine::{tsql, Database, PAPER_CLR_CALL_NS};
use sqlarray_storage::wal::{self, WalRecord};
use sqlarray_storage::{blob, BatchScanOpts, DiskProfile, PageStore, RowValue, Table, PAGE_SIZE};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Metric name -> value, for one run.
#[derive(Default)]
pub struct Metrics(pub HashMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What the probes need from the run that precedes them.
pub struct ProbeCtx<'a> {
    pub seed: u64,
    pub sizes: &'a Sizes,
    pub plan: &'a Plan,
    pub bench: &'a mut Bench,
    pub tracer: &'a mut Tracer,
    /// One steady-state cycle's exact counts.
    pub acct: &'a CycleOut,
    /// Per-statement minimum of each class over the untraced cycles, us.
    pub class_min_us: &'a [f64],
    pub cycle_min_ms: f64,
    /// Rows and seconds of the set-up's load calls.
    pub rows_loaded: u64,
    pub load_seconds: f64,
}

/// Runs `f` under a `probe.<metric>` span and records its value.
fn probe(
    m: &mut Metrics,
    tracer: &mut Tracer,
    name: &'static str,
    span: &'static str,
    f: impl FnOnce() -> f64,
) {
    let v = tracer.span(span, f);
    m.set(name, v);
}

macro_rules! probe {
    ($m:expr, $t:expr, $name:literal, $f:expr) => {
        probe($m, $t, $name, concat!("probe.", $name), $f)
    };
}

pub fn run_probes(cx: &mut ProbeCtx<'_>, m: &mut Metrics) {
    counts(cx, m);
    engine_fixed_costs(cx, m);
    store_and_table(cx, m);
    blobs(cx, m);
    wal_and_recovery(cx, m);
    core_kernels(cx, m);
    differencing(cx, m);
    parallel_diagnostics(cx, m);
    attribution(cx, m);
}

/// Exact counts over the accounting cycle.
fn counts(cx: &ProbeCtx<'_>, m: &mut Metrics) {
    let (c, io) = (&cx.acct.counts, &cx.acct.io);
    for (i, class) in cx.plan.classes.iter().enumerate() {
        m.set(&class_metric(class), cx.class_min_us[i]);
    }
    m.set(
        "engine.session.rows_examined_per_row_out",
        c.rows_scanned as f64 / c.rows_out.max(1) as f64,
    );
    m.set("engine.exec.row_path_stmts", c.row_path_stmts as f64);
    m.set("engine.batch.vector_path_stmts", c.vector_path_stmts as f64);
    m.set("engine.session.batches", c.batches as f64);
    m.set(
        "engine.session.batch_fill",
        if c.batches > 0 {
            c.batch_rows_scanned as f64 / c.batches as f64
        } else {
            0.0
        },
    );
    m.set("engine.session.udf_calls", c.udf_calls as f64);
    m.set("engine.session.rows_scanned", c.rows_scanned as f64);
    m.set(
        "engine.hosting.model_clr_ms_per_stmt",
        c.udf_calls as f64 * PAPER_CLR_CALL_NS as f64 / 1e6 / cx.acct.stmts().max(1) as f64,
    );
    if let Some(i) = cx.plan.classes.iter().position(|c| *c == "corner8") {
        m.set(
            "engine.pushdown.pages_per_corner8",
            c.class_pages[i] as f64 / c.class_stmts[i].max(1) as f64,
        );
    }
    let lookups = cx.acct.plan_hits + cx.acct.plan_misses;
    m.set(
        "engine.plancache.hit_ratio",
        cx.acct.plan_hits as f64 / lookups.max(1) as f64,
    );
    m.set("engine.plancache.evictions", cx.acct.plan_evictions as f64);
    m.set("engine.sched.queued", cx.acct.sched_queued as f64);
    m.set(
        "engine.sched.wait_ms_total",
        cx.acct.sched_wait_ns as f64 / 1e6,
    );
    m.set(
        "storage.pool.hit_ratio",
        io.cache_hits as f64 / io.logical_reads().max(1) as f64,
    );
    m.set("storage.store.pages_read", io.pages_read as f64);
    m.set("storage.store.cache_hits", io.cache_hits as f64);
    m.set("storage.store.sequential_reads", io.sequential_reads as f64);
    m.set("storage.store.random_reads", io.random_reads as f64);
    m.set("storage.store.pages_written", io.pages_written as f64);
    m.set(
        "storage.store.transient_retries",
        io.transient_retries as f64,
    );
    m.set("storage.wal.records", io.wal_records as f64);
    m.set("storage.wal.bytes", io.wal_bytes as f64);
    m.set(
        "storage.table.bulk_load_rows_per_s",
        if cx.load_seconds > 0.0 {
            cx.rows_loaded as f64 / cx.load_seconds
        } else {
            0.0
        },
    );
}

/// Parse, plan-cache, admission and the empty statement: the fixed cost
/// every statement pays, which dominates sub-millisecond cutouts.
fn engine_fixed_costs(cx: &mut ProbeCtx<'_>, m: &mut Metrics) {
    let mut texts: Vec<&str> = cx
        .plan
        .stmts
        .iter()
        .filter_map(|s| match &s.action {
            Action::Sql { text, .. } => Some(text.as_str()),
            _ => None,
        })
        .take(64)
        .collect();
    texts.extend(cx.plan.prepared_sql.iter().map(String::as_str));
    probe!(m, cx.tracer, "engine.tsql.parse_us", || {
        min_ns_per_op(5, || {
            for t in &texts {
                black_box(tsql::parse(t).expect("workload text parses"));
            }
            texts.len()
        }) / 1e3
    });

    let engine = cx.bench.session.engine().clone();
    let empty = "SELECT COUNT(*) FROM Tone";
    let prepared = cx
        .bench
        .session
        .prepare(empty)
        .expect("empty statement parses");
    probe!(m, cx.tracer, "engine.plancache.hit_us", || {
        min_ns_per_op(5, || {
            for _ in 0..1000 {
                black_box(engine.plans().get_or_parse(empty).expect("cached text"));
            }
            1000
        }) / 1e3
    });
    probe!(m, cx.tracer, "engine.sched.acquire_ns", || {
        let query = QueryCtx::unbounded();
        min_ns_per_op(5, || {
            for _ in 0..1000 {
                drop(black_box(
                    engine
                        .sched()
                        .acquire(1, &query)
                        .expect("nothing else runs"),
                ));
            }
            1000
        })
    });
    let session = &mut cx.bench.session;
    probe!(m, cx.tracer, "engine.session.empty_stmt_us", || {
        min_ns_per_op(5, || {
            for _ in 0..200 {
                black_box(
                    session
                        .execute_prepared(&prepared)
                        .expect("empty statement runs"),
                );
            }
            200
        }) / 1e3
    });
}

/// The first partition of `table` when split so that a partition fits in
/// half the pool: a second pass over it is all pool hits.
fn resident_partition(
    table: &Table,
    store: &mut PageStore,
    pool_pages: usize,
) -> sqlarray_storage::ScanPartition {
    let leaves = table.data_pages(store).expect("leaf count") as usize;
    let parts = table
        .partition(store, leaves.div_ceil((pool_pages / 2).max(1)).max(1))
        .expect("partitioning reads internal pages only");
    parts
        .into_iter()
        .next()
        .expect("a table has at least one partition")
}

fn store_and_table(cx: &mut ProbeCtx<'_>, m: &mut Metrics) {
    let mut guard = cx.bench.session.db_mut();
    let db: &mut Database = &mut guard;
    let table = db
        .table(cx.plan.main_table)
        .expect("main table exists")
        .clone();
    let store = &mut db.store;
    let pool_pages = cx.sizes.pool_pages;

    let n_pages = (store.page_count() as usize).min(pool_pages / 2).max(1) as u64;
    let read_all = |store: &mut PageStore| {
        for id in 0..n_pages {
            black_box(store.read(id).expect("allocated page"));
        }
        n_pages as usize
    };
    probe!(m, cx.tracer, "storage.store.read_page_ns", || {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            store.clear_cache(); // untimed: every read below is a checksummed miss
            best = best.min(min_ns_per_op(1, || read_all(store)));
        }
        best
    });
    probe!(m, cx.tracer, "storage.pool.hit_ns", || {
        read_all(store);
        min_ns_per_op(5, || read_all(store))
    });

    let part = resident_partition(&table, store, pool_pages);
    let cols: Vec<usize> = (0..table.schema().columns.len()).collect();
    probe!(m, cx.tracer, "storage.table.scan_row_ns_per_row", || {
        let pass = || {
            let scan = store.begin_scan();
            let mut reader = store.reader(&scan, 0);
            let mut rows = 0usize;
            table
                .scan_partition(&mut reader, &part, |_, key, bytes| {
                    rows += 1;
                    black_box((key, bytes));
                    Ok(true)
                })
                .expect("row scan");
            store.finish_scan([&reader.finish()]);
            rows
        };
        pass(); // warm the pool
        min_ns_per_op(5, pass)
    });
    probe!(m, cx.tracer, "storage.table.scan_batch_ns_per_row", || {
        let mut batch =
            sqlarray_storage::row::new_batch(table.schema(), &cols).expect("columns exist");
        let opts = BatchScanOpts {
            cols: &cols,
            rows_cap: crate::cycle::BATCH_ROWS,
            leaf_aligned: false,
        };
        let mut pass = || {
            let scan = store.begin_scan();
            let mut reader = store.reader(&scan, 0);
            let mut rows = 0usize;
            table
                .scan_partition_batches(&mut reader, &part, opts, &mut batch, |_, b| {
                    rows += b.len();
                    black_box(b);
                    Ok(true)
                })
                .expect("batch scan");
            store.finish_scan([&reader.finish()]);
            rows
        };
        pass();
        min_ns_per_op(5, pass)
    });

    let mut r = gen::rng(cx.seed, 8);
    let rows = table.row_count().max(1) as i64;
    let keys: Vec<i64> = (0..256)
        .map(|_| r.gen_range(0..rows) * cx.plan.main_key_stride)
        .collect();
    probe!(m, cx.tracer, "storage.table.get_us", || {
        min_ns_per_op(5, || {
            for &k in &keys {
                black_box(table.get(store, k).expect("point lookup"));
            }
            keys.len()
        }) / 1e3
    });
    m.set(
        "storage.btree.depth",
        table.index_depth(store).expect("tree depth") as f64,
    );
}

/// The LOB id and length of the blob column of one row.
fn lob_of(table: &Table, store: &mut PageStore, key: i64) -> Option<(u64, usize)> {
    table
        .get(store, key)
        .ok()??
        .into_iter()
        .find_map(|v| match v {
            RowValue::LobRef(id, len) => Some((id, len as usize)),
            _ => None,
        })
}

fn blobs(cx: &mut ProbeCtx<'_>, m: &mut Metrics) {
    let mut guard = cx.bench.session.db_mut();
    let db: &mut Database = &mut guard;
    if let Some(table) = db.table("Tcube").cloned() {
        let store = &mut db.store;
        let (id, len) = lob_of(&table, store, 0).expect("a cube is stored out of row");
        let cube = gen::cube(cx.seed, 0, cx.sizes.cube_edge);
        let header = cube.header().clone();
        let edge = cx.sizes.cube_edge;
        let mid = edge / 2 - array_cutout::CORNER / 2;
        let corner = ([mid + 1, mid + 2, mid + 3], [array_cutout::CORNER; 3]);
        let pencil = ([mid, mid, 0], [1, 1, edge]);

        let plan_runs = |region: &([usize; 3], [usize; 3])| {
            header
                .region_byte_runs(&region.0, &region.1)
                .expect("region lies inside the cube")
        };
        let time_plan = |region: &([usize; 3], [usize; 3])| {
            min_ns_per_op(5, || {
                for _ in 0..100 {
                    black_box(plan_runs(black_box(region)));
                }
                100
            }) / 1e3
        };
        probe!(m, cx.tracer, "core.header.region_runs_us.corner8", || {
            time_plan(&corner)
        });
        probe!(m, cx.tracer, "core.header.region_runs_us.pencil", || {
            time_plan(&pencil)
        });
        m.set(
            "core.header.runs_per_region.pencil",
            plan_runs(&pencil).len() as f64,
        );

        let mut time_read = |region: &([usize; 3], [usize; 3])| {
            let runs = plan_runs(region);
            let mut out = vec![0u8; runs.iter().map(|r| r.1).sum()];
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                store.clear_cache();
                best = best.min(min_ns_per_op(1, || {
                    blob::read_blob_runs(store, id, &runs, &mut out).expect("ranged read");
                    1
                }));
            }
            black_box(&out);
            best / 1e3
        };
        probe!(m, cx.tracer, "storage.blob.read_runs_us.corner8", || {
            time_read(&corner)
        });
        probe!(m, cx.tracer, "storage.blob.read_runs_us.pencil", || {
            time_read(&pencil)
        });
        probe!(m, cx.tracer, "storage.blob.full_mb_per_s", || {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                store.clear_cache();
                best = best.min(min_ns_per_op(1, || {
                    black_box(blob::read_blob(store, id).expect("full read"));
                    1
                }));
            }
            len as f64 / (1024.0 * 1024.0) / (best / 1e9)
        });
        probe!(m, cx.tracer, "core.ops.subarray_mb_per_s", || {
            let half = edge / 2;
            let ns = min_ns_per_op(5, || {
                black_box(subarray(&cube, &[1, 1, 1], &[half; 3], false).expect("inside the cube"));
                1
            });
            (half * half * half * 8) as f64 / (1024.0 * 1024.0) / (ns / 1e9)
        });
    }
    if let Some(table) = db.table("Tbig").cloned() {
        let store = &mut db.store;
        let (id, _) = lob_of(&table, store, 0).expect("a big vector is stored out of row");
        let bytes = cx.sizes.patch_elems * 8;
        let offset = PAGE_SIZE / 2 + 40;
        let mut original = vec![0u8; bytes];
        blob::read_blob_range(store, id, offset, &mut original).expect("range read");
        let patched: Vec<u8> = original.iter().map(|b| b ^ 0x55).collect();
        let mut pages = 0u64;
        probe!(m, cx.tracer, "storage.blob.patch_us", || {
            // Patch and restore both write pages and log records; the blob
            // ends as it began.
            min_ns_per_op(10, || {
                pages = blob::update_blob_range(store, id, offset, &patched).expect("patch");
                blob::update_blob_range(store, id, offset, &original).expect("restore");
                2
            }) / 1e3
        });
        m.set("storage.blob.patch_pages_written", pages as f64);
    }
}

fn wal_and_recovery(cx: &mut ProbeCtx<'_>, m: &mut Metrics) {
    probe!(m, cx.tracer, "storage.wal.scan_mb_per_s", || {
        // A synthetic log of 256-byte physiological writes: the same frame
        // mix for every workload, so the number compares across them.
        let mut r = gen::rng(cx.seed, 9);
        let payload: Vec<u8> = (0..256).map(|_| r.gen::<u8>()).collect();
        let mut log = Vec::new();
        for lsn in 0..16_384u64 {
            let rec = WalRecord::Write {
                page: lsn % 512,
                off: 64,
                bytes: &payload,
            };
            wal::append_record(&mut log, lsn + 1, &rec);
        }
        let ns = min_ns_per_op(5, || {
            let scanned = wal::scan(black_box(&log));
            assert!(scanned.tear.is_none());
            1
        });
        log.len() as f64 / (1024.0 * 1024.0) / (ns / 1e9)
    });

    // Leave a cycle open so the crash image carries its log.
    run_cycle(cx.plan, cx.bench, None, true);
    let image = cx.bench.crash_image();
    let mut guard = cx.bench.session.db_mut();
    let db: &mut Database = &mut guard;
    let pool_pages = cx.sizes.pool_pages;
    let mut applied = 0usize;
    probe!(m, cx.tracer, "storage.store.open_ms", || {
        min_ns_per_op(3, || {
            let rec = PageStore::open_with(&image, pool_pages, DiskProfile::default())
                .expect("image opens");
            applied = rec.applied_records;
            black_box(rec);
            1
        }) / 1e6
    });
    m.set("storage.store.applied_records", applied as f64);
    drop(image);
    probe!(m, cx.tracer, "storage.store.commit_us", || {
        min_ns_per_op(5, || {
            for _ in 0..20 {
                db.commit();
            }
            20
        }) / 1e3
    });
    probe!(m, cx.tracer, "storage.store.checkpoint_ms", || {
        min_ns_per_op(3, || {
            db.store.checkpoint();
            1
        }) / 1e6
    });
}

fn core_kernels(cx: &mut ProbeCtx<'_>, m: &mut Metrics) {
    let sample = &cx.plan.sample_blob;
    probe!(m, cx.tracer, "core.header.decode_ns", || {
        min_ns_per_op(5, || {
            for _ in 0..10_000 {
                black_box(
                    Header::decode(black_box(sample)).expect("sample blob has a valid header"),
                );
            }
            10_000
        })
    });
    let mut r = gen::rng(cx.seed, 7);
    let vals: Vec<f64> = (0..65_536).map(|_| r.gen::<f64>()).collect();
    probe!(m, cx.tracer, "core.batch.sum_f64_ns_per_elem", || {
        min_ns_per_op(5, || {
            let mut sum = ExactSum::new();
            for chunk in vals.chunks(crate::cycle::BATCH_ROWS) {
                sum_f64(chunk, &mut sum);
            }
            black_box(sum.value());
            vals.len()
        })
    });
    probe!(m, cx.tracer, "core.exact.add_ns", || {
        min_ns_per_op(5, || {
            let mut sum = ExactSum::new();
            for &v in &vals {
                sum.add(v);
            }
            black_box(sum.value());
            vals.len()
        })
    });
}

/// Minimum wall of one cold ad-hoc statement, microseconds.
fn cold_stmt_min_us(bench: &mut Bench, sql: &str, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        bench.session.db().store.clear_cache();
        let t0 = Instant::now();
        black_box(bench.session.execute(sql).expect("probe statement runs"));
        best = best.min(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    best
}

/// The paper's 7.1 decomposition: per-row costs by differencing queries
/// that differ in exactly one thing.
fn differencing(cx: &mut ProbeCtx<'_>, m: &mut Metrics) {
    let class = |name: &str| {
        let i = cx.plan.class_index(name);
        // Class minima are per statement; these classes hold one each.
        cx.class_min_us[i]
    };
    let has = |name: &str| cx.plan.classes.contains(&name);
    if has("q3") {
        let rows = cx.sizes.scan_rows as f64;
        m.set(
            "storage.row.decode_col_ns",
            (class("q3") - class("q1")) * 1e3 / rows,
        );
        m.set(
            "storage.row.blob_col_ns",
            (class("q2") - class("q1")) * 1e3 / rows,
        );
    }
    if has("q4") {
        let rows = cx.sizes.udf_rows as f64;
        let (q4, q5) = (class("q4"), class("q5"));
        let q2 = cx.tracer.span("probe.engine.udf.per_call_ns", || {
            cold_stmt_min_us(cx.bench, scan_udf::Q2, 5)
        });
        m.set("engine.udf.per_call_ns", (q5 - q2) * 1e3 / rows);
        m.set("core.ops.item_ns", (q4 - q5) * 1e3 / rows);
    }
}

/// DOP 2 and two-session numbers: diagnostics only — with two shared
/// vCPUs they measure the host's scheduler as much as the engine.
fn parallel_diagnostics(cx: &mut ProbeCtx<'_>, m: &mut Metrics) {
    if !cx.plan.classes.contains(&"q3") {
        return;
    }
    let reps = if cx.sizes.smoke { 2 } else { 10 };
    let q3 = scan_native::Q3;
    let serial = cx.tracer.span("probe.core.parallel.dop2_speedup", || {
        let serial = cold_stmt_min_us(cx.bench, q3, reps);
        cx.bench.session.set_dop(2);
        let parallel = cold_stmt_min_us(cx.bench, q3, reps);
        cx.bench.session.set_dop(1);
        m.set("core.parallel.dop2_speedup", serial / parallel);
        serial
    });
    let engine = cx.bench.session.engine().clone();
    probe!(m, cx.tracer, "engine.sched.two_session_ratio", || {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            engine.db().store.clear_cache();
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let mut s = pinned_session(&engine);
                        black_box(s.execute(q3).expect("Q3 runs"));
                    });
                }
            });
            best = best.min(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        best / serial
    });
}

/// The outside-in model: what the probes above would predict for one
/// cycle, term by term, and the share of the measured minimum they miss.
fn attribution(cx: &mut ProbeCtx<'_>, m: &mut Metrics) {
    let (c, io) = (&cx.acct.counts, &cx.acct.io);
    let row_rows = (c.rows_scanned - c.batch_rows_scanned) as f64;
    let terms = [
        (
            "pages_read x read_page_ns",
            io.pages_read as f64 * m.get("storage.store.read_page_ns"),
        ),
        (
            "cache_hits x pool.hit_ns",
            io.cache_hits as f64 * m.get("storage.pool.hit_ns"),
        ),
        (
            "batch rows x scan_batch_ns_per_row",
            c.batch_rows_scanned as f64 * m.get("storage.table.scan_batch_ns_per_row"),
        ),
        (
            "row rows x scan_row_ns_per_row",
            row_rows * m.get("storage.table.scan_row_ns_per_row"),
        ),
        (
            "udf_calls x per_call_ns",
            c.udf_calls as f64 * m.get("engine.udf.per_call_ns").max(0.0),
        ),
        (
            "sql stmts x empty_stmt_us",
            c.sql_stmts as f64 * m.get("engine.session.empty_stmt_us") * 1e3,
        ),
        (
            "ad-hoc stmts x parse_us",
            c.adhoc_stmts as f64 * m.get("engine.tsql.parse_us") * 1e3,
        ),
    ];
    let measured_ns = cx.cycle_min_ms * 1e6;
    let attributed: f64 = terms.iter().map(|t| t.1).sum();
    eprintln!(
        "attribution of one cycle ({:.3} ms measured minimum):",
        cx.cycle_min_ms
    );
    for (name, ns) in terms {
        eprintln!(
            "  {:<38} {:>10.3} ms  {:>5.1} %",
            name,
            ns / 1e6,
            100.0 * ns / measured_ns
        );
    }
    let share = (1.0 - attributed / measured_ns).max(0.0);
    eprintln!(
        "  {:<38} {:>10.3} ms  {:>5.1} %",
        "unattributed",
        share * cx.cycle_min_ms,
        100.0 * share
    );
    m.set("harness.unattributed_share", share);
}
