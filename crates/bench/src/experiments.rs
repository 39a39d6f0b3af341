//! The paper's experiments as one table.
//!
//! `EXPERIMENTS` lists E1–E9; each entry is a function from the shared
//! [`Fixture`] to a list of [`Metric`]s, and every metric says how its
//! value came to be ([`Kind`]): **measured** on this host, **modelled** by
//! counting (pages, bytes, managed calls × the testbed's constants — bit
//! for bit the same on every run and at every DOP), or **derived** by a
//! paper formula that combines the two. [`run_report`] runs the list;
//! [`Report::to_json`] renders it in the record shape of the repository
//! benchmark's `benchmark run`, with the kind carried in the unit
//! (`s`, `modelled_s`, `derived_s`).

use crate::{build_table1_db, run_table1, storage_overhead, Table1Row, TESTBED_DOP};
use sqlarray_engine::{Session, PAPER_CLR_CALL_NS};
use std::time::Instant;

/// How a metric's value came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed on this host; varies run to run.
    Measured,
    /// Counted, then priced with the testbed's constants; reproducible
    /// bit for bit.
    Modelled,
    /// A paper formula over measured and modelled inputs.
    Derived,
}
use Kind::{Derived, Measured, Modelled};

/// One named number of the report.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted name, `e<experiment>.<what>`.
    pub name: String,
    /// The value, always finite.
    pub value: f64,
    /// The unit, prefixed with the [`Kind`] for everything not measured:
    /// `s`, `modelled_s`, `derived_s`.
    pub unit: String,
    /// What the paper reports for this number; empty when it gives none.
    pub paper: &'static str,
}

/// How big the experiments run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows in each of `Tscalar` and `Tvector`.
    pub rows: i64,
    /// Tiny sizes everywhere: the whole report in seconds, debug build
    /// included (CI and the tier-1 reproducibility test run this).
    pub smoke: bool,
}

impl Scale {
    /// The smoke scale.
    pub fn smoke() -> Scale {
        Scale {
            rows: 5_000,
            smoke: true,
        }
    }

    fn pick<T>(&self, smoke: T, full: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What the experiments share: the §6.2 tables behind a session with the
/// paper's CLR charge, and the Table 1 rows (E1 lists them, E3 decomposes
/// them).
pub struct Fixture {
    /// Sizes.
    pub scale: Scale,
    /// DOP of the parallel runs.
    pub dop: usize,
    /// Session over `Tscalar`/`Tvector`, at `dop`.
    pub session: Session,
    /// Table 1, Q1–Q5.
    pub table: Vec<Table1Row>,
}

impl Fixture {
    /// Loads the tables and runs Table 1, serial and at `dop`.
    pub(crate) fn new(scale: Scale, dop: usize) -> Fixture {
        let mut session = build_table1_db(scale.rows);
        session.set_dop(dop);
        let table = run_table1(&mut session);
        Fixture {
            scale,
            dop,
            session,
            table,
        }
    }
}

/// Collects one experiment's metrics under a name prefix.
struct Sheet {
    prefix: String,
    reps: usize,
    out: Vec<Metric>,
}

impl Sheet {
    fn new(fx: &Fixture, prefix: &str) -> Sheet {
        Sheet {
            prefix: prefix.to_string(),
            reps: fx.scale.pick(1, 3),
            out: Vec::new(),
        }
    }

    /// Adds `<prefix>.<name>`.
    fn add(&mut self, kind: Kind, name: &str, value: f64, unit: &str) {
        let name = format!("{}.{name}", self.prefix);
        assert!(value.is_finite(), "{name} is {value}");
        let unit = match kind {
            Measured => unit.to_string(),
            Modelled => format!("modelled_{unit}"),
            Derived => format!("derived_{unit}"),
        };
        self.out.push(Metric {
            name,
            value,
            unit,
            paper: "",
        });
    }

    /// What the paper reports for the metric just added.
    fn paper(&mut self, note: &'static str) {
        self.out.last_mut().expect("a metric was added").paper = note;
    }

    /// Adds the best wall time of `reps` runs of `f`, in `unit` (`ms` or
    /// `us`), and hands back the last run's result.
    fn time<R>(&mut self, name: &str, unit: &str, f: impl FnMut() -> R) -> R {
        let (secs, out) = best_of(self.reps, f);
        let per_second = match unit {
            "ms" => 1e3,
            "us" => 1e6,
            _ => panic!("no time unit `{unit}`"),
        };
        self.add(Measured, name, secs * per_second, unit);
        out
    }
}

/// Best wall seconds of `reps` runs, with the last run's result.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out.expect("at least one rep"))
}

/// One experiment: a list of metrics over the shared fixture.
pub(crate) type Experiment = fn(&mut Fixture) -> Vec<Metric>;

/// The experiment ↔ paper index, E1–E9 in order: where the paper reports
/// it and what it shows, with the function that measures it here. README
/// "Benchmarks and reports" carries the same table with where each number
/// is also regression-tracked.
pub(crate) static EXPERIMENTS: [(&str, Experiment); 9] = [
    ("Table 1, Sec. 6.3", e1_table1),
    ("Sec. 6.2 storage", e2_storage),
    ("Sec. 7.1 per-call overhead", e3_call_overhead),
    ("Sec. 2.1 blob size", e4_blob_size),
    ("Sec. 4.2 UDA state serialization", e5_uda_state),
    ("Sec. 3.3 short vs max arrays", e6_short_vs_max),
    ("Sec. 3.6/5.3 SVD and FFT", e7_math_bindings),
    ("Sec. 2.2 spectra pipeline", e8_spectra),
    ("Sec. 2.3 N-body and gemm", e9_nbody_and_gemm),
];

/// One run of the whole list.
pub struct Report {
    /// What ran: sizes, DOP, the Table 1 rows (also flattened into E1).
    pub fixture: Fixture,
    /// Every experiment's title with its metrics, in list order.
    pub sections: Vec<(&'static str, Vec<Metric>)>,
}

/// Builds the fixture and runs E1–E9 over it. Panics when one of the
/// bit-identity checks the experiments carry fails.
pub fn run_report(scale: Scale, dop: usize) -> Report {
    let mut fixture = Fixture::new(scale, dop);
    let sections = EXPERIMENTS
        .iter()
        .map(|(title, run)| (*title, run(&mut fixture)))
        .collect();
    Report { fixture, sections }
}

impl Report {
    /// Every metric, in list order.
    pub fn metrics(&self) -> impl Iterator<Item = &Metric> {
        self.sections.iter().flat_map(|(_, m)| m)
    }

    /// The report as one JSON line in the `benchmark run` record shape:
    /// `workload`, `settings`, `host`, `result.metrics{name:{value,unit}}`.
    /// Names and units are plain ASCII, so Rust's string escaping
    /// coincides with JSON's.
    pub fn to_json(&self) -> String {
        let entry = |m: &Metric| {
            let Metric {
                name, value, unit, ..
            } = m;
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        };
        let metrics: Vec<String> = self.metrics().map(entry).collect();
        let Scale { rows, smoke } = self.fixture.scale;
        format!(
            "{{\"workload\": \"paper_report\", \"settings\": {{\"rows\": {rows}, \
             \"smoke\": {smoke}, \"dop\": {}, \"testbed_dop\": {TESTBED_DOP}, \
             \"clr_call_ns\": {PAPER_CLR_CALL_NS}}}, \"host\": {{\"nproc\": {}, \
             \"os\": {:?}, \"arch\": {:?}}}, \"result\": {{\"metrics\": {{{}}}}}}}",
            self.fixture.dop,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            std::env::consts::OS,
            std::env::consts::ARCH,
            metrics.join(", "),
        )
    }
}

/// E1 — Table 1: Q1–Q5 cold, each column under its kind.
fn e1_table1(fx: &mut Fixture) -> Vec<Metric> {
    const PAPER: [&str; 5] = [
        "18 s, 45 % CPU, 1150 MB/s",
        "25 s, 38 % CPU, 1150 MB/s",
        "18 s, 90 % CPU, 1150 MB/s",
        "133 s, 98 % CPU, 215 MB/s",
        "109 s, 99 % CPU, 265 MB/s",
    ];
    let mut s = Sheet::new(fx, "");
    for r in &fx.table {
        s.prefix = format!("e1.q{}", r.query);
        s.add(Measured, "wall_serial_s", r.wall_serial_seconds, "s");
        s.add(Measured, "wall_parallel_s", r.wall_parallel_seconds, "s");
        s.add(Measured, "cpu_serial_s", r.cpu_seconds, "s");
        s.add(Modelled, "sim_io_s", r.io_seconds, "s");
        s.add(Modelled, "clr_s", r.clr_seconds, "s");
        s.add(Modelled, "pages_read", r.pages_read as f64, "pages");
        s.add(Modelled, "udf_calls", r.udf_calls as f64, "count");
        s.add(Derived, "exec_s", r.exec_seconds, "s");
        s.paper(PAPER[r.query - 1]);
        s.add(Derived, "cpu_pct", r.cpu_percent, "percent");
        s.add(Derived, "io_mb_per_s", r.io_mb_per_sec, "MB/s");
    }
    s.out
}

/// E2 — §6.2: stored bytes per row of the two representations.
fn e2_storage(fx: &mut Fixture) -> Vec<Metric> {
    let (scalar, vector, ratio) = storage_overhead(&mut fx.session);
    let mut s = Sheet::new(fx, "e2");
    s.add(Modelled, "tscalar_bytes_per_row", scalar, "bytes");
    s.add(Modelled, "tvector_bytes_per_row", vector, "bytes");
    s.add(Modelled, "tvector_over_tscalar", ratio, "ratio");
    s.paper("1.43 (24-byte array header per row)");
    s.out
}

/// E3 — §7.1: what one UDF call costs, and the paper's quotients over
/// Table 1.
fn e3_call_overhead(fx: &mut Fixture) -> Vec<Metric> {
    let [q1, q2, q3, q4, q5] = &fx.table[..] else {
        panic!("Table 1 has five rows")
    };
    let calls = q5.udf_calls.max(1) as f64;
    let cpu = Table1Row::modelled_cpu_seconds;
    let mut s = Sheet::new(fx, "e3");
    // The two halves of one call: the modelled CLR transition and what the
    // in-process call measurably costs here (Q5 over Q2, same table).
    s.add(Modelled, "clr_call_ns", q5.clr_seconds * 1e9 / calls, "ns");
    s.paper("about 2 us per CLR function call");
    let in_process_ns = (q5.cpu_seconds - q2.cpu_seconds).max(0.0) * 1e9 / calls;
    s.add(Measured, "in_process_call_ns", in_process_ns, "ns");
    // The paper's own quotients, over CPU = measured + modelled CLR.
    let empty_call = (cpu(q5) - cpu(q3)).max(0.0) / calls;
    s.add(Derived, "empty_call_us", empty_call * 1e6, "us");
    s.paper("about 2 us");
    let item_extra_pct = 100.0 * (cpu(q4) - cpu(q5)) / cpu(q5);
    s.add(Derived, "item_over_empty_pct", item_extra_pct, "percent");
    s.paper("22 %");
    let udf_share_pct = 100.0 * (cpu(q5) - cpu(q1)).max(0.0) / cpu(q5);
    s.add(Derived, "udf_share_of_q5_pct", udf_share_pct, "percent");
    s.paper("at least 38 % even when the UDF is empty");
    let q2_over_q1 = q2.exec_seconds / q1.exec_seconds;
    s.add(Derived, "q2_over_q1_exec", q2_over_q1, "ratio");
    s.paper("25/18 = 1.39");
    s.out
}

/// E4 — §2.1: 8-point Lagrange interpolation against 128³ grids partitioned
/// into cubes of edge 8–64 (ghost 4), streamed stencil vs whole-blob fetch.
fn e4_blob_size(fx: &mut Fixture) -> Vec<Metric> {
    use sqlarray_storage::PageStore;
    use sqlarray_turbulence::{FetchMode, PartitionSpec, Scheme, SyntheticField, TurbulenceDb};

    let (grid_n, n_queries) = fx.scale.pick((32, 20), (128, 200));
    let blocks = fx.scale.pick(&[8, 16][..], &[8, 16, 32, 64]);
    let field = SyntheticField::new(5, 6, 3);
    let queries: Vec<[f64; 3]> = (0..n_queries)
        .map(|i| i as f64 * 0.41)
        .map(|t| [0.11 + t, 0.53 + 0.71 * t, 0.87 + 0.29 * t].map(|x| x.rem_euclid(1.0)))
        .collect();
    let mut s = Sheet::new(fx, "");
    for &block in blocks {
        let spec = PartitionSpec::new(grid_n, block, 4);
        let mut store = PageStore::new();
        let db = TurbulenceDb::build(&mut store, &field, spec).expect("build");
        // One cold batch: (wall ms, kB fetched per query).
        let mut fetch = |mode: FetchMode| {
            store.clear_cache();
            store.reset_stats();
            let t0 = Instant::now();
            db.query_particles(&mut store, &queries, Scheme::Lagrange8, mode)
                .expect("query");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let kb = store.stats().bytes_read() as f64 / n_queries as f64 / 1024.0;
            (ms, kb)
        };
        let (partial_ms, partial_kb) = fetch(FetchMode::PartialRead);
        let (full_ms, full_kb) = fetch(FetchMode::FullBlob);
        s.prefix = format!("e4.block{block}");
        s.add(Modelled, "blob_kb", spec.blob_bytes() as f64 / 1024.0, "kB");
        s.add(Modelled, "partial_kb_per_query", partial_kb, "kB");
        s.add(Modelled, "full_kb_per_query", full_kb, "kB");
        s.add(Measured, "partial_ms", partial_ms, "ms");
        s.add(Measured, "full_ms", full_ms, "ms");
        s.add(Modelled, "full_over_partial", full_kb / partial_kb, "ratio");
    }
    s.paper("6 MB blobs are overkill for an 8-point stencil; small blobs cut the I/O");
    s.out
}

/// E5 — §4.2: why the paper abandoned UDAs. `Concat` over 10 000 rows with
/// in-memory state vs the SQL Server 2008 CLR contract (state serialized
/// and deserialized between every row).
fn e5_uda_state(fx: &mut Fixture) -> Vec<Metric> {
    use sqlarray_core::{ElementType, StorageClass};
    use sqlarray_engine::aggregate::{run_uda, ConcatUda, UdaMode, UdaState};
    use sqlarray_engine::Value;

    let n = fx.scale.pick(200i32, 10_000);
    let size = sqlarray_core::build::short_vector(&[n]).expect("1-vector");
    let size = Value::Bytes(size.into_blob());
    let concat = |mode: UdaMode| {
        let mut state: Box<dyn UdaState> =
            Box::new(ConcatUda::new(ElementType::Float64, StorageClass::Max));
        let rows = (0..n).map(|i| vec![size.clone(), Value::F64(f64::from(i))]);
        run_uda(&mut state, rows, mode).expect("concat")
    };
    let mut s = Sheet::new(fx, "e5");
    let a = s.time("concat_in_memory_ms", "ms", || concat(UdaMode::InMemory));
    let b = s.time("concat_stream_serialized_ms", "ms", || {
        concat(UdaMode::StreamSerialized)
    });
    assert!(a == b, "the serialized contract changed Concat's answer");
    let ratio = s.out[1].value / s.out[0].value.max(1e-9);
    s.add(Measured, "serialized_over_in_memory", ratio, "ratio");
    s.paper("state serialization between rows was \"prohibitive\"");
    s.out
}

/// E6 — §3.3: item access on an in-page vs an out-of-page array, and an 8³
/// corner of the latter by partial LOB reads vs a full fetch.
fn e6_short_vs_max(fx: &mut Fixture) -> Vec<Metric> {
    use sqlarray_core::ops::subarray::subarray;
    use sqlarray_core::prelude::*;
    use sqlarray_storage::{blob, BlobStream, PageStore};
    use std::hint::black_box;

    // 950 doubles fit a page; 64^3 doubles (2 MB) do not.
    let short = build::short_vector(&(0..950).map(f64::from).collect::<Vec<_>>()).expect("short");
    let max = SqlArray::from_fn(StorageClass::Max, &[64, 64, 64], |idx| {
        (idx[0] + idx[1] + idx[2]) as f64
    })
    .expect("max");
    let mut s = Sheet::new(fx, "e6");
    let calls = fx.scale.pick(1_000, 100_000);
    for (name, array, idx) in [
        ("item_short_ns", &short, &[137][..]),
        ("item_max_ns", &max, &[10, 20, 30]),
    ] {
        let (secs, ()) = best_of(s.reps, || {
            for _ in 0..calls {
                black_box(array.item(black_box(idx)).expect("in bounds"));
            }
        });
        s.add(Measured, name, secs * 1e9 / calls as f64, "ns");
    }

    // An 8^3 corner through the page store: partial LOB reads vs full fetch.
    let mut store = PageStore::new();
    let id = blob::write_blob(&mut store, max.as_blob()).expect("write blob");
    let (offset, size) = ([10, 20, 30], [8, 8, 8]);
    let mut corner = |full: bool| {
        store.clear_cache();
        store.reset_stats();
        let stream = BlobStream::open(&mut store, id).expect("open");
        let mut reader = ArrayReader::open(stream).expect("header");
        let out = if full {
            subarray(&reader.read_full().expect("read"), &offset, &size, false)
        } else {
            reader.subarray(&offset, &size, false)
        };
        (out.expect("subarray"), store.stats().pages_read as f64)
    };
    let (a, partial_pages) = s.time("corner_partial_lob_us", "us", || corner(false));
    let (b, full_pages) = s.time("corner_full_lob_us", "us", || corner(true));
    assert!(a == b, "partial LOB read changed the subarray");
    s.add(Modelled, "corner_partial_lob_pages", partial_pages, "pages");
    s.add(Modelled, "corner_full_lob_pages", full_pages, "pages");
    s.paper("max arrays stream only the pages a subset touches");
    s.out
}

/// E7 — §3.6/§5.3: LAPACK-style SVD and FFT over array blobs.
fn e7_math_bindings(fx: &mut Fixture) -> Vec<Metric> {
    use sqlarray_core::{build::max_vector, Complex64, SqlArray, StorageClass};
    use sqlarray_engine::{fft_array, gesvd_array};
    use sqlarray_fft::{Direction, Plan};

    let mut s = Sheet::new(fx, "e7");
    // SVD over an array blob (zero-copy column-major hand-off): 64 x 64.
    let n = fx.scale.pick(16, 64);
    let m = SqlArray::from_fn(StorageClass::Max, &[n, n], |idx| {
        ((idx[0] * 31 + idx[1] * 17) % 13) as f64 - 6.0
    })
    .expect("matrix");
    s.time("gesvd_ms", "ms", || gesvd_array(&m).expect("gesvd"));

    // FFT through the array UDF path (blob decode + widen): 4096 points,
    // and the Bluestein path of the 100^3 Fourier cube edge (Sec. 2.3).
    let n = fx.scale.pick(256, 4096);
    for (name, n) in [("fft_array_us", n), ("fft_array_1000_bluestein_us", 1000)] {
        let wave: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let v = max_vector(&wave).expect("vector");
        s.time(name, "us", || fft_array(&v).expect("fft"));
    }

    // Planned execution: in-place kernel vs the FFTW-style aligned copy.
    let data: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i as f64 * 0.3).sin(), 0.0))
        .collect();
    let plan = Plan::new(n, Direction::Forward);
    let a = s.time("fft_plan_inplace_us", "us", || {
        let mut d = data.clone();
        plan.execute_inplace(&mut d);
        d
    });
    let mut plan_buf = Plan::new(n, Direction::Forward);
    let mut b = vec![Complex64::ZERO; n];
    s.time("fft_plan_aligned_copy_us", "us", || {
        plan_buf.execute(&data, &mut b)
    });
    assert!(a == b, "aligned-copy FFT diverged from in-place");
    s.out
}

/// E8 — §2.2: 64 synthetic spectra of 512 bins resampled to a 128-bin
/// grid, stacked, PCA-indexed (k = 6) and searched.
fn e8_spectra(fx: &mut Fixture) -> Vec<Metric> {
    use sqlarray_spectra::{
        composite, linear_grid, resample, synth_spectrum, synth_survey, SpectralClass,
        SpectrumIndex, SynthParams,
    };

    let (n_spectra, bins, grid_bins) = fx.scale.pick((8, 128, 32), (64, 512, 128));
    let params = SynthParams {
        bins,
        mask_prob: 0.01,
        ..SynthParams::default()
    };
    let survey = synth_survey(21, n_spectra, &[0.05, 0.15, 0.25], &params);
    let grid = linear_grid(4200.0, 8800.0, grid_bins);
    let items: Vec<(u64, _)> = (0u64..).zip(survey.iter().cloned()).collect();
    let probe = synth_spectrum(999, SpectralClass::Emission, 0.15, &params);

    let mut s = Sheet::new(fx, "e8");
    s.time("resample_us", "us", || {
        resample(&survey[0], &grid).expect("resample")
    });
    s.time("composite_ms", "ms", || {
        composite(&survey, &grid).expect("composite")
    });
    let index = s.time("pca_index_build_ms", "ms", || {
        SpectrumIndex::build(&items, &grid, 6).expect("index")
    });
    s.time("similar_k5_us", "us", || {
        index.similar(&probe, 5).expect("similar")
    });
    s.out
}

/// E9 — §2.3: the N-body analyses over a 6 200-particle synthetic snapshot
/// (32³ density grid), then 512² gemm and a 2 000 × 64 PCA fit.
fn e9_nbody_and_gemm(fx: &mut Fixture) -> Vec<Metric> {
    use sqlarray_linalg::{blas, pca, Matrix};
    use sqlarray_nbody::{
        build_lightcone, friends_of_friends, link_catalogs, power_spectrum, two_point_correlation,
        DensityGrid, LightconeSpec, Octree, SynthSim,
    };

    let (halos, halo_particles, background, cells) =
        fx.scale.pick((4, 50, 300, 16), (16, 200, 3000, 32));
    let sim = SynthSim {
        halos,
        halo_particles,
        background,
        ..SynthSim::default()
    };
    let (p0, p1) = (sim.snapshot(0).particles, sim.snapshot(1).particles);
    let cone = LightconeSpec {
        apex: [0.5, 0.5, 0.5],
        dir: [1.0, 0.0, 0.0],
        half_angle: 0.4,
        shell_width: 0.12,
    };
    let mut s = Sheet::new(fx, "e9");
    let grid = s.time("cic_assign_ms", "ms", || {
        DensityGrid::assign_cic(&p0, cells)
    });
    s.time("power_spectrum_ms", "ms", || power_spectrum(&grid));
    let h0 = s.time("friends_of_friends_ms", "ms", || {
        friends_of_friends(&p0, 0.01, 20)
    });
    let h1 = friends_of_friends(&p1, 0.01, 20);
    s.time("merger_link_ms", "ms", || link_catalogs(&h0, &h1, 0.5));
    s.time("two_point_correlation_ms", "ms", || {
        two_point_correlation(&p0, 0.01, 0.1)
    });
    s.time("octree_build_ms", "ms", || Octree::build(p0.clone(), 256));
    s.time("lightcone_4_shells_ms", "ms", || {
        build_lightcone(&sim, &[3, 2, 1, 0], &cone)
    });

    // The dense kernels the PCA/spectral analyses funnel through: naive vs
    // cache-blocked gemm, then a PCA fit. Blocking never changes a bit.
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let n = fx.scale.pick(64, 512); // gemm n x n
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 61) as f64 / 61.0 - 0.5);
    let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 41) % 53) as f64 / 53.0 - 0.5);
    let naive = s.time("gemm_naive_ms", "ms", || blas::gemm_naive(&a, &b));
    let blocked = s.time("gemm_blocked_ms", "ms", || blas::gemm(&a, &b));
    assert!(
        bits(&blocked) == bits(&naive),
        "blocked gemm diverged from naive gemm"
    );

    let (samples, features, k) = fx.scale.pick((200, 16, 4), (2_000, 64, 16));
    let data = Matrix::from_fn(samples, features, |i, j| {
        let t = i as f64 * 0.01;
        (j as f64 + 1.0) * t.sin() + ((i * 7 + j * 3) % 11) as f64 * 0.02
    });
    s.time("pca_fit_ms", "ms", || pca::fit(&data, k));
    s.out
}
