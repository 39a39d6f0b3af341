//! Seed-derived inputs and the sizes of each workload.
//!
//! `--seed` drives values, region offsets and key order and nothing else:
//! every size and statement count below is seed-independent, so the exact
//! metrics of two seeds differ only through page-boundary effects.

use sqlarray_core::rng::{Rng, SeedableRng, StdRng};
use sqlarray_core::{SqlArray, StorageClass};
use sqlarray_storage::RowValue;

/// Sizes of the four workloads. `full()` is what `BENCHMARK.json` runs
/// (tuned so a cycle takes 110-170 ms on a 2-vCPU box — at least 80
/// cycles in a 25 s run — and a whole run stays under 30 s); `smoke()`
/// finishes all workloads in seconds.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub smoke: bool,
    /// Buffer-pool capacity in pages (4096 = 32 MiB, the store default).
    pub pool_pages: usize,
    /// scan_native: rows in each of `Tscalar` and `Tvector`.
    pub scan_rows: usize,
    /// scan_udf: rows in `Tvector`.
    pub udf_rows: usize,
    /// scan_udf: rows and elements per row of `Tspectra`.
    pub spectra_rows: usize,
    pub spectra_len: usize,
    /// array_cutout: rows of `Tcube` and the cube edge.
    pub cube_rows: usize,
    pub cube_edge: usize,
    /// array_cutout: statements per cycle for item, corner8, pencil,
    /// full, corner8_prepared — chosen to balance the classes' time.
    pub cutouts: [usize; 5],
    /// dml_mix: resident rows of `Tmix` and fresh keys per cycle.
    pub mix_rows: usize,
    pub mix_fresh: usize,
    /// dml_mix: rows and elements per row of `Tbig`, elements per patch.
    pub big_rows: usize,
    pub big_elems: usize,
    pub patch_elems: usize,
    /// dml_mix: by-key statements per cycle and `Tbig` rows patched.
    pub upd_tag: usize,
    pub upd_vec: usize,
    pub sel_key: usize,
    pub patched_rows: usize,
    /// dml_mix: commits the fresh keys are ingested in, and range
    /// deletes that remove them.
    pub ingest_batches: usize,
    pub del_stmts: usize,
    /// Most rebuilds and recoveries one run makes (it makes as many as
    /// fit a fixed share of the timed phase), warm-up and minimum cycles.
    pub setup_reps: usize,
    pub recover_reps: usize,
    pub warmup_cycles: usize,
    pub min_cycles: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            smoke: false,
            pool_pages: 4096,
            scan_rows: 600_000,
            udf_rows: 70_000,
            spectra_rows: 6_000,
            spectra_len: 960,
            cube_rows: 8,
            cube_edge: 128,
            cutouts: [160, 80, 48, 4, 80],
            mix_rows: 20_000,
            mix_fresh: 2_000,
            big_rows: 32,
            big_elems: 131_072,
            patch_elems: 1_024,
            upd_tag: 16,
            upd_vec: 16,
            sel_key: 16,
            patched_rows: 16,
            ingest_batches: 20,
            del_stmts: 8,
            setup_reps: 12,
            recover_reps: 40,
            warmup_cycles: 2,
            min_cycles: 10,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            smoke: true,
            pool_pages: 256,
            scan_rows: 20_000,
            udf_rows: 4_000,
            spectra_rows: 200,
            spectra_len: 960,
            cube_rows: 3,
            cube_edge: 48,
            cutouts: [8, 6, 4, 2, 6],
            mix_rows: 2_000,
            mix_fresh: 200,
            big_rows: 4,
            big_elems: 16_384,
            patch_elems: 128,
            upd_tag: 3,
            upd_vec: 3,
            sel_key: 3,
            patched_rows: 2,
            ingest_batches: 4,
            del_stmts: 2,
            setup_reps: 1,
            recover_reps: 2,
            warmup_cycles: 1,
            min_cycles: 2,
        }
    }

    /// Every pinned size, for the result record.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let n = |x: usize| Json::Num(x as f64);
        Json::obj(vec![
            ("smoke", Json::Bool(self.smoke)),
            ("pool_pages", n(self.pool_pages)),
            ("scan_rows", n(self.scan_rows)),
            ("udf_rows", n(self.udf_rows)),
            ("spectra_rows", n(self.spectra_rows)),
            ("spectra_len", n(self.spectra_len)),
            ("cube_rows", n(self.cube_rows)),
            ("cube_edge", n(self.cube_edge)),
            (
                "cutouts",
                Json::Arr(self.cutouts.iter().map(|&c| n(c)).collect()),
            ),
            ("mix_rows", n(self.mix_rows)),
            ("mix_fresh", n(self.mix_fresh)),
            ("big_rows", n(self.big_rows)),
            ("big_elems", n(self.big_elems)),
            ("patch_elems", n(self.patch_elems)),
            ("upd_tag", n(self.upd_tag)),
            ("upd_vec", n(self.upd_vec)),
            ("sel_key", n(self.sel_key)),
            ("patched_rows", n(self.patched_rows)),
            ("ingest_batches", n(self.ingest_batches)),
            ("del_stmts", n(self.del_stmts)),
            ("setup_reps", n(self.setup_reps)),
            ("recover_reps", n(self.recover_reps)),
            ("warmup_cycles", n(self.warmup_cycles)),
        ])
    }
}

/// An independent generator per (seed, stream): streams keep one input
/// (say, region offsets) from shifting when another (cube values) changes
/// how many numbers it draws.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// The five components of each row of the 6.2 tables, uniform in [0, 1).
pub fn components(seed: u64, rows: usize) -> Vec<[f64; 5]> {
    let mut r = rng(seed, 1);
    (0..rows)
        .map(|_| std::array::from_fn(|_| r.gen::<f64>()))
        .collect()
}

pub type KeyedRows = Vec<(i64, Vec<RowValue>)>;

/// `Tscalar` rows: id + five float columns.
pub fn tscalar_rows(comps: &[[f64; 5]]) -> KeyedRows {
    comps
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let mut row = Vec::with_capacity(6);
            row.push(RowValue::I64(k as i64));
            row.extend(c.iter().map(|&x| RowValue::F64(x)));
            (k as i64, row)
        })
        .collect()
}

/// The in-row blob of one 5-vector.
pub fn vector_blob(c: &[f64; 5]) -> Vec<u8> {
    sqlarray_core::build::short_vector(c)
        .expect("5-vector fits the short class")
        .into_blob()
}

/// `Tvector` rows: id + one short 5-vector blob.
pub fn tvector_rows(comps: &[[f64; 5]]) -> KeyedRows {
    comps
        .iter()
        .enumerate()
        .map(|(k, c)| {
            (
                k as i64,
                vec![RowValue::I64(k as i64), RowValue::Bytes(vector_blob(c))],
            )
        })
        .collect()
}

/// One spectrum: `len` positive fluxes.
pub fn spectrum(seed: u64, row: usize, len: usize) -> Vec<f64> {
    let mut r = rng(seed, 1000 + row as u64);
    (0..len).map(|_| 0.5 + r.gen::<f64>()).collect()
}

/// One `edge`^3 max-class f64 cube with seed-drawn values.
pub fn cube(seed: u64, row: usize, edge: usize) -> SqlArray {
    let mut r = rng(seed, 2000 + row as u64);
    let data: Vec<f64> = (0..edge * edge * edge).map(|_| r.gen::<f64>()).collect();
    SqlArray::from_vec(StorageClass::Max, &[edge, edge, edge], &data).expect("cube shape is valid")
}

/// One max-class f64 vector of `Tbig`.
pub fn big_vector(seed: u64, row: usize, elems: usize) -> Vec<f64> {
    let mut r = rng(seed, 3000 + row as u64);
    (0..elems).map(|_| r.gen::<f64>()).collect()
}

/// User payload bytes of one row: what the client handed over, with no
/// key, slot, header-page or checksum overhead.
pub fn user_bytes(values: &[RowValue]) -> u64 {
    values
        .iter()
        .map(|v| match v {
            RowValue::I64(_) | RowValue::F64(_) => 8,
            RowValue::I32(_) | RowValue::F32(_) => 4,
            RowValue::Bytes(b) => b.len() as u64,
            RowValue::LobRef(_, len) => *len,
        })
        .sum()
}

/// A seed-drawn permutation of `0..n` (Fisher-Yates).
pub fn shuffled(n: usize, r: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, r.gen_range(0..=i));
    }
    v
}
