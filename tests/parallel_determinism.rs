//! Parallel execution is an optimization, not a different query: for every
//! Table 1 query (and the other executor paths — GROUP BY, UDAs, filtered
//! projections), a parallel plan must return results **bit-identical** to
//! the serial plan. `SUM`/`AVG` guarantee this by accumulating in
//! `sqlarray_core::exact::ExactSum` (order-independent, exactly rounded);
//! ordered merges guarantee it for everything else.

use sqlarray::engine::Value;
use sqlarray_bench::{build_table1_db_with, rows_bit_identical, TABLE1_QUERIES};
use sqlarray_engine::HostingModel;

/// One definition of "bit-identical" for the whole workspace: this is the
/// same `f64`-by-bit-pattern comparison `run_table1_query` enforces on
/// every report run.
fn assert_rows_bit_identical(a: &[Vec<Value>], b: &[Vec<Value>], context: &str) {
    assert!(
        rows_bit_identical(a, b),
        "results differ ({context}):\n  serial:   {a:?}\n  parallel: {b:?}"
    );
}

#[test]
fn every_table1_query_is_dop_invariant() {
    // 5000 rows span dozens of leaf pages: DOP 3/4/8 genuinely split the
    // scan, with non-divisible chunk sizes at DOP 3.
    const ROWS: i64 = 5_000;
    for (qi, sql) in TABLE1_QUERIES.iter().enumerate() {
        let mut serial = build_table1_db_with(ROWS, HostingModel::free());
        serial.set_dop(1);
        let baseline = serial.query(sql).unwrap();
        assert_eq!(baseline.stats.dop, 1);
        for dop in [3usize, 4, 8] {
            let mut par = build_table1_db_with(ROWS, HostingModel::free());
            par.set_dop(dop);
            let got = par.query(sql).unwrap();
            assert!(
                got.stats.dop > 1,
                "Q{} did not fan out at dop {dop}",
                qi + 1
            );
            assert_rows_bit_identical(
                &baseline.rows,
                &got.rows,
                &format!("Q{} at dop {dop}", qi + 1),
            );
        }
    }
}

#[test]
fn group_by_and_projections_are_dop_invariant() {
    let queries = [
        // GROUP BY with exact-sum partials merged across workers.
        "SELECT id % 7, COUNT(*), SUM(v1), AVG(v3) FROM Tscalar GROUP BY id % 7",
        // Group keys that straddle partition boundaries.
        "SELECT id % 2, MIN(v2), MAX(v2) FROM Tscalar GROUP BY id % 2",
        // Filtered ordered projection with TOP.
        "SELECT TOP 13 id, v1 * v2 FROM Tscalar WHERE id % 5 = 0",
        // UDA partial-state merge (VectorAvg partials combine exactly on
        // these finite inputs).
        "SELECT id % 2, FloatArrayMax.VectorAvg(v) FROM Tvector GROUP BY id % 2",
    ];
    for sql in queries {
        let mut serial = build_table1_db_with(3_000, HostingModel::free());
        serial.set_dop(1);
        let baseline = serial.query(sql).unwrap();
        for dop in [2usize, 5] {
            let mut par = build_table1_db_with(3_000, HostingModel::free());
            par.set_dop(dop);
            let got = par.query(sql).unwrap();
            assert_eq!(baseline.columns, got.columns);
            assert_rows_bit_identical(&baseline.rows, &got.rows, &format!("{sql} at dop {dop}"));
        }
    }
}

#[test]
fn simulated_io_accounting_is_dop_invariant() {
    // The start-of-scan residency snapshot makes the simulated disk
    // deterministic, and `PageStore::finish_scan` stitches the
    // sequential/random classification across partition boundaries — so a
    // cold scan's counters, the simulated head, and the live pool's
    // recency order are all **exactly** serial at any DOP.
    let sql = "SELECT COUNT(*) FROM Tvector WITH (NOLOCK)";
    let mut serial = build_table1_db_with(5_000, HostingModel::free());
    serial.set_dop(1);
    serial.db().store.clear_cache();
    let a = serial.query(sql).unwrap();
    for dop in [2usize, 6] {
        let mut par = build_table1_db_with(5_000, HostingModel::free());
        par.set_dop(dop);
        par.db().store.clear_cache();
        let b = par.query(sql).unwrap();
        assert_eq!(a.stats.io, b.stats.io, "IoStats diverged at dop {dop}");
        assert_eq!(
            a.stats.sim_io_seconds.to_bits(),
            b.stats.sim_io_seconds.to_bits(),
            "simulated disk seconds diverged at dop {dop}"
        );
        assert_eq!(
            serial.db().store.seek_position(),
            par.db().store.seek_position(),
            "simulated head diverged at dop {dop}"
        );
        assert_eq!(
            serial.db().store.pool().keys_mru_order(),
            par.db().store.pool().keys_mru_order(),
            "live pool state diverged at dop {dop}"
        );
    }
}

#[test]
fn linalg_kernels_are_dop_invariant() {
    // The math bindings run on the scan worker that evaluates the row —
    // the scan is the one parallel unit — so a statement calling the SVD
    // and FFT kernels answers bit-identically at every session DOP.
    let sql = "SELECT SUM(FloatArray.Item_1(FloatArray.GesvdS( \
                   FloatArray.Reshape(v, IntArray.Vector_2(5, 1))), 0)), \
               SUM(FloatArray.Item_1(FloatArray.PowerSpectrum(v), 1)) \
               FROM Tvector WITH (NOLOCK)";
    let mut serial = build_table1_db_with(3_000, HostingModel::free());
    serial.set_dop(1);
    let baseline = serial.query(sql).unwrap();
    assert!(matches!(baseline.rows[0][0], Value::F64(s) if s > 0.0));
    for dop in [2usize, 4, 8] {
        let mut par = build_table1_db_with(3_000, HostingModel::free());
        par.set_dop(dop);
        let got = par.query(sql).unwrap();
        assert!(got.stats.dop > 1, "the scan did not fan out at dop {dop}");
        assert_rows_bit_identical(&baseline.rows, &got.rows, &format!("dop {dop}"));
    }

    // The cache-blocked gemm the PCA/spectral analyses funnel through is
    // bit-identical to the naive product.
    use sqlarray::linalg::{blas, Matrix};
    let a = Matrix::from_fn(160, 130, |i, j| ((i * 7 + j * 13) % 29) as f64 - 14.0);
    let b = Matrix::from_fn(130, 96, |i, j| ((i * 11 + j * 3) % 31) as f64 - 15.0);
    let naive = blas::gemm_naive(&a, &b);
    let blocked = blas::gemm(&a, &b);
    assert!(
        blocked
            .as_slice()
            .iter()
            .zip(naive.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "blocked gemm diverged from naive"
    );
}

#[test]
fn dop_env_override_and_setter_interact_sanely() {
    let mut s = build_table1_db_with(100, HostingModel::free());
    // Whatever the environment default, the setter wins and clamps.
    s.set_dop(0);
    assert_eq!(s.dop(), 1);
    s.set_dop(16);
    assert_eq!(s.dop(), 16);
    // A 100-row table fits in one leaf page: the scan stays serial even
    // at DOP 16, and still answers correctly.
    let r = s.query("SELECT COUNT(*) FROM Tscalar").unwrap();
    assert_eq!(r.rows[0][0], Value::I64(100));
    assert_eq!(r.stats.dop, 1);
}
