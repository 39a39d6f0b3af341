//! `scan_udf`: everything the batch planner hands to the row interpreter.
//!
//! Table 1 Q4 and Q5, `GROUP BY` with and without an array accessor, the
//! `VectorAvg` UDA and `SUM(Norm2(flux))` over long arrays, each cold. The
//! row interpreter, the UDF registry and array binding, header decode and
//! the aggregation states do the work. Five-element vectors make the call
//! overhead dominate and 960-element spectra make the array operation
//! dominate, which is the split of the paper's 7.1. (960, not 1024: a
//! short-class array must fit 8000 bytes, and keeping the spectra in-row
//! keeps LOB reads out of this workload.)

use super::{
    bulk_load, cold_sql, exact_sum, id_blob_schema, new_db, user_bytes_of, TONE_USER_BYTES,
};
use crate::cycle::{Built, Expect, Plan};
use crate::gen::{self, KeyedRows, Sizes};
use sqlarray_core::build::short_vector;
use sqlarray_engine::Value;
use sqlarray_storage::RowValue;

pub const Q2: &str = "SELECT COUNT(*) FROM Tvector WITH (NOLOCK)";
const Q4: &str = "SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)";
const Q5: &str = "SELECT SUM(dbo.EmptyFunction(v, 0)) FROM Tvector WITH (NOLOCK)";
const GRP_ITEM: &str =
    "SELECT id % 4, SUM(floatarray.Item_1(v, 1)) FROM Tvector WITH (NOLOCK) GROUP BY id % 4";
const GRP_SCALAR: &str =
    "SELECT id % 4, COUNT(*), MIN(id), MAX(id) FROM Tvector WITH (NOLOCK) GROUP BY id % 4";
const UDA_VAVG: &str =
    "SELECT id % 2, FloatArray.VectorAvg(v) FROM Tvector WITH (NOLOCK) GROUP BY id % 2";
const ARR_NORM: &str = "SELECT SUM(FloatArray.Norm2(flux)) FROM Tspectra WITH (NOLOCK)";

fn spectrum_row(seed: u64, k: usize, sizes: &Sizes) -> (i64, Vec<RowValue>) {
    let flux = gen::spectrum(seed, k, sizes.spectra_len);
    let blob = short_vector(&flux)
        .expect("spectrum fits the short class")
        .into_blob();
    (
        k as i64,
        vec![RowValue::I64(k as i64), RowValue::Bytes(blob)],
    )
}

fn spectra_rows(seed: u64, sizes: &Sizes) -> KeyedRows {
    (0..sizes.spectra_rows)
        .map(|k| spectrum_row(seed, k, sizes))
        .collect()
}

pub fn build(seed: u64, sizes: &Sizes) -> Built {
    let mut built = new_db(sizes);
    built
        .db
        .create_table("Tvector", id_blob_schema("v"))
        .expect("fresh database");
    built
        .db
        .create_table("Tspectra", id_blob_schema("flux"))
        .expect("fresh database");
    let comps = gen::components(seed, sizes.udf_rows);
    bulk_load(&mut built, "Tvector", &gen::tvector_rows(&comps));
    bulk_load(&mut built, "Tspectra", &spectra_rows(seed, sizes));
    built.db.commit();
    built
}

pub fn plan(seed: u64, sizes: &Sizes) -> Plan {
    let comps = gen::components(seed, sizes.udf_rows);
    let n = comps.len();
    let mut plan = Plan::new(
        crate::registry::workload("scan_udf")
            .expect("declared")
            .classes,
        "Tvector",
    );
    let group = |m: usize, g: usize| comps.iter().enumerate().filter(move |(k, _)| k % m == g);

    let q4 = exact_sum(comps.iter().map(|c| c[0]));
    plan.push("q4", cold_sql(Q4), Expect::Rows(vec![vec![Value::F64(q4)]]));
    plan.push(
        "q5",
        cold_sql(Q5),
        Expect::Rows(vec![vec![Value::F64(0.0)]]),
    );

    let grp_item = (0..4.min(n))
        .map(|g| {
            vec![
                Value::I64(g as i64),
                Value::F64(exact_sum(group(4, g).map(|(_, c)| c[1]))),
            ]
        })
        .collect();
    plan.push("grp_item", cold_sql(GRP_ITEM), Expect::Groups(grp_item));

    let grp_scalar = (0..4.min(n))
        .map(|g| {
            let ids: Vec<i64> = group(4, g).map(|(k, _)| k as i64).collect();
            vec![
                Value::I64(g as i64),
                Value::I64(ids.len() as i64),
                Value::I64(ids[0]),
                Value::I64(ids[ids.len() - 1]),
            ]
        })
        .collect();
    plan.push(
        "grp_scalar",
        cold_sql(GRP_SCALAR),
        Expect::Groups(grp_scalar),
    );

    let uda = (0..2.min(n))
        .map(|g| {
            let count = group(2, g).count() as f64;
            let mean: [f64; 5] =
                std::array::from_fn(|i| exact_sum(group(2, g).map(|(_, c)| c[i])) / count);
            vec![Value::I64(g as i64), Value::Bytes(gen::vector_blob(&mean))]
        })
        .collect();
    plan.push("uda_vavg", cold_sql(UDA_VAVG), Expect::Groups(uda));

    let norms = (0..sizes.spectra_rows).map(|k| {
        let flux = gen::spectrum(seed, k, sizes.spectra_len);
        exact_sum(flux.iter().map(|x| x * x)).sqrt()
    });
    plan.push(
        "arr_norm",
        cold_sql(ARR_NORM),
        Expect::Rows(vec![vec![Value::F64(exact_sum(norms))]]),
    );

    let spectra_one = gen::user_bytes(&spectrum_row(seed, 0, sizes).1);
    plan.setup_user_bytes = TONE_USER_BYTES
        + user_bytes_of(&gen::tvector_rows(&comps[..1])) * n as u64
        + spectra_one * sizes.spectra_rows as u64;
    plan.live_user_bytes = plan.setup_user_bytes;
    plan.sample_blob = gen::vector_blob(&comps[0]);
    plan.table_rows = vec![
        ("Tvector", n as u64),
        ("Tspectra", sizes.spectra_rows as u64),
        ("Tone", 1),
    ];
    plan
}
