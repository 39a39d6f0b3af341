//! `scan_native`: the vectorized scan path end to end.
//!
//! `Tscalar` and `Tvector` as in 6.2; one cycle is Table 1 Q1, Q2, Q3
//! plus the filter-heavy and aggregate-heavy showcase queries, each from
//! a cleared pool. Page read + checksum, batch decode, the batch kernels
//! and exact summation do nearly all the work; UDFs, LOBs, the WAL and
//! the parser do none — so a change to the row interpreter or the LOB
//! layout must leave this workload still.

use super::{
    bulk_load, cold_sql, exact_sum, id_blob_schema, new_db, user_bytes_of, TONE_USER_BYTES,
};
use crate::cycle::{Built, Expect, Plan};
use crate::gen::{self, Sizes};
use sqlarray_engine::Value;
use sqlarray_storage::{ColType, Schema};

pub const Q1: &str = "SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)";
pub const Q2: &str = "SELECT COUNT(*) FROM Tvector WITH (NOLOCK)";
pub const Q3: &str = "SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)";
const FILTER: &str = "SELECT id, v1 * v2 FROM Tscalar WITH (NOLOCK) \
                      WHERE v1 > 0.5 AND v2 < 0.5 AND v3 > 0.9";
const AGG: &str = "SELECT COUNT(*), SUM(v1 + v2), MIN(v3), MAX(v4), AVG(v5) \
                   FROM Tscalar WITH (NOLOCK) WHERE v5 > 0.25";

pub fn build(seed: u64, sizes: &Sizes) -> Built {
    let mut built = new_db(sizes);
    built
        .db
        .create_table(
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
        .expect("fresh database");
    built
        .db
        .create_table("Tvector", id_blob_schema("v"))
        .expect("fresh database");
    let comps = gen::components(seed, sizes.scan_rows);
    // One table's rows at a time, so transient row memory peaks at one table.
    bulk_load(&mut built, "Tscalar", &gen::tscalar_rows(&comps));
    bulk_load(&mut built, "Tvector", &gen::tvector_rows(&comps));
    built.db.commit();
    built
}

pub fn plan(seed: u64, sizes: &Sizes) -> Plan {
    let comps = gen::components(seed, sizes.scan_rows);
    let n = comps.len() as i64;
    let mut plan = Plan::new(
        crate::registry::workload("scan_native")
            .expect("declared")
            .classes,
        "Tscalar",
    );

    plan.push("q1", cold_sql(Q1), Expect::Rows(vec![vec![Value::I64(n)]]));
    plan.push("q2", cold_sql(Q2), Expect::Rows(vec![vec![Value::I64(n)]]));
    let sum_v1 = exact_sum(comps.iter().map(|c| c[0]));
    plan.push(
        "q3",
        cold_sql(Q3),
        Expect::Rows(vec![vec![Value::F64(sum_v1)]]),
    );

    let filtered = comps
        .iter()
        .enumerate()
        .filter(|(_, c)| c[0] > 0.5 && c[1] < 0.5 && c[2] > 0.9)
        .map(|(k, c)| vec![Value::I64(k as i64), Value::F64(c[0] * c[1])])
        .collect();
    plan.push("filter", cold_sql(FILTER), Expect::Rows(filtered));

    let kept: Vec<&[f64; 5]> = comps.iter().filter(|c| c[4] > 0.25).collect();
    let count = kept.len() as i64;
    let agg = vec![
        Value::I64(count),
        Value::F64(exact_sum(kept.iter().map(|c| c[0] + c[1]))),
        Value::F64(kept.iter().map(|c| c[2]).fold(f64::INFINITY, f64::min)),
        Value::F64(kept.iter().map(|c| c[3]).fold(f64::NEG_INFINITY, f64::max)),
        Value::F64(exact_sum(kept.iter().map(|c| c[4])) / count as f64),
    ];
    plan.push("agg", cold_sql(AGG), Expect::Rows(vec![agg]));

    plan.setup_user_bytes = TONE_USER_BYTES
        + user_bytes_of(&gen::tscalar_rows(&comps[..1])) * n as u64
        + user_bytes_of(&gen::tvector_rows(&comps[..1])) * n as u64;
    plan.live_user_bytes = plan.setup_user_bytes;
    plan.sample_blob = gen::vector_blob(&comps[0]);
    plan.table_rows = vec![("Tscalar", n as u64), ("Tvector", n as u64), ("Tone", 1)];
    plan
}
