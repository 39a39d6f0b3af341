//! `array_cutout`: N-d region reads of stored arrays larger than the pool.
//!
//! `Tcube` holds a few 128^3 f64 max arrays (16 MiB each, 128 MiB against
//! a 32 MiB pool). One cycle mixes five statement classes, all selecting
//! one row by `WHERE id = k` with seed-drawn offsets:
//!
//! * `item` — one element;
//! * `corner8` — an 8x8x8 block, the interpolation stencil, as ad-hoc
//!   literal text (plan-cache lookup and, with more distinct texts than
//!   the cache holds, a parse every time);
//! * `corner8_prepared` — the same through `prepare` + `@vars`;
//! * `pencil` — 1x1xN along the slowest axis, the worst case for the
//!   linear layout (every element on its own page);
//! * `full` — the whole array.
//!
//! LOB pushdown, region-to-byte-run planning, vectored blob reads and
//! pool eviction do the work; scans do none. The class counts balance
//! the classes' time so no one class owns the cycle, and the
//! sub-millisecond statements expose the fixed per-statement cost.

use super::{id_blob_schema, insert_rows, new_db, TONE_USER_BYTES};
use crate::cycle::{Action, Built, Expect, Plan};
use crate::gen::{self, Sizes};
use sqlarray_core::ops::subarray::subarray;
use sqlarray_core::rng::Rng;
use sqlarray_core::SqlArray;
use sqlarray_engine::Value;
use sqlarray_storage::RowValue;
use std::sync::Arc;

/// Edge of the interpolation stencil.
pub const CORNER: usize = 8;
/// Rows reserved for whole-array reads.
const FULL_ROWS: usize = 2;
/// f64 elements per LOB chunk page, rounded up.
const PAGE_ELEMS: usize = 1024;

const CORNER_PREPARED: &str = "SELECT FloatArrayMax.Subarray(v, IntArray.Vector_3(@ox, @oy, @oz), \
                               IntArray.Vector_3(8, 8, 8), 0) FROM Tcube WHERE id = @row";

pub fn build(seed: u64, sizes: &Sizes) -> Built {
    let mut built = new_db(sizes);
    built
        .db
        .create_table("Tcube", id_blob_schema("v"))
        .expect("fresh database");
    for k in 0..sizes.cube_rows {
        let blob = gen::cube(seed, k, sizes.cube_edge).into_blob();
        let row = vec![(
            k as i64,
            vec![RowValue::I64(k as i64), RowValue::Bytes(blob)],
        )];
        insert_rows(&mut built, "Tcube", &row);
    }
    built.db.commit();
    built
}

fn vec3(v: [usize; 3]) -> String {
    format!("IntArray.Vector_3({}, {}, {})", v[0], v[1], v[2])
}

pub fn region_sql(offset: [usize; 3], size: [usize; 3], row: usize) -> String {
    format!(
        "SELECT FloatArrayMax.Subarray(v, {}, {}, 0) FROM Tcube WHERE id = {row}",
        vec3(offset),
        vec3(size)
    )
}

fn region_expect(cube: &SqlArray, offset: [usize; 3], size: [usize; 3]) -> Expect {
    let sub = subarray(cube, &offset, &size, false).expect("region lies inside the cube");
    Expect::Rows(vec![vec![Value::Bytes(sub.into_blob())]])
}

pub fn plan(seed: u64, sizes: &Sizes) -> Plan {
    let edge = sizes.cube_edge;
    let cubes: Vec<Arc<SqlArray>> = (0..sizes.cube_rows)
        .map(|k| Arc::new(gen::cube(seed, k, edge)))
        .collect();
    let mut plan = Plan::new(
        crate::registry::workload("array_cutout")
            .expect("declared")
            .classes,
        "Tcube",
    );
    plan.prepared_sql.push(CORNER_PREPARED.to_string());

    // Class order and target row are seed-independent (an even interleave
    // by class count; rows round-robin), so the pool sees the same access
    // pattern for every seed and only the offsets move. Whole-array reads
    // go to the last two rows and cutouts to the others: a cutout then
    // never finds its pages left behind by a whole-array read, which
    // would make the physical-read count swing with the drawn offsets.
    let mut order: Vec<(f64, usize)> = Vec::new();
    for (class, &count) in sizes.cutouts.iter().enumerate() {
        order.extend((0..count).map(|j| ((j as f64 + 0.5) / count as f64, class)));
    }
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut r = gen::rng(seed, 4);
    let cutout_rows = sizes.cube_rows - FULL_ROWS;
    // Pencils on one row stay a page's worth of elements apart: each gets
    // its own slot of the first-two-axes plane and lands in the slot's
    // first half. Two pencils closer than that share all their pages, and
    // whether a drawn pair does would move the read count by 128 pages.
    let plane = edge * edge;
    let pencil_slots = (plane / (2 * PAGE_ELEMS)).max(1);
    let slot_order = gen::shuffled(pencil_slots, &mut r);
    let mut seen = [0usize; 5];
    for &(_, class_index) in &order {
        let nth = seen[class_index];
        seen[class_index] += 1;
        let class = plan.classes[class_index];
        let row = if class == "full" {
            cutout_rows + nth % FULL_ROWS
        } else {
            nth % cutout_rows
        };
        let cube = &cubes[row];
        let mut at = |span: usize| r.gen_range(0..=edge - span);
        match class {
            "item" => {
                let idx = [at(1), at(1), at(1)];
                let text = format!(
                    "SELECT FloatArrayMax.Item_3(v, {}, {}, {}) FROM Tcube WHERE id = {row}",
                    idx[0], idx[1], idx[2]
                );
                let want = Value::from(cube.item(&idx).expect("index lies inside the cube"));
                plan.push(
                    class,
                    Action::Sql { text, cold: false },
                    Expect::Rows(vec![vec![want]]),
                );
            }
            "corner8" | "corner8_prepared" => {
                let offset = [at(CORNER), at(CORNER), at(CORNER)];
                let size = [CORNER; 3];
                let expect = region_expect(cube, offset, size);
                let action = if class == "corner8" {
                    Action::Sql {
                        text: region_sql(offset, size, row),
                        cold: false,
                    }
                } else {
                    Action::Prepared {
                        handle: 0,
                        vars: vec![
                            ("ox", Value::I64(offset[0] as i64)),
                            ("oy", Value::I64(offset[1] as i64)),
                            ("oz", Value::I64(offset[2] as i64)),
                            ("row", Value::I64(row as i64)),
                        ],
                    }
                };
                plan.push(class, action, expect);
            }
            "pencil" => {
                let slot = slot_order[(nth / cutout_rows) % pencil_slots];
                let width = plane / pencil_slots;
                let lin = slot * width + r.gen_range(0..=width / 2);
                let (offset, size) = ([lin % edge, lin / edge, 0], [1, 1, edge]);
                let text = region_sql(offset, size, row);
                plan.push(
                    class,
                    Action::Sql { text, cold: false },
                    region_expect(cube, offset, size),
                );
            }
            "full" => {
                let text = format!("SELECT v FROM Tcube WHERE id = {row}");
                plan.push(
                    class,
                    Action::Sql { text, cold: false },
                    Expect::Array(Arc::clone(cube)),
                );
            }
            other => unreachable!("undeclared class {other}"),
        }
    }

    let cube_bytes = 8 + cubes[0].as_blob().len() as u64;
    plan.setup_user_bytes = TONE_USER_BYTES + cube_bytes * sizes.cube_rows as u64;
    plan.live_user_bytes = plan.setup_user_bytes;
    plan.sample_blob = cubes[0].as_blob()[..cubes[0].header().header_len()].to_vec();
    plan.table_rows = vec![("Tcube", sizes.cube_rows as u64), ("Tone", 1)];
    plan
}
