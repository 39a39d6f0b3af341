//! `dml_mix`: the write path beside the read path.
//!
//! `Tmix` (id, tag, 5-vector) and `Tbig` (1 MiB max arrays). One cycle
//! inserts fresh keys row by row and commits, updates a scalar and a
//! vector column by key, patches a 0.78 % slice of stored arrays with
//! `ArrayUpdate` (and patches the original bytes back), reads rows by
//! key, deletes the fresh keys and checkpoints. The cycle is
//! state-neutral — the table ends as it began, which the `BTreeMap` model
//! checks after every cycle — and the explicit checkpoint puts that cost
//! in *every* cycle, where a minimum cannot miss it. The WAL, commit,
//! checkpoint, B-tree maintenance, the blob range patch and the DML match
//! phase (a full scan even for `WHERE id = k`) do the work.

use super::{id_blob_schema, insert_rows, new_db, user_bytes_of, TONE_USER_BYTES};
use crate::cycle::{Action, Built, Expect, Plan};
use crate::gen::{self, KeyedRows, Sizes};
use sqlarray_core::build::max_vector;
use sqlarray_core::rng::Rng;
use sqlarray_engine::Value;
use sqlarray_storage::{ColType, RowValue, Schema};
use std::collections::BTreeMap;

const PATCH: &str =
    "UPDATE Tbig SET a = FloatArrayMax.ArrayUpdate(a, IntArray.Vector_1(@off), @patch) \
                     WHERE id = @row";
const MODEL_CHECK: &str = "SELECT id, tag, v FROM Tmix";

/// One `Tmix` row of the model.
#[derive(Clone, PartialEq)]
struct MixRow {
    tag: i32,
    v: [f64; 5],
}

fn mix_row(key: i64, row: &MixRow) -> (i64, Vec<RowValue>) {
    let values = vec![
        RowValue::I64(key),
        RowValue::I32(row.tag),
        RowValue::Bytes(gen::vector_blob(&row.v)),
    ];
    (key, values)
}

/// Resident rows live on even keys, so every odd key is fresh.
fn resident(seed: u64, sizes: &Sizes) -> BTreeMap<i64, MixRow> {
    let mut r = gen::rng(seed, 5);
    gen::components(seed, sizes.mix_rows)
        .into_iter()
        .enumerate()
        .map(|(k, v)| {
            let tag = r.gen_range(0..1_000_000i32);
            (2 * k as i64, MixRow { tag, v })
        })
        .collect()
}

fn big_blob(seed: u64, row: usize, sizes: &Sizes) -> Vec<u8> {
    max_vector(&gen::big_vector(seed, row, sizes.big_elems))
        .expect("vector shape is valid")
        .into_blob()
}

pub fn build(seed: u64, sizes: &Sizes) -> Built {
    let mut built = new_db(sizes);
    built
        .db
        .create_table(
            "Tmix",
            Schema::new(&[
                ("id", ColType::I64),
                ("tag", ColType::I32),
                ("v", ColType::Blob),
            ]),
        )
        .expect("fresh database");
    built
        .db
        .create_table("Tbig", id_blob_schema("a"))
        .expect("fresh database");
    let rows: KeyedRows = resident(seed, sizes)
        .iter()
        .map(|(k, row)| mix_row(*k, row))
        .collect();
    super::bulk_load(&mut built, "Tmix", &rows);
    for k in 0..sizes.big_rows {
        let row = vec![(
            k as i64,
            vec![
                RowValue::I64(k as i64),
                RowValue::Bytes(big_blob(seed, k, sizes)),
            ],
        )];
        insert_rows(&mut built, "Tbig", &row);
    }
    built.db.commit();
    built
}

pub fn plan(seed: u64, sizes: &Sizes) -> Plan {
    let initial = resident(seed, sizes);
    let mut model = initial.clone();
    let mut plan = Plan::new(
        crate::registry::workload("dml_mix")
            .expect("declared")
            .classes,
        "Tmix",
    );
    plan.prepared_sql.push(PATCH.to_string());
    // Logically state-neutral is not physically so: every replay would
    // split more leaves (deleted records' space is never reused) and the
    // cycles would drift apart. Each cycle restarts from set-up's image.
    plan.restore_each_cycle = true;
    let mut r = gen::rng(seed, 6);

    // Fresh keys: distinct odd keys spread over the resident key range,
    // inserted in seed-drawn order.
    let slots = gen::shuffled(sizes.mix_rows, &mut r);
    let fresh: Vec<i64> = slots[..sizes.mix_fresh]
        .iter()
        .map(|&k| 2 * k as i64 + 1)
        .collect();
    let comps = gen::components(seed ^ 0x5EED, sizes.mix_fresh);
    let ingest: KeyedRows = fresh
        .iter()
        .zip(&comps)
        .map(|(&key, &v)| {
            let row = MixRow {
                tag: r.gen_range(0..1_000_000i32),
                v,
            };
            model.insert(key, row.clone());
            mix_row(key, &row)
        })
        .collect();
    plan.cycle_user_bytes += user_bytes_of(&ingest);
    // Committed in batches: each is its own timed slot and durability point.
    for batch in ingest.chunks(sizes.mix_fresh.div_ceil(sizes.ingest_batches)) {
        let ingest = Action::Ingest {
            table: "Tmix",
            rows: batch.to_vec(),
        };
        plan.push("ingest", ingest, Expect::Nothing);
    }

    let adhoc = |text: String| Action::Sql { text, cold: false };
    let mut next_fresh = fresh.iter().cycle();
    for _ in 0..sizes.upd_tag {
        let key = *next_fresh.next().expect("fresh keys exist");
        model.get_mut(&key).expect("fresh key is in the model").tag += 7;
        plan.push(
            "upd_tag",
            adhoc(format!("UPDATE Tmix SET tag = tag + 7 WHERE id = {key}")),
            Expect::Affected(1),
        );
        plan.cycle_user_bytes += 4;
    }
    for _ in 0..sizes.upd_vec {
        let key = *next_fresh.next().expect("fresh keys exist");
        let v: [f64; 5] = std::array::from_fn(|_| r.gen::<f64>());
        model.get_mut(&key).expect("fresh key is in the model").v = v;
        plan.push(
            "upd_vec",
            adhoc(format!(
                "UPDATE Tmix SET v = FloatArray.Vector_5({}, {}, {}, {}, {}) WHERE id = {key}",
                v[0], v[1], v[2], v[3], v[4]
            )),
            Expect::Affected(1),
        );
        plan.cycle_user_bytes += gen::vector_blob(&v).len() as u64;
    }

    // Patch a slice, then patch the original bytes back: both statements
    // write pages and log records, and the array ends unchanged.
    let patch_vars = |row: usize, off: usize, values: &[f64]| Action::Prepared {
        handle: 0,
        vars: vec![
            ("off", Value::I64(off as i64)),
            (
                "patch",
                Value::Bytes(
                    max_vector(values)
                        .expect("patch shape is valid")
                        .into_blob(),
                ),
            ),
            ("row", Value::I64(row as i64)),
        ],
    };
    for j in 0..sizes.patched_rows {
        let row = j * sizes.big_rows / sizes.patched_rows;
        let original = gen::big_vector(seed, row, sizes.big_elems);
        let off = r.gen_range(0..=sizes.big_elems - sizes.patch_elems);
        let slice = &original[off..off + sizes.patch_elems];
        let patch: Vec<f64> = slice.iter().map(|x| x + 1.0).collect();
        plan.push(
            "arr_patch",
            patch_vars(row, off, &patch),
            Expect::Affected(1),
        );
        plan.push(
            "arr_patch",
            patch_vars(row, off, slice),
            Expect::Affected(1),
        );
        plan.cycle_user_bytes += 2 * 8 * sizes.patch_elems as u64;
        let restored = max_vector(slice).expect("slice shape is valid").into_blob();
        plan.post_cycle.push((
            format!(
                "SELECT FloatArrayMax.Subarray(a, IntArray.Vector_1({off}), IntArray.Vector_1({}), 0) \
                 FROM Tbig WHERE id = {row}",
                sizes.patch_elems
            ),
            Expect::Rows(vec![vec![Value::Bytes(restored)]]),
        ));
    }

    // Point reads: alternate updated fresh keys and untouched resident keys.
    let resident_keys: Vec<i64> = initial.keys().copied().collect();
    for i in 0..sizes.sel_key {
        let key = if i % 2 == 0 {
            fresh[i % fresh.len()]
        } else {
            resident_keys[r.gen_range(0..resident_keys.len())]
        };
        let row = &model[&key];
        plan.push(
            "sel_key",
            adhoc(format!(
                "SELECT id, tag, FloatArray.Item_1(v, 0) FROM Tmix WHERE id = {key}"
            )),
            Expect::Rows(vec![vec![
                Value::I64(key),
                Value::I32(row.tag),
                Value::F64(row.v[0]),
            ]]),
        );
    }

    // Delete the fresh (odd) keys in equal key ranges.
    let span = (2 * sizes.mix_rows).div_ceil(sizes.del_stmts) as i64;
    for j in 0..sizes.del_stmts as i64 {
        let (lo, hi) = (j * span, (j + 1) * span);
        let doomed = model.range(lo..hi).filter(|(key, _)| *key % 2 == 1).count();
        model.retain(|key, _| key % 2 == 0 || !(lo..hi).contains(key));
        plan.push(
            "del",
            adhoc(format!(
                "DELETE FROM Tmix WHERE id % 2 = 1 AND id >= {lo} AND id < {hi}"
            )),
            Expect::Affected(doomed as u64),
        );
    }
    plan.push("checkpoint", Action::Checkpoint, Expect::Nothing);

    assert!(model == initial, "the cycle must be state-neutral");
    plan.post_cycle.push((
        MODEL_CHECK.to_string(),
        Expect::Rows(
            model
                .iter()
                .map(|(k, row)| {
                    vec![
                        Value::I64(*k),
                        Value::I32(row.tag),
                        Value::Bytes(gen::vector_blob(&row.v)),
                    ]
                })
                .collect(),
        ),
    ));

    let resident_rows: KeyedRows = initial
        .iter()
        .take(1)
        .map(|(k, row)| mix_row(*k, row))
        .collect();
    plan.setup_user_bytes = TONE_USER_BYTES
        + user_bytes_of(&resident_rows) * sizes.mix_rows as u64
        + (8 + big_blob(seed, 0, sizes).len() as u64) * sizes.big_rows as u64;
    plan.live_user_bytes = plan.setup_user_bytes;
    plan.main_key_stride = 2;
    plan.sample_blob = gen::vector_blob(&initial[&0].v);
    plan.table_rows = vec![
        ("Tmix", sizes.mix_rows as u64),
        ("Tbig", sizes.big_rows as u64),
        ("Tone", 1),
    ];
    plan
}
