//! `VectorAvg` through SQL against the accumulation it replaced.
//!
//! The aggregate reads each row's array where it lies: a borrowed
//! `ArrayView`, every element's `f64` view added straight into its
//! register. The oracle here is the copy-and-convert accumulation it
//! replaced — the blob copied into a `SqlArray`, one `Scalar` per element,
//! `Scalar::as_f64`, a `Vec<f64>` per row — followed by the unchanged
//! `terminate`. For every real element type, input arrays of the short and
//! the max class (the max ones large enough to live out of row when their
//! elements are wide), both registered names, DOP 1/2/4 and the per-row
//! serialized UDA mode of experiment E5, every group's result blob must be
//! byte-identical to the oracle's.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use sqlarray_core::rng::{RngCore, SeedableRng, StdRng};
use sqlarray_core::{ArrayError, Element, ElementType, ExactSum, SqlArray, StorageClass};
use sqlarray_engine::{Database, Engine, HostingModel, UdaMode, Value};
use sqlarray_storage::{ColType, RowValue, Schema};

const GROUPS: i64 = 3;

/// A random element: any bit pattern for the integers (so `Int64` values
/// beyond 2⁵³ round on their way to `f64`), a finite value of random
/// magnitude and sign for the floats (so the sums cancel).
fn element<T: Element>(rng: &mut StdRng) -> T {
    match T::TYPE {
        ElementType::Float32 | ElementType::Float64 => {
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            T::from_f64(unit * 10f64.powi((rng.next_u64() % 31) as i32 - 15))
        }
        _ => T::read_le(&rng.next_u64().to_le_bytes()),
    }
}

/// The replaced accumulation over group `g` (rows `k` with
/// `k % GROUPS == g`), then `terminate`: each group's key and result blob.
fn oracle(blobs: &[Vec<u8>], class: StorageClass) -> Vec<(i64, Vec<u8>)> {
    (0..GROUPS)
        .map(|g| {
            let mut sum: Option<Vec<ExactSum>> = None;
            let mut dims = Vec::new();
            let mut count = 0u64;
            for blob in blobs.iter().skip(g as usize).step_by(GROUPS as usize) {
                let a = SqlArray::from_blob(blob.clone()).unwrap();
                let vals: Vec<f64> = a.iter_scalars().map(|s| s.as_f64().unwrap()).collect();
                let acc = sum.get_or_insert_with(|| {
                    dims = a.dims().to_vec();
                    vec![ExactSum::new(); vals.len()]
                });
                for (s, v) in acc.iter_mut().zip(&vals) {
                    s.add(*v);
                }
                count += 1;
            }
            let sum = sum.unwrap();
            let mean: Vec<f64> = sum.iter().map(|s| s.value() / count as f64).collect();
            let blob = match SqlArray::from_vec(class, &dims, &mean) {
                Ok(a) => a.into_blob(),
                Err(ArrayError::ShortTooLarge { .. }) => {
                    SqlArray::from_vec(StorageClass::Max, &dims, &mean)
                        .unwrap()
                        .into_blob()
                }
                Err(e) => panic!("{e}"),
            };
            (g, blob)
        })
        .collect()
}

fn check<T: Element>(rng: &mut StdRng) {
    for (input_class, dims, rows) in [
        (StorageClass::Short, vec![4usize, 3], 60i64),
        (StorageClass::Max, vec![30, 40], 48),
    ] {
        let n: usize = dims.iter().product();
        let blobs: Vec<Vec<u8>> = (0..rows)
            .map(|_| {
                let data: Vec<T> = (0..n).map(|_| element(rng)).collect();
                SqlArray::from_vec(input_class, &dims, &data)
                    .unwrap()
                    .into_blob()
            })
            .collect();
        let mut db = Database::new();
        // The in-row pad spreads even rows whose array lives out of row
        // over enough leaves for DOP 4 to split the scan.
        let schema = Schema::new(&[
            ("id", ColType::I64),
            ("v", ColType::Blob),
            ("pad", ColType::Blob),
        ]);
        db.create_table("T", schema).unwrap();
        for (k, blob) in blobs.iter().enumerate() {
            let k = k as i64;
            let row = [
                RowValue::I64(k),
                RowValue::Bytes(blob.clone()),
                RowValue::Bytes(vec![0; 1500]),
            ];
            db.insert("T", k, &row).unwrap();
        }
        db.commit();
        let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
        for (name, class) in [
            ("FloatArray", StorageClass::Short),
            ("FloatArrayMax", StorageClass::Max),
        ] {
            let want = oracle(&blobs, class);
            let sql =
                format!("SELECT id % {GROUPS}, {name}.VectorAvg(v) FROM T GROUP BY id % {GROUPS}");
            let runs = [
                (1usize, UdaMode::InMemory),
                (2, UdaMode::InMemory),
                (4, UdaMode::InMemory),
                (2, UdaMode::StreamSerialized),
            ];
            for (dop, mode) in runs {
                s.set_dop(dop);
                s.uda_mode = mode;
                let r = s.query(&sql).unwrap();
                let context = format!("{:?} {input_class:?} {name} dop {dop} {mode:?}", T::TYPE);
                if dop > 1 {
                    assert!(r.stats.dop > 1, "{context}: the scan did not fan out");
                }
                let got: Vec<(i64, Vec<u8>)> = r
                    .rows
                    .iter()
                    .map(|row| match (&row[0], &row[1]) {
                        (Value::I64(g), Value::Bytes(b)) => (*g, b.clone()),
                        other => panic!("{context}: unexpected row {other:?}"),
                    })
                    .collect();
                assert!(
                    got == want,
                    "{context}: result blobs differ from the oracle"
                );
            }
        }
    }
}

#[test]
fn vector_avg_reads_in_place_and_answers_like_the_copying_accumulation() {
    let mut rng = StdRng::seed_from_u64(0x00A7_6A26);
    check::<i8>(&mut rng);
    check::<i16>(&mut rng);
    check::<i32>(&mut rng);
    check::<i64>(&mut rng);
    check::<f32>(&mut rng);
    check::<f64>(&mut rng);
}
