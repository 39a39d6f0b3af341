//! Cross-crate integration: the paper's T-SQL surface executed end to end
//! against tables living in the page store.

use sqlarray::prelude::*;

fn spectra_db(rows: i64) -> Database {
    // A table of per-object spectra stored as array blobs, the §2.2
    // storage pattern.
    let mut db = Database::new();
    db.create_table(
        "spectra",
        Schema::new(&[
            ("id", ColType::I64),
            ("z", ColType::F64),
            ("flux", ColType::Blob),
        ]),
    )
    .unwrap();
    for k in 0..rows {
        let z = if k % 2 == 0 { 0.1 } else { 0.3 };
        let flux: Vec<f64> = (0..16).map(|i| (k as f64) + i as f64 * 0.01).collect();
        let arr = build::short_vector(&flux).unwrap();
        db.insert(
            "spectra",
            k,
            &[
                RowValue::I64(k),
                RowValue::F64(z),
                RowValue::Bytes(arr.into_blob()),
            ],
        )
        .unwrap();
    }
    db
}

#[test]
fn full_array_lifecycle_through_sql() {
    let mut s = Engine::new(Database::new()).session();
    let results = s
        .execute(
            "DECLARE @a VARBINARY(MAX) = FloatArray.ToMax(FloatArray.Vector_6(
                 1.0, 2.0, 3.0, 4.0, 5.0, 6.0));
             DECLARE @m VARBINARY(MAX) = FloatArrayMax.Reshape(@a, IntArray.Vector_2(3, 2));
             DECLARE @col VARBINARY(MAX) = FloatArrayMax.Subarray(@m,
                 IntArray.Vector_2(0, 1), IntArray.Vector_2(3, 1), 1);
             SELECT FloatArrayMax.ToString(@col), FloatArrayMax.Sum(@col),
                    FloatArrayMax.Rank(@col)",
        )
        .unwrap();
    let row = &results[0].rows[0];
    // Column 1 of the column-major 3x2 reshape of 1..6 is [4, 5, 6].
    assert_eq!(row[0], Value::Str("float64[3]{4,5,6}".into()));
    assert_eq!(row[1], Value::F64(15.0));
    assert_eq!(row[2], Value::I32(1));
}

#[test]
fn aggregate_queries_over_array_columns() {
    let db = spectra_db(40);
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    // Per-redshift composite flux via the VectorAvg UDA + GROUP BY.
    let r = s
        .query("SELECT z, FloatArrayMax.VectorAvg(flux), COUNT(*) FROM spectra GROUP BY z")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    for row in &r.rows {
        assert_eq!(row[2], Value::I64(20));
        let stack = row[1].as_array().unwrap();
        assert_eq!(stack.dims(), &[16]);
        // Group z=0.1 holds even ids 0..38: mean of first bin = 19.
        if row[0] == Value::F64(0.1) {
            assert_eq!(stack.item(&[0]).unwrap().as_f64().unwrap(), 19.0);
        }
    }
}

#[test]
fn scalar_udfs_inside_where_clauses() {
    let db = spectra_db(30);
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    // Filter on an array aggregate computed per row.
    let r = s
        .query("SELECT COUNT(*) FROM spectra WHERE FloatArray.Mean(flux) > 14.9")
        .unwrap();
    // Mean of row k's flux = k + 0.075; > 14.9 for k >= 15.
    assert_eq!(r.rows[0][0], Value::I64(15));
    assert_eq!(r.stats.udf_calls, 30);
}

#[test]
fn concat_and_fft_compose() {
    let db = spectra_db(8);
    let mut s = Engine::new(db).session_with_hosting(HostingModel::free());
    s.execute(
        "DECLARE @l VARBINARY(100) = IntArray.Vector_1(8);
         DECLARE @sig VARBINARY(MAX);
         SELECT @sig = FloatArrayMax.Concat(@l, z) FROM spectra",
    )
    .unwrap();
    let sig = s.var("sig").unwrap().as_array().unwrap();
    assert_eq!(sig.count(), 8);
    // Feed the assembled vector to the engine-level FFT and check the DC
    // bin equals the sum of redshifts (0.1 and 0.3 alternating).
    let ft = sqlarray::engine::fft_array(&sig).unwrap();
    let dc = ft.item(&[0]).unwrap().as_c64();
    assert!((dc.re - (0.1 + 0.3) * 4.0).abs() < 1e-9);
    assert!(dc.im.abs() < 1e-12);
}

#[test]
fn parse_errors_and_type_errors_are_reported_not_panicked() {
    let mut s = Engine::new(Database::new()).session();
    assert!(s.execute("SELEKT 1").is_err());
    assert!(s.execute("SELECT FloatArray.Item_1(0x00FF, 0)").is_err()); // bad header
    assert!(s.execute("SELECT FloatArray.Vector_2(1.0, 'two')").is_err());
    // Arity check through the numbered-name convention.
    assert!(s
        .execute(
            "DECLARE @a VARBINARY(100) = FloatArray.Vector_2(1.0, 2.0);
             SELECT FloatArray.Size(@a, 0, 0)"
        )
        .is_err());
}

#[test]
fn point_lookups_fetch_lob_arrays() {
    // Arrays above the 8000-byte in-row limit round-trip through the LOB
    // store transparently.
    let mut db = Database::new();
    db.create_table(
        "cubes",
        Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
    )
    .unwrap();
    let big = sqlarray::array::SqlArray::from_fn(StorageClass::Max, &[32, 32, 32], |idx| {
        (idx[0] + idx[1] + idx[2]) as f32
    })
    .unwrap();
    db.insert(
        "cubes",
        7,
        &[RowValue::I64(7), RowValue::Bytes(big.as_blob().to_vec())],
    )
    .unwrap();
    let table = db.table("cubes").unwrap().clone();
    let row = table.get(&mut db.store, 7).unwrap().unwrap();
    match &row[1] {
        RowValue::LobRef(_, len) => assert_eq!(*len as usize, big.as_blob().len()),
        other => panic!("expected a LOB reference, got {other:?}"),
    }
    let bytes = row[1].blob_bytes(&mut db.store).unwrap();
    let back = sqlarray::array::SqlArray::from_blob(bytes).unwrap();
    assert_eq!(back, big);
}
