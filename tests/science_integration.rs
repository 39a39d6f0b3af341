//! Integration across the science crates and the database layers: each
//! §2 use case run end to end on top of the storage engine and the array
//! type.

use sqlarray::prelude::*;
use sqlarray::spectra::{linear_grid, synth_survey, SpectrumIndex, SynthParams};
use sqlarray::turbulence::{FetchMode, PartitionSpec, Scheme, SyntheticField, TurbulenceDb};

#[test]
fn turbulence_service_round_trip_through_storage() {
    let mut store = PageStore::new();
    let field = SyntheticField::new(31, 10, 3);
    let spec = PartitionSpec::new(32, 8, 4);
    let db = TurbulenceDb::build(&mut store, &field, spec).unwrap();

    // Batch query straddling many cubes; streamed stencils must match the
    // analytic field closely with the 8-point kernel.
    let particles: Vec<[f64; 3]> = (0..200)
        .map(|i| {
            let t = i as f64 * 0.037;
            [
                (0.05 + 0.83 * t).rem_euclid(1.0),
                (0.95 - 0.61 * t).rem_euclid(1.0),
                (0.42 + 0.17 * t).rem_euclid(1.0),
            ]
        })
        .collect();
    let vels = db
        .query_particles(
            &mut store,
            &particles,
            Scheme::Lagrange8,
            FetchMode::PartialRead,
        )
        .unwrap();
    let mut worst = 0.0f64;
    for (v, p) in vels.iter().zip(&particles) {
        let truth = field.velocity(*p);
        for c in 0..3 {
            worst = worst.max((v[c] - truth[c]).abs());
        }
    }
    assert!(worst < 1e-3, "worst interpolation error {worst}");

    // The blobs live out of page: the data table itself is tiny.
    let table = db.table().clone();
    assert!(table.data_pages(&mut store).unwrap() <= 2);
    assert_eq!(table.row_count(), 64);
}

#[test]
fn spectra_survey_stored_as_blobs_and_searched() {
    // Store a synthetic survey in a table (flux blobs + redshift), read
    // it back, build the PCA index from the decoded rows, and query.
    let params = SynthParams {
        bins: 256,
        mask_prob: 0.01,
        ..SynthParams::default()
    };
    let survey = synth_survey(3, 40, &[0.1], &params);

    let mut db = Database::new();
    db.create_table(
        "spec",
        Schema::new(&[
            ("id", ColType::I64),
            ("z", ColType::F64),
            ("flux", ColType::Blob),
        ]),
    )
    .unwrap();
    for (i, s) in survey.iter().enumerate() {
        let arrays = s.to_arrays().unwrap();
        db.insert(
            "spec",
            i as i64,
            &[
                RowValue::I64(i as i64),
                RowValue::F64(s.redshift),
                RowValue::Bytes(arrays.flux.into_blob()),
            ],
        )
        .unwrap();
    }

    // Read back and verify blob payloads decode to the original flux.
    let table = db.table("spec").unwrap().clone();
    let mut restored = Vec::new();
    for (i, s) in survey.iter().enumerate() {
        let row = table.get(&mut db.store, i as i64).unwrap().unwrap();
        let blob = row[2].blob_bytes(&mut db.store).unwrap();
        let arr = sqlarray::array::SqlArray::from_blob(blob).unwrap();
        let flux: Vec<f64> = arr.to_vec().unwrap();
        assert_eq!(flux, s.flux, "row {i}");
        restored.push((i as u64, s.clone()));
    }

    let grid = linear_grid(4200.0, 8800.0, 96);
    let index = SpectrumIndex::build(&restored, &grid, 5).unwrap();
    let hits = index.similar(&survey[4], 3).unwrap();
    assert_eq!(hits[0].id, 4, "self-match first");
}

#[test]
fn nbody_density_grid_ffts_identically_in_and_out_of_the_engine() {
    use sqlarray::nbody::{DensityGrid, SynthSim};
    let sim = SynthSim {
        halos: 6,
        halo_particles: 100,
        background: 500,
        ..SynthSim::default()
    };
    let grid = DensityGrid::assign_cic(&sim.snapshot(0).particles, 16);
    let rho = grid.to_array();

    // Library path.
    let lib_ft = sqlarray::engine::fft_array(&rho).unwrap();

    // Engine UDF path.
    let mut session = Engine::new(Database::new()).session_with_hosting(HostingModel::free());
    session.set_var("rho", Value::Bytes(rho.as_blob().to_vec()));
    let via_sql = session
        .query_scalar("SELECT FloatArrayMax.FFTForward(@rho)")
        .unwrap();
    let sql_ft = via_sql.as_array().unwrap();
    assert_eq!(lib_ft, sql_ft);

    // DC bin equals the total mass.
    let dc = sql_ft.item(&[0, 0, 0]).unwrap().as_c64();
    assert!((dc.re - grid.total_mass()).abs() < 1e-6 * grid.total_mass());
}

#[test]
fn octree_buckets_store_as_array_blobs() {
    use sqlarray::nbody::{Octree, SynthSim};
    // The §2.3 storage design: a few thousand particles per bucket, each
    // bucket one row holding a [n, 7] array (id, pos, vel as columns…
    // here: 7 doubles per particle: id, 3 pos, 3 vel).
    let sim = SynthSim::default();
    let tree = Octree::build(sim.snapshot(0).particles, 256);

    let mut db = Database::new();
    db.create_table(
        "buckets",
        Schema::new(&[("zkey", ColType::I64), ("pts", ColType::Blob)]),
    )
    .unwrap();

    let parts = tree.particles();
    let mut stored = 0usize;
    let mut cursor = 0usize;
    let mut key = 0i64;
    while cursor < parts.len() {
        let end = (cursor + 256).min(parts.len());
        let chunk = &parts[cursor..end];
        let n = chunk.len();
        let arr = sqlarray::array::SqlArray::from_fn(StorageClass::Max, &[n, 7], |idx| -> f64 {
            let p = &chunk[idx[0]];
            match idx[1] {
                0 => p.id as f64,
                1..=3 => p.pos[idx[1] - 1],
                _ => p.vel[idx[1] - 4],
            }
        })
        .unwrap();
        db.insert(
            "buckets",
            key,
            &[RowValue::I64(key), RowValue::Bytes(arr.into_blob())],
        )
        .unwrap();
        stored += n;
        key += 1;
        cursor = end;
    }
    assert_eq!(stored, parts.len());

    // Retrieve one bucket and pull a column vector out with Subarray —
    // "retrieving information about individual particles will require
    // array-based data access" (§2.3).
    let table = db.table("buckets").unwrap().clone();
    let row = table.get(&mut db.store, 0).unwrap().unwrap();
    let arr =
        sqlarray::array::SqlArray::from_blob(row[1].blob_bytes(&mut db.store).unwrap()).unwrap();
    let n = arr.dims()[0];
    let xs = sqlarray::array::ops::subarray::subarray(&arr, &[0, 1], &[n, 1], true).unwrap();
    assert_eq!(xs.dims(), &[n]);
    let first_x = xs.item(&[0]).unwrap().as_f64().unwrap();
    assert!((first_x - parts[0].pos[0]).abs() < 1e-12);
}
