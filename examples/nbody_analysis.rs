//! The cosmological N-body analysis suite (§2.3): FOF halos, merger
//! links, CIC density → FFT power spectrum (through the array engine),
//! two-point correlation, and a light cone.
//!
//! ```text
//! cargo run --release --example nbody_analysis
//! ```

use sqlarray::engine::{Database, Engine, Value};
use sqlarray::nbody::{
    build_lightcone, friends_of_friends, link_catalogs, power_spectrum, two_point_correlation,
    DensityGrid, LightconeSpec, Octree, SynthSim,
};

fn main() {
    let sim = SynthSim {
        halos: 16,
        halo_particles: 250,
        background: 4000,
        halo_radius: 0.012,
        ..SynthSim::default()
    };
    let snap0 = sim.snapshot(0);
    let snap1 = sim.snapshot(1);
    println!(
        "synthetic simulation: {} particles per snapshot",
        snap0.particles.len()
    );

    // --- Octree bucketing (the billion-row reduction of §2.3) -----------
    let tree = Octree::build(snap0.particles.clone(), 512);
    println!(
        "octree: {} leaves (≤ {} particles each) instead of {} particle rows",
        tree.leaf_count(),
        tree.bucket_size(),
        tree.len()
    );
    let lod = tree.decimate(16);
    println!(
        "decimated visualization sample: {} weighted points",
        lod.len()
    );

    // --- FOF halos + merger links ------------------------------------------
    let h0 = friends_of_friends(&snap0.particles, 0.015, 30);
    let h1 = friends_of_friends(&snap1.particles, 0.015, 30);
    println!(
        "\nFOF: {} halos at t0 (largest {}), {} at t1",
        h0.len(),
        h0[0].size(),
        h1.len()
    );
    let links = link_catalogs(&h0, &h1, 0.5);
    println!(
        "merger links t0→t1: {} (shared-particle fractions:",
        links.len()
    );
    for l in links.iter().take(5) {
        println!(
            "  halo {} → halo {}: {:.0}% of {} members",
            l.from,
            l.to,
            l.fraction * 100.0,
            h0[l.from].size()
        );
    }
    println!("  ...)");

    // --- CIC density → power spectrum, through the array engine -------------
    let grid = DensityGrid::assign_cic(&snap0.particles, 32);
    let delta = grid.to_array();
    println!(
        "\nCIC grid 32^3 packed as a {} array blob ({} bytes)",
        delta.elem(),
        delta.as_blob().len()
    );

    // The §5.3 path: hand the blob to the in-server FFT UDF.
    let mut session = Engine::new(Database::new()).session();
    session.set_var("rho", Value::Bytes(delta.as_blob().to_vec()));
    let dc = session
        .query_scalar("SELECT ComplexArrayMax.Item_3(FloatArrayMax.FFTForward(@rho), 0, 0, 0)")
        .expect("in-engine FFT");
    if let Value::Bytes(b) = &dc {
        let re = f64::from_le_bytes(b[..8].try_into().unwrap());
        println!(
            "DC mode from the in-engine FFT = {:.1} (total mass {:.1})",
            re,
            grid.total_mass()
        );
    }

    let ps = power_spectrum(&grid);
    println!("\nbinned power spectrum (k in fundamental modes):");
    println!("{:>8} {:>14} {:>8}", "k", "P(k)", "modes");
    for bin in ps.iter().take(8) {
        println!("{:>8.2} {:>14.6} {:>8}", bin.k, bin.power, bin.modes);
    }

    // --- Two-point correlation ------------------------------------------------
    let xi = two_point_correlation(&snap0.particles, 0.01, 0.1);
    println!("\ntwo-point correlation:");
    println!("{:>14} {:>12} {:>10}", "r range", "xi(r)", "pairs");
    for bin in xi.iter().take(6) {
        println!(
            "{:>6.3}-{:<6.3} {:>12.2} {:>10}",
            bin.r_lo, bin.r_hi, bin.xi, bin.pairs
        );
    }
    assert!(
        xi[0].xi > 1.0,
        "clustered field must correlate on small scales"
    );

    // --- Light cone --------------------------------------------------------------
    let cone = build_lightcone(
        &sim,
        &[3, 2, 1, 0],
        &LightconeSpec {
            apex: [0.5, 0.5, 0.5],
            dir: [0.577, 0.577, 0.577],
            half_angle: 0.35,
            shell_width: 0.12,
        },
    );
    println!(
        "\nlight cone: {} particles across 4 look-back shells",
        cone.len()
    );
    let receding = cone.iter().filter(|e| e.v_radial > 0.0).count();
    println!(
        "{} receding / {} approaching (radial Doppler)",
        receding,
        cone.len() - receding
    );
    println!("\nnbody_analysis: done");
}
