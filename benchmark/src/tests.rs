//! The benchmark checks itself: every workload emits every declared
//! metric, the registry equals `BENCHMARK.json`, and the declared surface
//! stays inside the contract's limits.

use crate::gen::Sizes;
use crate::json::{self, Json};
use crate::registry::{self, END_TO_END, WORKLOADS};
use crate::run::{run, RunArgs, RunResult};

/// Where a traced smoke run leaves `trace.json`: inside the package's
/// ignored `out/`, one directory per (workload, seed) because tests run
/// on parallel threads.
fn out_dir(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{workload}-{seed}"))
}

fn smoke(workload: &str, trace: bool, seed: u64) -> RunResult {
    run(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.1,
        trace,
        sizes: Sizes::smoke(),
        out_dir: out_dir(workload, seed),
    })
    .expect("smoke run completes")
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let layers = registry::per_layer();
    for w in &WORKLOADS {
        let r = smoke(w.name, false, 1);
        assert!(
            r.correct && r.failed == 0,
            "{}: {} of {} failed",
            w.name,
            r.failed,
            r.attempted
        );
        assert!(r.attempted >= 1);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>());
        for (name, value, _) in &r.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                w.name
            );
        }

        let t = smoke(w.name, true, 1);
        assert!(
            t.correct,
            "{} traced: {} of {} failed",
            w.name, t.failed, t.attempted
        );
        let names: Vec<&str> = t.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            names,
            layers.iter().map(|l| l.name.as_str()).collect::<Vec<_>>()
        );
        assert!(t.metrics.iter().all(|m| m.1.is_finite()));
        // Every class of this workload was timed; the other workloads' read 0.
        for other in &WORKLOADS {
            for class in other.classes {
                let v = t
                    .metrics
                    .iter()
                    .find(|m| m.0 == registry::class_metric(class))
                    .unwrap()
                    .1;
                assert_eq!(
                    v > 0.0,
                    other.name == w.name,
                    "{}: class {class} = {v}",
                    w.name
                );
            }
        }
        let trace = out_dir(w.name, 1).join("trace.json");
        let spans = json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        assert!(spans.as_arr().unwrap().len() > 10);
    }
}

#[test]
fn exact_metrics_repeat_for_one_seed_and_inputs_follow_the_seed() {
    let exact = |r: &RunResult| -> Vec<(String, u64)> {
        r.metrics
            .iter()
            .filter(|m| m.0.ends_with("_per_stmt") || m.0.ends_with("_per_user_byte"))
            .map(|m| (m.0.clone(), m.1.to_bits()))
            .collect()
    };
    for w in &WORKLOADS {
        let (a, b) = (smoke(w.name, false, 7), smoke(w.name, false, 7));
        assert_eq!(
            exact(&a),
            exact(&b),
            "{}: exact metrics must repeat bit for bit",
            w.name
        );
        assert_eq!(exact(&a).len(), 4);
        assert_eq!(a.attempted - a.failed, a.attempted, "{}", w.name);
    }
    // Another seed changes values, so the oracle's answers change with it.
    let plan =
        |seed| (crate::workloads::by_name("scan_native").unwrap().plan)(seed, &Sizes::smoke());
    let text_of = |p: &crate::cycle::Plan| match &p.stmts[2].expect {
        crate::cycle::Expect::Rows(r) => format!("{r:?}"),
        _ => unreachable!(),
    };
    assert_ne!(text_of(&plan(1)), text_of(&plan(2)));
    assert_eq!(plan(1).stmts.len(), plan(2).stmts.len());
}

#[test]
fn layer_separation_is_visible() {
    let get = |r: &RunResult, name: &str| r.metrics.iter().find(|m| m.0 == name).unwrap().1;
    let native = smoke("scan_native", true, 3);
    let udf = smoke("scan_udf", true, 3);
    let dml = smoke("dml_mix", true, 3);
    assert_eq!(get(&native, "engine.session.udf_calls"), 0.0);
    assert_eq!(get(&native, "engine.exec.row_path_stmts"), 0.0);
    assert!(get(&udf, "engine.session.udf_calls") > 0.0);
    assert!(get(&udf, "engine.exec.row_path_stmts") > 0.0);
    assert_eq!(get(&native, "storage.wal.bytes"), 0.0);
    assert_eq!(get(&udf, "storage.wal.bytes"), 0.0);
    assert!(get(&dml, "storage.wal.bytes") > 0.0);
    assert_eq!(get(&native, "storage.pool.hit_ratio"), 0.0);
}

#[test]
fn registry_equals_benchmark_json_and_fits_the_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
    let generated = json::parse(&registry::manifest()).expect("the manifest is valid JSON");
    assert_eq!(
        file, generated,
        "regenerate with `benchmark manifest > BENCHMARK.json`"
    );

    let keys: Vec<&str> = file
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(registry::manifest().len() <= 64 * 1024);
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    let layers = registry::per_layer();
    assert!(
        (1..=128).contains(&layers.len()),
        "{} per-layer metrics",
        layers.len()
    );
    assert!((1..=60).contains(&registry::RUN_SECONDS));

    let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    names.extend(END_TO_END.iter().map(|e| e.name.to_string()));
    names.extend(layers.iter().map(|l| l.name.clone()));
    for n in &names {
        assert!(valid_name(n), "bad name `{n}`");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
    }
    let unit_ok = |u: &str| {
        (1..=16).contains(&u.len())
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    };
    assert!(END_TO_END
        .iter()
        .all(|e| unit_ok(e.unit) && e.bound > 0.0 && e.bound <= 0.25));
    assert!(layers
        .iter()
        .all(|l| unit_ok(l.unit) && matches!(l.better, "lower" | "higher")));
    let setup = END_TO_END
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s is declared");
    assert!(setup.unit == "s" && END_TO_END.iter().all(|e| e.bound <= setup.bound));
    let Json::Arr(cmd) = file.get("command").unwrap() else {
        panic!()
    };
    assert!(cmd.len() <= 32);
}
