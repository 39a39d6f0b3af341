//! The repository benchmark. See `README.md` beside this package.
//!
//! ```text
//! benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--out <dir>] [--append <file.jsonl>]
//! benchmark run --smoke                 every workload, both modes, tiny sizes
//! benchmark compare <a.jsonl> <b.jsonl>
//! benchmark manifest                    prints BENCHMARK.json
//! benchmark describe                    prints the metric tables as Markdown
//! ```

mod compare;
mod cycle;
mod gen;
mod harness;
mod json;
mod probes;
mod registry;
mod run;
#[cfg(test)]
mod tests;
mod workloads;

use gen::Sizes;
use run::{run, RunArgs, RunResult};
use std::io::Write;
use std::path::PathBuf;

const USAGE: &str =
    "usage: benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--smoke] [--out <dir>] [--append <file.jsonl>]\n       \
                     benchmark run --smoke\n       \
                     benchmark compare <a.jsonl> <b.jsonl>\n       \
                     benchmark manifest | describe";

struct RunOpts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    append: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        append: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("between 0 and 3600 seconds"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => o.out_dir = PathBuf::from(value),
            "--append" => o.append = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// Runs one workload and prints the full record, then the contract's
/// result line, as the last two lines of standard output.
fn run_one(o: &RunOpts, workload: &str) -> Result<RunResult, String> {
    let (sizes, default_seconds) = if o.smoke {
        (Sizes::smoke(), 0.2)
    } else {
        (Sizes::full(), registry::RUN_SECONDS as f64)
    };
    let result = run(&RunArgs {
        workload: workload.to_string(),
        seed: o.seed,
        seconds: o.seconds.unwrap_or(default_seconds),
        trace: o.trace,
        sizes,
        out_dir: o.out_dir.clone(),
    })?;
    if let Some(path) = &o.append {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{}", result.record.render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(result)
}

/// `run --smoke` without a workload: every workload in both trace modes.
fn smoke_all(mut o: RunOpts) -> Result<i32, String> {
    let mut bad = 0;
    for w in &registry::WORKLOADS {
        for trace in [false, true] {
            o.trace = trace;
            let r = run_one(&o, w.name)?;
            println!(
                "smoke {:<13} trace {} correct {} attempted {} failed {} metrics {}",
                w.name,
                trace as u8,
                r.correct,
                r.attempted,
                r.failed,
                r.metrics.len()
            );
            bad += !r.correct as i32;
        }
    }
    Ok(bad.min(1))
}

fn main_inner() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let o = parse_run(&args[1..])?;
            match o.workload.clone() {
                None if o.smoke => smoke_all(o),
                None => Err("run needs --workload (or --smoke alone)".into()),
                Some(w) => {
                    let r = run_one(&o, &w)?;
                    println!("{}", r.record.render());
                    println!("{}", r.result_json().render());
                    // The result line carries `correct`; a printed result exits 0.
                    Ok(0)
                }
            }
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err(USAGE.into()),
        },
        Some("manifest") => {
            print!("{}", registry::manifest());
            Ok(0)
        }
        Some("describe") => {
            print!("{}", registry::describe());
            Ok(0)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() {
    match main_inner() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
