//! The paper report: Table 1, the §6.2 storage comparison, the §7.1
//! overhead decomposition and experiments E4–E9, from one experiment list
//! ([`sqlarray_bench::experiments::EXPERIMENTS`]).
//!
//! ```text
//! cargo run --release -p sqlarray-bench --bin table1_report
//! SQLARRAY_ROWS=2000000 cargo run --release -p sqlarray-bench --bin table1_report
//! cargo run --release -p sqlarray-bench --bin table1_report -- --smoke --json
//! ```
//!
//! `--smoke` runs every experiment at tiny sizes (seconds); `--json`
//! prints one line in the record shape of `benchmark run` instead of the
//! human table.

use sqlarray_bench::experiments::{run_report, Report, Scale};
use sqlarray_bench::{rows_from_env, TABLE1_QUERIES, TESTBED_DOP};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(other) = args.iter().find(|a| *a != "--smoke" && *a != "--json") {
        eprintln!("unknown argument `{other}`; usage: table1_report [--smoke] [--json]");
        std::process::exit(2);
    }
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let (smoke, json) = (has("--smoke"), has("--json"));
    let scale = if smoke {
        Scale::smoke()
    } else {
        Scale {
            rows: rows_from_env(),
            smoke: false,
        }
    };
    let dop = sqlarray_core::parallel::configured_dop();
    eprintln!(
        "running E1-E9: {} rows per table, parallel runs at DOP {dop}...",
        scale.rows
    );
    let report = run_report(scale, dop);
    if json {
        println!("{}", report.to_json());
    } else {
        print_human(&report);
    }
}

fn print_human(report: &Report) {
    println!("== sqlarray-rs: Table 1 reproduction ==");
    println!(
        "rows per table: {} (paper: 357M); modelled testbed: {TESTBED_DOP} cores, 2 us per CLR \
         call, 1150 MB/s sequential disk",
        report.fixture.scale.rows
    );
    println!(
        "each query runs cold twice, serial (DOP 1) and parallel (DOP {}, from \
         SQLARRAY_DOP/cores); rows and modelled costs are asserted bit-identical",
        report.fixture.dop
    );
    println!();
    println!(
        "{:<3} {:>13} {:>8} {:>11} | {:>11} {:>11} {:>4} {:>8}   statement",
        "Q", "model exec[s]", "CPU [%]", "I/O [MB/s]", "serial [s]", "par [s]", "DOP", "speedup",
    );
    println!("{}", "-".repeat(132));
    for row in &report.fixture.table {
        println!(
            "{:<3} {:>13.3} {:>8.0} {:>11.0} | {:>11.3} {:>11.3} {:>4} {:>7.2}x   {}",
            row.query,
            row.exec_seconds,
            row.cpu_percent,
            row.io_mb_per_sec,
            row.wall_serial_seconds,
            row.wall_parallel_seconds,
            row.measured_dop,
            row.wall_serial_seconds / row.wall_parallel_seconds.max(1e-9),
            TABLE1_QUERIES[row.query - 1]
        );
    }
    println!();
    println!("== paper reference (357M rows, Dell PowerVault, SQL Server 2008) ==");
    println!("1: 18 s, 45 % CPU, 1150 MB/s    4: 133 s, 98 % CPU, 215 MB/s");
    println!("2: 25 s, 38 % CPU, 1150 MB/s    5: 109 s, 99 % CPU, 265 MB/s");
    println!("3: 18 s, 90 % CPU, 1150 MB/s");

    for (i, (title, metrics)) in report.sections.iter().enumerate() {
        println!();
        println!("== E{} · {title} ==", i + 1);
        for m in metrics {
            let paper = if m.paper.is_empty() {
                String::new()
            } else {
                format!("   (paper: {})", m.paper)
            };
            println!("{:<40} {:>16.4} {}{paper}", m.name, m.value, m.unit);
        }
    }
}
