//! CLI entry point. See `driver` for the flag set.

use std::process::ExitCode;

use sqlarray_lint::driver::{self, Options};

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sqlarray-lint: cannot determine cwd: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.loc {
        let counts = driver::loc_per_crate(&opts, &cwd);
        for (name, lines) in &counts {
            println!("{name} {lines}");
        }
        println!("total {}", counts.iter().map(|(_, n)| n).sum::<usize>());
        return ExitCode::SUCCESS;
    }
    let (findings, scanned) = driver::run(&opts, &cwd);
    ExitCode::from(driver::report(&opts, &findings, scanned) as u8)
}
