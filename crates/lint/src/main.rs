//! CLI entry point. See `driver` for the flag set.

use std::io::Write;
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
    let (text, code) = if opts.reach {
        let root = driver::workspace_root(&cwd);
        match sqlarray_lint::reach::run(&root, &root.join("target/reach")) {
            Ok((findings, scanned)) => driver::report(&opts, &findings, scanned),
            Err(msg) => {
                eprintln!("sqlarray-lint --reach: {msg}");
                return ExitCode::from(2);
            }
        }
    } else if opts.loc {
        let counts = driver::loc_per_crate(&opts, &cwd);
        let mut text: String = counts
            .iter()
            .map(|(name, n)| format!("{name} {n}\n"))
            .collect();
        text.push_str(&format!(
            "total {}\n",
            counts.iter().map(|(_, n)| n).sum::<usize>()
        ));
        (text, 0)
    } else {
        let (findings, scanned) = driver::run(&opts, &cwd);
        driver::report(&opts, &findings, scanned)
    };
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        // A reader that stopped early (`| head`) closed the pipe: what it
        // did not read is not wanted, so the program ends as it would have.
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("sqlarray-lint: cannot write to stdout: {e}");
            ExitCode::from(2)
        }
        _ => ExitCode::from(code),
    }
}
