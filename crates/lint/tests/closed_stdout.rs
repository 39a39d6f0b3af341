//! A closed stdout ends the program quietly: `sqlarray-lint --loc | head -1`
//! must not panic when `head` exits before the last line is written.

use std::process::{Command, Stdio};

/// Runs the binary with `args` and its stdout a pipe whose read end is
/// closed before the program starts, so every write fails with a broken
/// pipe whatever the timing; returns its stderr and exit code. The pipe is
/// the stdin of a `true` that has exited: its only reader is gone.
fn run_with_closed_stdout(args: &[&str]) -> (String, Option<i32>) {
    let mut reader = Command::new("true")
        .stdin(Stdio::piped())
        .spawn()
        .expect("`true` runs");
    let writer = reader.stdin.take().expect("a piped stdin");
    reader.wait().expect("`true` exits");
    let out = Command::new(env!("CARGO_BIN_EXE_sqlarray-lint"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("the binary runs");
    (
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn a_closed_stdout_ends_the_program_quietly() {
    for args in [
        &["--loc"][..],
        &["--loc", "crates/lint/src"],
        &["crates/lint/src"],
    ] {
        let (stderr, code) = run_with_closed_stdout(args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
}
