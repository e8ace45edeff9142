//! Exit codes of `experiments` when its stdout fails: a reader that has
//! gone away (a closed pipe) ends the run cleanly with exit 0, and any
//! other write error is reported on stderr with exit 1.

use std::process::{Command, Output, Stdio};

fn experiments(args: &[&str], stdout: impl Into<Stdio>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn experiments")
}

#[test]
fn closed_pipe_exits_zero_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = experiments(&["list"], writer);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

#[test]
fn other_write_errors_exit_one_with_one_line() {
    // Writes to /dev/full fail with "no space left on device".
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = experiments(&["list"], full);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.starts_with("experiments: cannot write to stdout"));
}

#[test]
fn listing_to_an_open_pipe_still_succeeds() {
    let out = experiments(&["list"], Stdio::piped());
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: experiments"));
}
