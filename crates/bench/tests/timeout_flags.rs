//! The resilience flags reach the experiments that run batches: under a
//! per-design timeout too short for any design, E19 reports each design's
//! typed error instead of panicking, and the run still exits 0.

use std::process::Command;

#[test]
fn e19_under_a_spec_timeout_prints_partial_results_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e19", "--spec-timeout", "1ms"])
        .output()
        .expect("spawn experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("PARTIAL RESULTS"), "stdout: {stdout}");
    assert!(stdout.contains("timed out: stage"), "stdout: {stdout}");
}
