//! The resilience flags reach the experiments that run batches: under a
//! per-design timeout too short for any design, E19 reports each design's
//! typed error instead of panicking, E20 reports the points its search did
//! not finish, and the run still exits 0.

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

/// E20's search is cut short by the same timeout: it says so, lists the
/// points it did not finish, and gives no family an envelope break or an
/// empty frontier that the interruption made.
#[test]
fn e20_under_a_spec_timeout_prints_partial_results_and_no_interrupted_breaks() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e20", "--spec-timeout", "1ms"])
        .output()
        .expect("spawn experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("PARTIAL RESULTS"), "stdout: {stdout}");
    assert!(
        stdout.contains("interrupted before it finished"),
        "stdout: {stdout}"
    );
    assert!(
        !stdout.contains("timed out"),
        "an interruption as a break: {stdout}"
    );
    // A family with an unfinished point is named as interrupted, once
    // under each table, and gets no envelope row.
    let cut = stdout
        .lines()
        .find_map(|l| l.strip_prefix("  interrupted before all their points finished: "))
        .expect("interrupted families listed");
    assert_eq!(
        stdout.matches(cut).count(),
        2,
        "under the frontier and the envelope map: {stdout}"
    );
    for family in cut.split(", ") {
        assert!(!stdout.contains(&format!("| {family} |")), "{stdout}");
    }
}
