//! The experiment runner.
//!
//! ```text
//! experiments                    # list experiments
//! experiments e6                 # run one
//! experiments all                # run every experiment in order
//! experiments all --jobs 8       # same output, 8 worker threads
//! experiments all --jobs 0       # one worker per core
//! experiments e6 --metrics       # + global pd-metrics table on stderr
//! experiments e6 --spec-timeout 30s   # per-design deadline
//! experiments all --deadline 10m      # whole-run wall-clock budget
//! experiments all --retries 1         # retry transient failures once
//! ```
//!
//! Experiments are independent and deterministic, so `--jobs` changes only
//! wall-clock time: the output is byte-identical at any job count.
//! `--spec-timeout` and `--deadline` bound wall clock per design and per
//! run (durations like `500ms`, `30s`, `5m`); a design that runs over is
//! reported as `timed out: stage <name>` instead of hanging the run —
//! **partial-success mode**: the run still exits 0 with every completed
//! row present. The three resilience flags build one `BatchControl` that
//! every experiment receives; E6, E19 and E20 run their batches under it. `--retries N` re-runs a design that panicked or was stalled
//! (watchdog-cancelled) up to N extra times with seeded backoff; retries
//! never change the deterministic outputs (see `docs/OBSERVABILITY.md`).
//! `--metrics` prints the process-wide metrics table to **stderr** when
//! the run finishes, per-stage `pipeline.<stage>.{runs,wall_ns,artifacts}`
//! included, grouped by determinism class — stdout stays the canonical,
//! deterministic experiment output. A reader that closes stdout early
//! (`experiments list | head -1`) ends the run with exit 0; any other
//! write error is one line on stderr and exit 1.

use pd_bench::cli::CommonFlags;
use pd_bench::{all_experiments, run_all, run_by_name};
use pd_core::batch::BatchControl;
use std::io::{ErrorKind, Write};

fn main() {
    let mut jobs: usize = 1;
    let mut common = CommonFlags::new();
    let mut command: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let jobs_value = if let Some(v) = arg.strip_prefix("--jobs=") {
            Some(v.to_string())
        } else if arg == "--jobs" || arg == "-j" {
            Some(args.next().unwrap_or_default())
        } else {
            None
        };
        if let Some(v) = jobs_value {
            jobs = match v.parse() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--jobs needs a number (0 = one per core), got {v:?}");
                    std::process::exit(2);
                }
            };
        } else if common.consume(&arg, &mut args) {
            // --spec-timeout / --deadline / --retries / --metrics
        } else if command.is_none() {
            command = Some(arg);
        } else {
            eprintln!("unexpected argument {arg:?}; try `experiments list`");
            std::process::exit(2);
        }
    }

    let written = write_output(
        command.as_deref(),
        jobs,
        &common.control,
        &mut std::io::stdout().lock(),
    );
    common.finish();
    match written {
        // A reader that stops early (`experiments list | head -1`) has
        // taken all it wanted.
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("experiments: cannot write to stdout: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}

/// Runs `command` under `control` and writes its output to `out`,
/// stopping at the first write error.
fn write_output(
    command: Option<&str>,
    jobs: usize,
    control: &BatchControl,
    out: &mut impl Write,
) -> std::io::Result<()> {
    match command {
        None | Some("list") => {
            writeln!(out, "physnet experiments (see EXPERIMENTS.md):\n")?;
            for (name, desc, _) in all_experiments() {
                writeln!(out, "  {name:<4} {desc}")?;
            }
            writeln!(
                out,
                "\nusage: experiments <e1..e20 | all> [--jobs N] [--metrics] \
                 [--spec-timeout DUR] [--deadline DUR] [--retries N]"
            )?;
        }
        Some("all") => {
            for (_, report) in run_all(jobs, control) {
                writeln!(out, "\n{}\n{}", "═".repeat(72), report)?;
            }
        }
        Some(name) => match run_by_name(name, control) {
            Some(report) => writeln!(out, "{report}")?,
            None => {
                eprintln!("unknown experiment {name:?}; try `experiments list`");
                std::process::exit(2);
            }
        },
    }
    out.flush()
}
