//! Shared flag parsing for the pd-bench binaries.
//!
//! [`parse`], [`parse_list`] and [`duration`] read one flag's value.
//! [`CommonFlags`] is the resilience and observability dialect of
//! `experiments` and `search`: `--spec-timeout` / `--deadline` /
//! `--retries` build the one [`BatchControl`] the bin passes down to
//! every batch, and `--metrics` prints the global [`pd_metrics`]
//! registry table on exit. `serve` parses those three
//! flags into its own `ServerConfig` instead, and prints the table with
//! [`emit_metrics_table`]. `client` and `loadgen` accept none of them.
//!
//! Parse failures print the precise complaint and exit 2 — the
//! argument-error convention every bin already follows.

use std::process::exit;
use std::time::Duration;

use pd_core::batch::BatchControl;
use pd_core::resilience::{parse_duration, Deadline, RetryPolicy};

/// Parses a flag's value, exiting 2 with the flag's name on failure or a
/// missing value.
pub fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a valid value");
        exit(2)
    })
}

/// Parses a comma-separated list, exiting 2 naming the element that
/// failed.
pub fn parse_list<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Vec<T> {
    let raw: String = parse(flag, v);
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("{flag}: cannot parse {s:?}");
                exit(2)
            })
        })
        .collect()
}

/// Parses a human duration (`500ms`, `30s`, `5m`, bare seconds), exiting
/// 2 with the typed [`pd_core::resilience::DurationParseError`] rendering
/// on rejection.
pub fn duration(flag: &str, v: Option<String>) -> Duration {
    let raw: String = parse(flag, v);
    parse_duration(&raw).unwrap_or_else(|e| {
        eprintln!("{flag} needs a duration like 500ms, 30s, or 5m; got {raw:?}: {e}");
        exit(2)
    })
}

/// Prints the global metrics registry as a table on stderr — the
/// `--metrics` epilogue every bin shares.
pub fn emit_metrics_table() {
    eprintln!(
        "global metrics (diagnostics section is scheduling-dependent; see docs/OBSERVABILITY.md):"
    );
    eprint!("{}", pd_metrics::global().snapshot().render_table());
}

/// The flag set shared by every bin that drives the batch engine:
/// `--spec-timeout DUR`, `--deadline DUR`, `--retries N` (the batch
/// [`control`](Self::control)) and `--metrics` (registry table on exit).
#[derive(Debug, Default)]
pub struct CommonFlags {
    /// The resilience control the flags describe; inert when none was
    /// given. `--deadline` arms its batch deadline while parsing.
    pub control: BatchControl,
    /// Whether `--metrics` was given.
    pub metrics: bool,
}

impl CommonFlags {
    /// Ready-to-consume flags.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tries to consume `arg` (pulling its value from `args` when the
    /// flag takes one). Returns whether the argument was one of the
    /// shared set; the caller handles its own flags otherwise.
    pub fn consume(&mut self, arg: &str, args: &mut impl Iterator<Item = String>) -> bool {
        match arg {
            "--spec-timeout" => {
                self.control.spec_timeout = Some(duration("--spec-timeout", args.next()));
            }
            "--deadline" => {
                let budget = duration("--deadline", args.next());
                self.control.batch_deadline = Some(Deadline::after(budget));
            }
            "--retries" => {
                self.control.retry = RetryPolicy::retries(parse("--retries", args.next()));
            }
            "--metrics" => self.metrics = true,
            _ => return false,
        }
        true
    }

    /// The exit epilogue: prints the metrics table when `--metrics` was
    /// given.
    pub fn finish(&self) {
        if self.metrics {
            emit_metrics_table();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_flags_recognize_exactly_the_shared_set() {
        let mut flags = CommonFlags::new();
        let mut none = std::iter::empty::<String>();
        assert!(flags.consume("--metrics", &mut none));
        assert!(flags.metrics);
        assert!(!flags.consume("--kernel-jobs", &mut none));
        assert!(!flags.consume("--jobs", &mut none));
        assert!(!flags.consume("--quiet", &mut none));
        assert!(!flags.consume("metrics", &mut none));
    }

    #[test]
    fn resilience_flags_build_the_control() {
        let mut flags = CommonFlags::new();
        let mut values = ["5ms", "2", "1s"].map(String::from).into_iter();
        assert!(flags.consume("--spec-timeout", &mut values));
        assert!(flags.consume("--retries", &mut values));
        assert!(flags.consume("--deadline", &mut values));
        let control = &flags.control;
        assert_eq!(control.spec_timeout, Some(Duration::from_millis(5)));
        assert_eq!(control.retry, RetryPolicy::retries(2));
        let left = control.batch_deadline.expect("armed").remaining();
        assert!(left > Duration::from_millis(500) && left <= Duration::from_secs(1));
        assert!(!flags.metrics);
    }

    #[test]
    fn no_flags_leave_the_control_inert() {
        let control = CommonFlags::new().control;
        assert_eq!(control.spec_timeout, None);
        assert_eq!(control.batch_deadline, None);
        assert_eq!(control.retry, RetryPolicy::none());
        assert!(control.watchdog.is_none() && control.chaos.is_none());
        assert!(!control.cancel.is_cancelled());
    }
}
