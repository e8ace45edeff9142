//! Shared flag parsing for the pd-bench binaries.
//!
//! [`parse`], [`parse_list`] and [`duration`] read one flag's value.
//! [`CommonFlags`] is the resilience and observability dialect of
//! `experiments` and `search`: `--spec-timeout` / `--deadline` /
//! `--retries` set the process-wide batch-engine defaults
//! ([`pd_core::resilience`]), and `--metrics` prints the global
//! [`pd_metrics`] registry table on exit. `serve` parses those three
//! flags into its own `ServerConfig` instead, and prints the table with
//! [`emit_metrics_table`]. `client` and `loadgen` accept none of them.
//!
//! Parse failures print the precise complaint and exit 2 — the
//! argument-error convention every bin already follows.

use std::process::exit;
use std::time::Duration;

use pd_core::resilience::{
    parse_duration, set_global_deadline, set_global_retry, set_global_spec_timeout, RetryPolicy,
};

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
    let mut sink = pd_metrics::TableSink::stderr();
    if let Err(e) = pd_metrics::Sink::emit(&mut sink, &pd_metrics::global().snapshot()) {
        eprintln!("metrics: cannot write table: {e}");
    }
}

/// The flag set shared by every bin that drives the batch engine:
/// `--spec-timeout DUR`, `--deadline DUR`, `--retries N` (process-wide
/// resilience defaults) and `--metrics` (registry table on exit).
#[derive(Debug, Default)]
pub struct CommonFlags {
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
                set_global_spec_timeout(duration("--spec-timeout", args.next()));
            }
            "--deadline" => {
                set_global_deadline(duration("--deadline", args.next()));
            }
            "--retries" => {
                set_global_retry(RetryPolicy::retries(parse("--retries", args.next())));
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
}
