//! The pd-serve daemon CLI.
//!
//! ```text
//! serve                                  # loopback :4717, one worker/core
//! serve --addr 127.0.0.1:0 --jobs 2      # OS-assigned port, 2 workers
//! serve --queue-cap 8 --spec-timeout 30s --deadline 2m
//! serve --cache-cap 1024 --metrics       # bigger session cache, table on exit
//! ```
//!
//! Binds, prints `pd-serve listening on <addr>` (stdout, flushed — scripts
//! backgrounding the daemon can wait for it), then serves until a client
//! sends `{"op":"shutdown"}` or [`pd_serve::ServerHandle::shutdown`] fires.
//! The drain finishes every admitted request, flushes every connection,
//! and the process exits 0. Protocol and drain semantics:
//! `docs/ARCHITECTURE.md` ("Serving layer").

use std::io::Write;
use std::process::exit;

use pd_bench::cli::{duration, emit_metrics_table, parse};
use pd_serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--jobs N] [--queue-cap N] \
         [--spec-timeout DUR] [--deadline DUR] [--retries N] \
         [--watchdog DUR] [--cache-cap N] [--max-line-bytes N] [--metrics]\n\
         defaults: --addr 127.0.0.1:4717, --jobs 0 (one per core), \
         --queue-cap 64, --cache-cap 512 (0 = unbounded)"
    );
    exit(2)
}

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:4717".to_string(),
        ..ServerConfig::default()
    };
    let mut metrics = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = parse("--addr", args.next()),
            "--jobs" | "-j" => cfg.jobs = parse("--jobs", args.next()),
            "--queue-cap" => cfg.queue_cap = parse("--queue-cap", args.next()),
            // Resilience knobs are per-server config here, not the
            // `CommonFlags` control the batch bins build: the daemon
            // derives a BatchControl per job.
            "--spec-timeout" => cfg.spec_timeout = Some(duration("--spec-timeout", args.next())),
            "--deadline" => cfg.default_deadline = Some(duration("--deadline", args.next())),
            "--retries" => cfg.retries = parse("--retries", args.next()),
            "--watchdog" => cfg.watchdog = Some(duration("--watchdog", args.next())),
            "--cache-cap" => {
                let cap: usize = parse("--cache-cap", args.next());
                cfg.cache_cap = (cap > 0).then_some(cap);
            }
            "--max-line-bytes" => cfg.max_line_bytes = parse("--max-line-bytes", args.next()),
            "--metrics" => metrics = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }

    let server = Server::bind(cfg).unwrap_or_else(|e| {
        eprintln!("serve: cannot bind: {e}");
        exit(1)
    });
    println!("pd-serve listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    let stats = server.run().unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        exit(1)
    });
    println!(
        "pd-serve drained: {} connection(s), {} request(s), {} completed, {} rejected",
        stats.connections, stats.requests, stats.completed, stats.rejected
    );
    if metrics {
        emit_metrics_table();
    }
}
