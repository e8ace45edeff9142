//! The design-space search CLI.
//!
//! ```text
//! search                                 # default grid over every family
//! search --budget 24 --jobs 2           # first 24 grid points, 2 workers
//! search --strategy random --budget 16 --seed 7
//! search --strategy adaptive --budget 12 --eta 2
//! search --out results.jsonl            # stream JSONL; file is the resume
//!                                       # checkpoint — rerun to continue
//! search --axes cost,tco,bisection      # pick frontier axes by name
//! ```
//!
//! The JSONL output is byte-identical at any `--jobs` count, and a killed
//! run rerun with the same `--out` resumes from the file instead of
//! re-evaluating completed points. `--eval-budget N` stops the run
//! gracefully (flushing completed records) after at most `N` full
//! evaluations — deterministic incremental exploration: rerun with the
//! same `--out` to continue. `--spec-timeout`/`--deadline` bound wall
//! clock per design / per run; timed-out or cancelled points are *not*
//! written to the JSONL (a resume re-evaluates them), so the finished
//! file is byte-identical to an uninterrupted run's. `--retries N`
//! re-runs designs that panicked or stalled, without touching the output
//! bytes. Progress (with generation-cache
//! hit/miss counters) goes to stderr; tables go to stdout. `--metrics`
//! prints the full registry (search rungs, batch engine, caches,
//! per-stage `pipeline.<stage>.*` timings) on stderr, grouped by
//! determinism class — like the cache counters, stage timings are
//! scheduling-dependent and never enter the JSONL records; see
//! `docs/OBSERVABILITY.md`.

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

use pd_bench::cli::{parse, CommonFlags};
use pd_core::batch::ArtifactCache;
use pd_search::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: search [--strategy grid|random|adaptive] [--budget N] [--eta N] \
         [--seed N] [--jobs N] [--wave N] [--cache-cap N] [--out PATH] \
         [--axes a,b,...] [--eval-budget N] [--spec-timeout DUR] \
         [--deadline DUR] [--retries N] [--metrics] [--quiet]\n\
         axes: cost, tco, bisection, fault, throughput, deploy-time"
    );
    exit(2)
}

fn main() {
    let mut strategy_name = "grid".to_string();
    let mut budget: Option<usize> = None;
    let mut eta: usize = 2;
    let mut seed: u64 = 11;
    let mut jobs: usize = 0;
    let mut wave: usize = 8;
    let mut cache_cap: Option<usize> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut axis_names = "cost,fault,tco,bisection".to_string();
    let mut progress = true;
    let mut common = CommonFlags::new();
    let mut eval_budget: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strategy" => strategy_name = parse("--strategy", args.next()),
            "--budget" => budget = Some(parse("--budget", args.next())),
            "--eta" => eta = parse("--eta", args.next()),
            "--seed" => seed = parse("--seed", args.next()),
            "--jobs" | "-j" => jobs = parse("--jobs", args.next()),
            "--wave" => wave = parse("--wave", args.next()),
            "--cache-cap" => cache_cap = Some(parse("--cache-cap", args.next())),
            "--out" => out_path = Some(PathBuf::from(parse::<String>("--out", args.next()))),
            "--axes" => axis_names = parse("--axes", args.next()),
            "--eval-budget" => eval_budget = Some(parse("--eval-budget", args.next())),
            "--quiet" => progress = false,
            "--help" | "-h" => usage(),
            other => {
                if !common.consume(other, &mut args) {
                    eprintln!("unknown argument {other:?}");
                    usage()
                }
            }
        }
    }

    let strategy = Strategy::resolve(Some(&strategy_name), budget, Some(seed), Some(eta))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        });
    let names: Vec<&str> = axis_names.split(',').map(str::trim).collect();
    let axes = axes_by_name(&names).unwrap_or_else(|| {
        eprintln!("unknown axis in {axis_names:?}");
        usage()
    });

    // The default space: every family at the two E6-bracketing sizes in
    // both the standard and the floor-constrained hall, with a small fault
    // ensemble so the fault-retention axis is populated.
    let cfg = SearchConfig {
        space: ParamSpace {
            halls: vec![HallVariant::Standard, HallVariant::Dense],
            seeds: vec![seed],
            ..ParamSpace::default()
        },
        strategy,
        jobs,
        wave,
        cache: cache_cap.map(|cap| Arc::new(ArtifactCache::with_capacity(cap))),
        progress,
        control: common.control.clone(),
        eval_budget,
    };

    let outcome = match &out_path {
        Some(path) => run_search_to_path(&cfg, path).unwrap_or_else(|e| {
            eprintln!("search: cannot write {}: {e}", path.display());
            exit(1)
        }),
        None => run_search(&cfg),
    };

    common.finish();

    println!(
        "search: {} strategy over {} grid points → {} records \
         ({} evaluated, {} reused, {} pruned; gen-cache {} hits / {} misses)",
        cfg.strategy.name(),
        cfg.space.len(),
        outcome.records.len(),
        outcome.evaluated,
        outcome.reused,
        outcome.pruned,
        outcome.cache_hits,
        outcome.cache_misses,
    );
    if outcome.interrupted {
        println!(
            "search: stopped early (budget/deadline/cancel); completed records \
             are flushed — rerun with the same --out to continue"
        );
    }
    if let Some(path) = &out_path {
        println!("records: {}", path.display());
    }

    println!("\nglobal Pareto frontier:");
    let front = pd_search::frontier::frontier(&outcome.records, &axes);
    print!(
        "{}",
        pd_search::frontier::render_frontier(&outcome.records, &front, &axes)
    );

    println!("\nper-family frontier sizes:");
    for (family, front) in frontier_by_family(&outcome.records, &axes) {
        println!("  {family:<14} {} frontier point(s)", front.len());
    }

    println!("\nfeasibility envelope:");
    print!("{}", render_envelopes(&map_envelopes(&outcome.records)));
}
