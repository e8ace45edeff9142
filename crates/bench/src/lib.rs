//! # pd-bench — the experiment harness
//!
//! One module per experiment; each `run()` returns the report text it also
//! prints, so integration tests can assert on the numbers. The registry
//! ([`exp::all_experiments`]) hands every runner the [`pd_core::batch::BatchControl`]
//! the command line built ([`cli::CommonFlags`]); E6, E19 and E20 run their
//! batches under it, the rest ignore it. The experiment
//! index (paper anchor → experiment) lives in `EXPERIMENTS.md` at the repo
//! root; the `experiments` binary exposes each as a subcommand.
//!
//! Pipeline timings come from the offline benchmark in `benchmark/`
//! (`benchmark/README.md`).

#![forbid(unsafe_code)]

pub mod cli;
pub mod exp;

pub use exp::{all_experiments, run_all, run_by_name};
