//! # pd-metrics — std-only observability for the physnet workspace
//!
//! The ROADMAP's north star demands a system that "runs as fast as the
//! hardware allows" — which is unfalsifiable without numbers that persist
//! across runs. This crate is the workspace's measurement substrate:
//! counters, gauges, and fixed-bucket histograms behind lock-free atomic
//! cells (the same discipline as `pd_core::stages::StageTrace`), collected
//! in a [`MetricsRegistry`] under hierarchical dotted names
//! (`pipeline.place.wall_ns`, `cache.gen.hits`, `search.rung_a.pruned`)
//! and drained as a [`MetricsSnapshot`] — a pretty table for stderr
//! ([`MetricsSnapshot::render_table`]) and deterministic-field JSON for
//! files ([`MetricsSnapshot::to_json`]).
//!
//! ## The determinism contract
//!
//! Every metric is registered under a [`Class`]:
//!
//! * [`Class::Count`] — **deterministic** quantities (stage runs, artifact
//!   counts, specs evaluated, rungs pruned). These are pure functions of
//!   the workload and must be byte-identical at any `--jobs` setting and
//!   on a cold or warm artifact cache; `pd-core`'s
//!   `tests/count_determinism.rs` pins both.
//! * [`Class::Diagnostic`] — **scheduling- or timing-dependent** quantities
//!   (wall nanoseconds, queue depths, worker occupancy, bounded-cache
//!   hit/miss/eviction counters). These may vary run to run and are
//!   segregated into their own snapshot section so they can never leak
//!   into deterministic outputs.
//!
//! The split is enforced structurally: [`snapshot::MetricsSnapshot`]
//! serializes the two classes into separate top-level JSON objects, so a
//! byte comparison of the `counts` object is a meaningful determinism
//! check even when the same file also records timings. See
//! `docs/OBSERVABILITY.md` for the full metric-name catalog.
//!
//! ## Design constraints
//!
//! * **std-only.** No external dependencies, so every workspace crate can
//!   instrument itself without widening its dependency cone, and the crate
//!   compiles (and its tests run) with a bare `rustc`. For the same reason
//!   the workspace's one JSON implementation, [`json`], lives here.
//! * **Lock-free on the hot path.** Recording into a cell is one or two
//!   `Relaxed` atomic RMWs. The registry's mutex is touched only at
//!   registration time; instrument sites cache their `Arc` handles (see
//!   `pd_core::batch` for the idiom).
//! * **Zero policy.** The crate never prints, never samples, never
//!   truncates; deciding when to snapshot and where to write it is entirely
//!   the caller's.
//!
//! ```
//! use pd_metrics::{MetricsRegistry, Class};
//!
//! let reg = MetricsRegistry::new();
//! let evals = reg.counter("pipeline.evaluations");
//! let wall = reg.diagnostic_histogram("pipeline.wall_ns", &[1_000, 1_000_000]);
//! evals.add(3);
//! wall.record(500);
//! wall.record(2_000_000);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.get("pipeline.evaluations").unwrap().class, Class::Count);
//! let json = snap.to_json();
//! assert!(json.starts_with("{\n  \"counts\": {"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod json;
pub mod registry;
pub mod snapshot;

pub use cells::{Counter, Gauge, Histogram};
pub use registry::{global, Class, MetricError, MetricKind, MetricsRegistry};
pub use snapshot::{MetricValue, MetricsSnapshot, SnapshotEntry};
