//! The [`MetricsRegistry`]: hierarchical names → shared atomic cells.
//!
//! Names are dotted paths (`pipeline.place.wall_ns`, `cache.gen.hits`,
//! `search.rung_a.pruned`): purely a naming convention — the registry
//! stores a flat sorted map — but the table groups and sorts by it, so related
//! metrics render together. Registration is get-or-create: asking for an
//! existing name with the same kind, class, and (for histograms) bucket
//! layout returns a handle to the *same* cell, so independent instrument
//! sites can share a metric without coordinating; asking with a different
//! kind, class, or layout is an error — silently splitting or shadowing a
//! metric would corrupt every consumer downstream.
//!
//! The registry's mutex guards only the name map. Recording goes straight
//! to the `Arc`'d cells; hot paths register once (e.g. in a `OnceLock`)
//! and never touch the map again.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::cells::{Counter, Gauge, Histogram};
use crate::snapshot::{MetricValue, MetricsSnapshot, SnapshotEntry};

/// The determinism class of a metric — see the crate docs for the
/// contract this encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Deterministic: a pure function of the workload, byte-identical at
    /// any `--jobs` setting (stage runs, artifacts, specs, prune counts).
    Count,
    /// Scheduling- or timing-dependent: may vary run to run (wall times,
    /// queue depths, occupancy, bounded-cache hit/miss/evictions).
    Diagnostic,
}

impl Class {
    /// Stable lowercase name, used in snapshots and their renderings.
    pub fn name(self) -> &'static str {
        match self {
            Class::Count => "count",
            Class::Diagnostic => "diagnostic",
        }
    }
}

/// What kind of cell a name is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone [`Counter`].
    Counter,
    /// An up/down [`Gauge`].
    Gauge,
    /// A fixed-bucket [`Histogram`].
    Histogram,
}

impl MetricKind {
    /// Stable lowercase name for error messages and tables.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricError {
    /// The name is already bound to a different kind of cell.
    KindMismatch {
        /// The contested name.
        name: String,
        /// What the name is bound to.
        existing: MetricKind,
        /// What the caller asked for.
        requested: MetricKind,
    },
    /// The name is already registered under the other determinism class.
    ClassMismatch {
        /// The contested name.
        name: String,
        /// The registered class.
        existing: Class,
        /// What the caller asked for.
        requested: Class,
    },
    /// The name is a histogram with a different bucket layout (also
    /// returned by [`Histogram::merge_from`] on layout mismatch, with an
    /// empty name).
    BoundsMismatch {
        /// The contested name (empty for direct merges).
        name: String,
        /// The registered layout.
        existing: Vec<u64>,
        /// What the caller asked for.
        requested: Vec<u64>,
    },
}

impl std::fmt::Display for MetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricError::KindMismatch {
                name,
                existing,
                requested,
            } => write!(
                f,
                "metric {name:?} is a {}, not a {}",
                existing.name(),
                requested.name()
            ),
            MetricError::ClassMismatch {
                name,
                existing,
                requested,
            } => write!(
                f,
                "metric {name:?} is registered as {}, not {}",
                existing.name(),
                requested.name()
            ),
            MetricError::BoundsMismatch {
                name,
                existing,
                requested,
            } => write!(
                f,
                "histogram {name:?} has bounds {existing:?}, not {requested:?}"
            ),
        }
    }
}

impl std::error::Error for MetricError {}

enum Cell {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Cell {
    fn kind(&self) -> MetricKind {
        match self {
            Cell::Counter(_) => MetricKind::Counter,
            Cell::Gauge(_) => MetricKind::Gauge,
            Cell::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Entry {
    class: Class,
    cell: Cell,
}

/// A named collection of metric cells — see the module docs.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_register<T>(
        &self,
        name: &str,
        class: Class,
        extract: impl Fn(&Entry) -> Option<Arc<T>>,
        kind: MetricKind,
        make: impl FnOnce() -> Cell,
    ) -> Result<Arc<T>, MetricError> {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        if let Some(entry) = entries.get(name) {
            if entry.class != class {
                return Err(MetricError::ClassMismatch {
                    name: name.to_string(),
                    existing: entry.class,
                    requested: class,
                });
            }
            return extract(entry).ok_or_else(|| MetricError::KindMismatch {
                name: name.to_string(),
                existing: entry.cell.kind(),
                requested: kind,
            });
        }
        let entry = Entry {
            class,
            cell: make(),
        };
        let handle = extract(&entry).expect("freshly made cell matches its kind");
        entries.insert(name.to_string(), entry);
        Ok(handle)
    }

    /// Gets or registers a counter under `name` with an explicit class.
    pub fn try_counter(&self, name: &str, class: Class) -> Result<Arc<Counter>, MetricError> {
        self.get_or_register(
            name,
            class,
            |e| match &e.cell {
                Cell::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            MetricKind::Counter,
            || Cell::Counter(Arc::new(Counter::new())),
        )
    }

    /// A deterministic ([`Class::Count`]) counter.
    ///
    /// # Panics
    ///
    /// On kind/class collision — instrument sites use fixed literal names,
    /// so a collision is a programming error. Use [`Self::try_counter`]
    /// where names are data.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.try_counter(name, Class::Count).unwrap()
    }

    /// A [`Class::Diagnostic`] counter (timings, scheduling-dependent
    /// tallies). Panics like [`Self::counter`].
    pub fn diagnostic_counter(&self, name: &str) -> Arc<Counter> {
        self.try_counter(name, Class::Diagnostic).unwrap()
    }

    /// Gets or registers a gauge under `name` with an explicit class.
    pub fn try_gauge(&self, name: &str, class: Class) -> Result<Arc<Gauge>, MetricError> {
        self.get_or_register(
            name,
            class,
            |e| match &e.cell {
                Cell::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            MetricKind::Gauge,
            || Cell::Gauge(Arc::new(Gauge::new())),
        )
    }

    /// A deterministic gauge. Panics like [`Self::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.try_gauge(name, Class::Count).unwrap()
    }

    /// A [`Class::Diagnostic`] gauge. Panics like [`Self::counter`].
    pub fn diagnostic_gauge(&self, name: &str) -> Arc<Gauge> {
        self.try_gauge(name, Class::Diagnostic).unwrap()
    }

    /// Gets or registers a histogram under `name` with an explicit class
    /// and bucket layout (inclusive upper bounds, strictly increasing).
    /// Re-registration must present the identical layout.
    pub fn try_histogram(
        &self,
        name: &str,
        class: Class,
        bounds: &[u64],
    ) -> Result<Arc<Histogram>, MetricError> {
        let h = self.get_or_register(
            name,
            class,
            |e| match &e.cell {
                Cell::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            MetricKind::Histogram,
            || Cell::Histogram(Arc::new(Histogram::new(bounds))),
        )?;
        if h.bounds() != bounds {
            return Err(MetricError::BoundsMismatch {
                name: name.to_string(),
                existing: h.bounds().to_vec(),
                requested: bounds.to_vec(),
            });
        }
        Ok(h)
    }

    /// A deterministic histogram. Panics like [`Self::counter`].
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.try_histogram(name, Class::Count, bounds).unwrap()
    }

    /// A [`Class::Diagnostic`] histogram. Panics like [`Self::counter`].
    pub fn diagnostic_histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.try_histogram(name, Class::Diagnostic, bounds).unwrap()
    }

    /// Registered metric count.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("metrics registry poisoned")
            .len()
    }

    /// Whether nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes every cell, keeping all registrations (and live handles)
    /// valid. Call it at the start of a run so the final snapshot covers
    /// exactly one workload (`pd-core`'s `tests/count_determinism.rs`
    /// does this before each batch it compares).
    pub fn reset(&self) {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        for entry in entries.values() {
            match &entry.cell {
                Cell::Counter(c) => c.reset(),
                Cell::Gauge(g) => g.reset(),
                Cell::Histogram(h) => h.reset(),
            }
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    ///
    /// Concurrent recording is fine — each cell is read atomically; the
    /// snapshot is consistent per cell, not across cells, which is the
    /// usual (and sufficient) guarantee for run-end reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let entries = entries
            .iter()
            .map(|(name, entry)| SnapshotEntry {
                name: name.clone(),
                class: entry.class,
                value: match &entry.cell {
                    Cell::Counter(c) => MetricValue::Counter(c.get()),
                    Cell::Gauge(g) => MetricValue::Gauge(g.get()),
                    Cell::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts(),
                    },
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry every in-tree instrument site records into.
///
/// Always available and always recording (a disabled counter would cost
/// the same branch the increment costs); whether anything is *reported* is
/// the caller's choice — the CLI bins only print it behind `--metrics`, and
/// the offline benchmark reads it after each run.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_kind_shares_the_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("cache.gen.hits");
        let b = reg.counter("cache.gen.hits");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(2);
        assert_eq!(b.get(), 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn kind_collision_is_an_error() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("pipeline.place.wall_ns");
        let err = reg
            .try_gauge("pipeline.place.wall_ns", Class::Count)
            .unwrap_err();
        assert_eq!(
            err,
            MetricError::KindMismatch {
                name: "pipeline.place.wall_ns".into(),
                existing: MetricKind::Counter,
                requested: MetricKind::Gauge,
            }
        );
        // The display names the kinds, for the panic path's message.
        assert!(err.to_string().contains("counter"));
    }

    #[test]
    fn class_collision_is_an_error() {
        let reg = MetricsRegistry::new();
        let _ = reg.diagnostic_counter("batch.worker.busy_ns");
        let err = reg
            .try_counter("batch.worker.busy_ns", Class::Count)
            .unwrap_err();
        assert!(matches!(err, MetricError::ClassMismatch { .. }));
    }

    #[test]
    fn histogram_layout_collision_is_an_error() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("batch.queue.depth", &[1, 8, 64]);
        let b = reg
            .try_histogram("batch.queue.depth", Class::Count, &[1, 8, 64])
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let err = reg
            .try_histogram("batch.queue.depth", Class::Count, &[1, 2])
            .unwrap_err();
        assert!(matches!(err, MetricError::BoundsMismatch { .. }));
    }

    #[test]
    fn reset_zeroes_cells_but_keeps_handles_live() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a");
        let g = reg.diagnostic_gauge("b");
        let h = reg.histogram("c", &[10]);
        c.add(5);
        g.set(-2);
        h.record(3);
        reg.reset();
        assert_eq!((c.get(), g.get(), h.count()), (0, 0, 0));
        c.incr();
        assert_eq!(c.get(), 1, "old handles still reach the live cell");
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").incr();
        reg.counter("a.first").incr();
        reg.diagnostic_counter("m.middle").incr();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global().counter("test.registry.global");
        let b = global().counter("test.registry.global");
        assert!(Arc::ptr_eq(&a, &b));
    }
}
