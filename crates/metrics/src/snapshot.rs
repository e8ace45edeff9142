//! Point-in-time metric snapshots and their deterministic serializations.
//!
//! A [`MetricsSnapshot`] is plain data: every registered metric's name,
//! [`Class`], and value, sorted by name. Its JSON form is written by hand
//! (this crate is std-only) with a **fixed field order** — classes
//! segregated into two top-level objects, names sorted within each, and
//! every value an integer — so that the `counts` object of two runs can be
//! compared byte-for-byte as a determinism check. That property is load-
//! bearing: `pd-core`'s `tests/count_determinism.rs` compares the `counts`
//! bytes across `--jobs` settings and cache temperatures.

use crate::json;
use crate::registry::Class;

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's cells (see [`crate::cells::Histogram`]).
    Histogram {
        /// Samples recorded.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Largest sample (0 when empty).
        max: u64,
        /// Inclusive upper bounds, in order.
        bounds: Vec<u64>,
        /// Per-bucket counts; one longer than `bounds` (overflow last).
        buckets: Vec<u64>,
    },
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The dotted metric name.
    pub name: String,
    /// The determinism class it was registered under.
    pub class: Class,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// Every registered metric at one point in time, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// The entries, in ascending name order.
    pub entries: Vec<SnapshotEntry>,
}

impl MetricsSnapshot {
    /// The entry named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&SnapshotEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The entries of one class, in name order.
    pub fn of_class(&self, class: Class) -> impl Iterator<Item = &SnapshotEntry> {
        self.entries.iter().filter(move |e| e.class == class)
    }

    /// The deterministic JSON form:
    ///
    /// ```json
    /// {
    ///   "counts": { "<name>": <value>, ... },
    ///   "diagnostics": { "<name>": <value>, ... }
    /// }
    /// ```
    ///
    /// Counters and gauges serialize as bare integers; histograms as
    /// `{"count":N,"sum":N,"max":N,"buckets":[[bound,count],...],
    /// "overflow":N}` — field order fixed, integers only (the float `mean`
    /// is derivable and deliberately excluded, so no float-formatting
    /// question can perturb the bytes).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, class) in [Class::Count, Class::Diagnostic].iter().enumerate() {
            let key = match class {
                Class::Count => "counts",
                Class::Diagnostic => "diagnostics",
            };
            out.push_str("  \"");
            out.push_str(key);
            out.push_str("\": {");
            let mut first = true;
            for e in self.of_class(*class) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                json::write_string(&mut out, &e.name).expect("writing to a String cannot fail");
                out.push_str(": ");
                write_value(&mut out, &e.value);
            }
            if !first {
                out.push_str("\n  ");
            }
            out.push('}');
            if i == 0 {
                out.push(',');
            }
            out.push('\n');
        }
        out.push('}');
        out
    }

    /// The human table `--metrics` prints on stderr: class-grouped,
    /// name-aligned.
    pub fn render_table(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .max()
            .unwrap_or(0)
            .max("metric".len());
        let mut out = format!("{:<width$}  {:>14}  detail\n", "metric", "value");
        for (class, header) in [
            (Class::Count, "deterministic counts"),
            (
                Class::Diagnostic,
                "diagnostics (scheduling/timing-dependent)",
            ),
        ] {
            let mut wrote_header = false;
            for e in self.of_class(class) {
                if !wrote_header {
                    out.push_str(&format!("-- {header} --\n"));
                    wrote_header = true;
                }
                match &e.value {
                    MetricValue::Counter(v) => {
                        out.push_str(&format!("{:<width$}  {v:>14}\n", e.name));
                    }
                    MetricValue::Gauge(v) => {
                        out.push_str(&format!("{:<width$}  {v:>14}  gauge\n", e.name));
                    }
                    MetricValue::Histogram {
                        count, sum, max, ..
                    } => {
                        let mean = if *count == 0 {
                            0.0
                        } else {
                            *sum as f64 / *count as f64
                        };
                        out.push_str(&format!(
                            "{:<width$}  {count:>14}  mean {mean:.1}, max {max}\n",
                            e.name
                        ));
                    }
                }
            }
        }
        out
    }
}

fn write_value(out: &mut String, value: &MetricValue) {
    match value {
        MetricValue::Counter(v) => out.push_str(&v.to_string()),
        MetricValue::Gauge(v) => out.push_str(&v.to_string()),
        MetricValue::Histogram {
            count,
            sum,
            max,
            bounds,
            buckets,
        } => {
            out.push_str(&format!(
                "{{\"count\":{count},\"sum\":{sum},\"max\":{max},\"buckets\":["
            ));
            for (i, (bound, n)) in bounds.iter().zip(buckets).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bound},{n}]"));
            }
            let overflow = buckets.last().copied().unwrap_or(0);
            out.push_str(&format!("],\"overflow\":{overflow}}}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("pipeline.generate.runs").add(4);
        reg.counter("batch.specs").add(4);
        reg.diagnostic_counter("pipeline.generate.wall_ns")
            .add(1234);
        reg.diagnostic_gauge("batch.jobs").set(8);
        reg.histogram("search.wave.size", &[4, 16]).record(8);
        reg
    }

    #[test]
    fn json_field_ordering_is_fixed_and_sorted() {
        let json = sample_registry().snapshot().to_json();
        // counts object first, diagnostics second.
        let counts_at = json.find("\"counts\"").unwrap();
        let diags_at = json.find("\"diagnostics\"").unwrap();
        assert!(counts_at < diags_at);
        // Names sorted within each section.
        let batch = json.find("\"batch.specs\"").unwrap();
        let generate = json.find("\"pipeline.generate.runs\"").unwrap();
        let wave = json.find("\"search.wave.size\"").unwrap();
        assert!(batch < generate && generate < wave);
        // Histogram field order is pinned.
        assert!(json.contains(
            "\"search.wave.size\": {\"count\":1,\"sum\":8,\"max\":8,\"buckets\":[[4,0],[16,1]],\"overflow\":0}"
        ));
        // Diagnostics are segregated, not interleaved.
        let counts_obj = &json[counts_at..diags_at];
        assert!(!counts_obj.contains("wall_ns"));
        assert!(!counts_obj.contains("batch.jobs"));
    }

    #[test]
    fn json_is_byte_stable_across_snapshots() {
        let reg = sample_registry();
        assert_eq!(reg.snapshot().to_json(), reg.snapshot().to_json());
    }

    #[test]
    fn empty_snapshot_serializes_cleanly() {
        let json = MetricsSnapshot::default().to_json();
        assert_eq!(json, "{\n  \"counts\": {},\n  \"diagnostics\": {}\n}");
    }

    #[test]
    fn table_groups_by_class() {
        let table = sample_registry().snapshot().render_table();
        let counts_at = table.find("deterministic counts").unwrap();
        let diags_at = table.find("diagnostics (").unwrap();
        assert!(counts_at < diags_at);
        assert!(table.find("batch.specs").unwrap() < diags_at);
        assert!(table.find("pipeline.generate.wall_ns").unwrap() > diags_at);
        assert!(table.contains("mean 8.0, max 8"));
    }

    #[test]
    fn get_and_of_class_accessors() {
        let snap = sample_registry().snapshot();
        assert!(snap.get("batch.specs").is_some());
        assert!(snap.get("nope").is_none());
        assert_eq!(snap.of_class(Class::Count).count(), 3);
        assert_eq!(snap.of_class(Class::Diagnostic).count(), 2);
    }
}
