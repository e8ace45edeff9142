//! Pluggable snapshot sinks: where a [`MetricsSnapshot`] goes.
//!
//! Two sinks cover the workspace's needs:
//!
//! * [`TableSink`] — the class-grouped human table, conventionally on
//!   stderr (the CLI bins' `--metrics` flag), so deterministic stdout /
//!   JSONL contracts are never polluted.
//! * [`JsonSink`] — the deterministic-field JSON object
//!   ([`MetricsSnapshot::to_json`]), conventionally to a file.
//!
//! Both are thin `io::Write` adapters — a sink decides *formatting*, the
//! caller decides *when* and *where*.

use std::io::{self, Write};

use crate::snapshot::MetricsSnapshot;

/// Something that can receive a snapshot.
pub trait Sink {
    /// Writes one snapshot.
    fn emit(&mut self, snapshot: &MetricsSnapshot) -> io::Result<()>;
}

/// Renders the class-grouped table to a writer.
pub struct TableSink<W: Write> {
    out: W,
}

impl TableSink<io::Stderr> {
    /// A table sink on stderr — the conventional home for diagnostics.
    pub fn stderr() -> Self {
        Self { out: io::stderr() }
    }
}

impl<W: Write> TableSink<W> {
    /// A table sink on any writer.
    pub fn new(out: W) -> Self {
        Self { out }
    }
}

impl<W: Write> Sink for TableSink<W> {
    fn emit(&mut self, snapshot: &MetricsSnapshot) -> io::Result<()> {
        self.out.write_all(snapshot.render_table().as_bytes())?;
        self.out.flush()
    }
}

/// Writes the deterministic JSON object (plus a trailing newline) to a
/// writer.
pub struct JsonSink<W: Write> {
    out: W,
}

impl<W: Write> JsonSink<W> {
    /// A JSON sink on any writer.
    pub fn new(out: W) -> Self {
        Self { out }
    }
}

impl<W: Write> Sink for JsonSink<W> {
    fn emit(&mut self, snapshot: &MetricsSnapshot) -> io::Result<()> {
        self.out.write_all(snapshot.to_json().as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn sinks_write_their_formats() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").add(2);
        reg.diagnostic_counter("c.d_ns").add(9);
        let snap = reg.snapshot();

        let mut table = Vec::new();
        TableSink::new(&mut table).emit(&snap).unwrap();
        let table = String::from_utf8(table).unwrap();
        assert!(table.contains("a.b") && table.contains("deterministic counts"));

        let mut json = Vec::new();
        JsonSink::new(&mut json).emit(&snap).unwrap();
        let json = String::from_utf8(json).unwrap();
        assert_eq!(json, format!("{}\n", snap.to_json()));
        assert!(json.contains("\"a.b\": 2"));
    }
}
