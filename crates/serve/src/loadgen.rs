//! A seeded closed-loop load generator — and a live determinism checker.
//!
//! `N` connections each send `M` `evaluate` requests, one at a time
//! (closed loop: the next request leaves only after the previous response
//! arrives). Specs are drawn **deterministically** from a [`ParamSpace`]
//! by a per-connection [`SplitMix64`] stream seeded from `(seed, conn)`,
//! so two runs with the same config — against servers with any `--jobs`
//! count, any cache state, any interleaving — request exactly the same
//! spec sequence.
//!
//! That makes the harness double as the serving layer's determinism
//! check: every successful response body (the response minus its `id`,
//! re-serialized through `pd_metrics::json`'s sorted-key form) is
//! recorded per spec label, and any two responses for the same label must
//! be **byte-identical** — across requests, connections, and runs. The
//! outcome carries a digest over the canonical bodies so two separate
//! invocations (say `--jobs 1` vs `--jobs 8` servers) can be compared
//! with a single number.
//!
//! Load-dependent rejections (`overloaded`, `shutting_down`) are counted
//! but excluded from the body record — they describe the server's moment,
//! not the design. Typed evaluation errors are deterministic and are held
//! to the same byte-identity bar as reports.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pd_metrics::json::Value;
use pd_search::{ParamSpace, TrialProfile};
use pd_topology::gen::{cache_key, SplitMix64};

use crate::client::Client;
use crate::proto::{Op, Request, TierStatus, WireSpec, ERR_OVERLOADED, ERR_SHUTTING_DOWN};

/// A load run's shape. Every field participates in determinism except
/// `addr`.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The server to drive.
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Requests per connection.
    pub requests: usize,
    /// Root seed for the per-connection draw streams.
    pub seed: u64,
    /// The space specs are drawn from.
    pub space: ParamSpace,
    /// Optional per-request deadline to attach.
    pub deadline_ms: Option<u64>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4717".to_string(),
            connections: 4,
            requests: 16,
            seed: 11,
            space: default_space(),
            deadline_ms: None,
        }
    }
}

/// The default load space: every family at one modest size, no fault
/// sweep, small trial counts — requests that are cheap enough to push
/// real concurrency through a test server yet still exercise the whole
/// pipeline.
pub fn default_space() -> ParamSpace {
    ParamSpace {
        servers: vec![128],
        fault_scenarios: vec![0],
        trials: TrialProfile {
            yield_trials: 5,
            repair_trials: 2,
        },
        ..ParamSpace::default()
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadgenOutcome {
    /// Requests sent.
    pub sent: usize,
    /// Successful (`ok: true`) responses.
    pub ok: usize,
    /// Typed evaluation errors (deterministic; still body-checked).
    pub eval_errors: usize,
    /// Admission rejections (`overloaded` / `shutting_down`).
    pub rejected: usize,
    /// Distinct spec labels observed.
    pub distinct_specs: usize,
    /// Byte-identity violations: any label whose responses disagreed.
    /// Empty on a healthy deterministic server.
    pub mismatches: Vec<String>,
    /// FNV-1a digest over `(label, canonical body)` pairs in sorted
    /// order. Equal configs against equal-code servers yield equal
    /// digests, whatever the servers' job counts.
    pub body_digest: u64,
    /// Wall clock for the whole run.
    pub wall: Duration,
    /// Completed-response latency percentiles.
    pub latency: LatencySummary,
    /// The server's per-tier artifact-cache statistics, fetched with one
    /// `status` request after the load completes. Diagnostics only —
    /// deliberately excluded from [`LoadgenOutcome::body_digest`], which
    /// must stay equal across cache states. Empty if the fetch failed
    /// (the load results still stand).
    pub artifact_tiers: Vec<TierStatus>,
}

/// Latency percentiles over completed (non-rejected) responses.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Slowest observed.
    pub max: Duration,
}

impl LoadgenOutcome {
    /// Completed responses per second.
    pub fn throughput_rps(&self) -> f64 {
        let done = (self.ok + self.eval_errors) as f64;
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            done / secs
        } else {
            0.0
        }
    }

    /// Whether every repeated spec got byte-identical bodies.
    pub fn bodies_consistent(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The human-readable report the `loadgen` bin prints.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "loadgen: {} sent, {} ok, {} eval-errors, {} rejected in {:.2?} \
             ({:.1} responses/s)\n\
             latency: p50 {:.2?}  p90 {:.2?}  p99 {:.2?}  max {:.2?}\n\
             determinism: {} distinct spec(s), {} mismatch(es), body digest {:016x}\n",
            self.sent,
            self.ok,
            self.eval_errors,
            self.rejected,
            self.wall,
            self.throughput_rps(),
            self.latency.p50,
            self.latency.p90,
            self.latency.p99,
            self.latency.max,
            self.distinct_specs,
            self.mismatches.len(),
            self.body_digest,
        );
        out.push_str(&render_tier_table(&self.artifact_tiers));
        out
    }
}

/// Renders per-tier artifact-cache statistics as indented lines, one per
/// tier, in pipeline order; empty input renders nothing. Shared by the
/// loadgen summary and the `client` bin's `status` pretty-printer.
pub fn render_tier_table(tiers: &[TierStatus]) -> String {
    if tiers.is_empty() {
        return String::new();
    }
    let mut out = String::from("artifact cache (per tier): hits / misses / evictions / entries\n");
    for t in tiers {
        out.push_str(&format!(
            "  {:<9} {:>6} / {:>6} / {:>6} / {:>6}\n",
            t.stage, t.hits, t.misses, t.evictions, t.entries
        ));
    }
    out
}

/// The canonical comparison form of a parsed response: its JSON with the
/// `id` removed (ids differ per request by design), re-serialized through
/// the sorted-key [`Value`] so field order can never alias a real
/// difference.
pub fn canonical_body(mut response: Value) -> String {
    if let Some(obj) = response.as_object_mut() {
        obj.remove("id");
    }
    response.to_string()
}

/// Whether a parsed response is a load-dependent rejection (excluded from
/// the byte-identity record).
fn is_rejection(response: &Value) -> bool {
    response
        .get("error")
        .and_then(Value::as_str)
        .is_some_and(|e| e.starts_with(ERR_OVERLOADED) || e.starts_with(ERR_SHUTTING_DOWN))
}

/// The deterministic spec stream for one connection.
fn draw_stream(cfg: &LoadgenConfig, conn: usize) -> impl Iterator<Item = WireSpec> + '_ {
    // Seed each connection's stream independently of every other's: a
    // splitmix step over (root seed, connection index) decorrelates
    // adjacent seeds without any cross-connection coordination.
    let mut rng = SplitMix64::new(
        SplitMix64::new(cfg.seed ^ (conn as u64).wrapping_mul(0x9E3779B97F4A7C15)).next_u64(),
    );
    let space = &cfg.space;
    (0..cfg.requests).map(move |_| {
        let point = space.point(rng.below(space.len().max(1)));
        WireSpec::for_point(&point, &space.trials)
    })
}

/// Shared tally the connection threads fold into.
#[derive(Default)]
struct Tally {
    ok: usize,
    eval_errors: usize,
    rejected: usize,
    latencies: Vec<Duration>,
    /// label → canonical body first seen for it.
    bodies: BTreeMap<String, String>,
    mismatches: Vec<String>,
    io_errors: Vec<String>,
}

impl Tally {
    fn record_body(&mut self, label: &str, body: String) {
        match self.bodies.get(label) {
            None => {
                self.bodies.insert(label.to_string(), body);
            }
            Some(prev) if *prev == body => {}
            Some(_) => self.mismatches.push(format!(
                "spec {label}: response bodies differ across requests"
            )),
        }
    }
}

/// Runs the load. Connection threads run their closed loops concurrently;
/// an I/O failure on one connection fails the run (a load test against a
/// dying server is not a measurement).
pub fn run_loadgen(cfg: &LoadgenConfig) -> std::io::Result<LoadgenOutcome> {
    if cfg.space.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "loadgen space is empty",
        ));
    }
    let tally = Mutex::new(Tally::default());
    let started = Instant::now();

    std::thread::scope(|s| {
        for conn in 0..cfg.connections {
            let tally = &tally;
            s.spawn(move || {
                let result = drive_connection(cfg, conn, tally);
                if let Err(e) = result {
                    tally
                        .lock()
                        .expect("tally lock")
                        .io_errors
                        .push(format!("connection {conn}: {e}"));
                }
            });
        }
    });

    let wall = started.elapsed();
    let mut tally = tally.into_inner().expect("tally lock");
    if let Some(first) = tally.io_errors.first() {
        return Err(std::io::Error::other(first.clone()));
    }

    tally.latencies.sort();
    let pct = |latencies: &[Duration], p: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    let latency = LatencySummary {
        p50: pct(&tally.latencies, 0.50),
        p90: pct(&tally.latencies, 0.90),
        p99: pct(&tally.latencies, 0.99),
        max: tally.latencies.last().copied().unwrap_or_default(),
    };

    let mut digest_input = Vec::new();
    for (label, body) in &tally.bodies {
        digest_input.extend_from_slice(label.as_bytes());
        digest_input.push(0);
        digest_input.extend_from_slice(body.as_bytes());
        digest_input.push(0);
    }

    Ok(LoadgenOutcome {
        sent: cfg.connections * cfg.requests,
        ok: tally.ok,
        eval_errors: tally.eval_errors,
        rejected: tally.rejected,
        distinct_specs: tally.bodies.len(),
        mismatches: std::mem::take(&mut tally.mismatches),
        body_digest: cache_key(&digest_input),
        wall,
        latency,
        artifact_tiers: fetch_tier_stats(cfg).unwrap_or_default(),
    })
}

/// Fetches the server's per-tier cache statistics with one `status`
/// round trip on a fresh connection. Best-effort: any failure yields
/// `None` rather than failing the measured load run.
fn fetch_tier_stats(cfg: &LoadgenConfig) -> Option<Vec<TierStatus>> {
    let mut client = Client::connect(cfg.addr.as_str()).ok()?;
    let resp = client
        .request(&Request::bare("loadgen-status", Op::Status))
        .ok()?;
    Some(resp.status?.artifact_tiers)
}

/// One connection's closed loop.
fn drive_connection(cfg: &LoadgenConfig, conn: usize, tally: &Mutex<Tally>) -> std::io::Result<()> {
    let mut client = Client::connect_retry(cfg.addr.as_str(), Duration::from_secs(5))?;
    for (r, wire) in draw_stream(cfg, conn).enumerate() {
        let label = {
            let (point, _) = wire
                .resolve()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            point.label()
        };
        let req = Request {
            deadline_ms: cfg.deadline_ms,
            ..Request::evaluate(Value::from(format!("c{conn}-r{r}")), wire)
        };
        let sent_at = Instant::now();
        client.send(&req)?;
        let Some(line) = client.recv_line()? else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-run",
            ));
        };
        let elapsed = sent_at.elapsed();
        let response = line.parse::<Value>();

        let mut t = tally.lock().expect("tally lock");
        if response.as_ref().is_ok_and(is_rejection) {
            t.rejected += 1;
            continue;
        }
        t.latencies.push(elapsed);
        let ok = response
            .as_ref()
            .ok()
            .and_then(|v| v.get("ok").and_then(Value::as_bool))
            .unwrap_or(false);
        if ok {
            t.ok += 1;
        } else {
            t.eval_errors += 1;
        }
        match response {
            Ok(response) => t.record_body(&label, canonical_body(response)),
            Err(e) => t
                .mismatches
                .push(format!("spec {label}: unparseable response: {e}")),
        }
    }
    let _ = client.finish_sending();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_streams_are_deterministic_and_distinct_per_connection() {
        let cfg = LoadgenConfig::default();
        let a: Vec<WireSpec> = draw_stream(&cfg, 0).collect();
        let b: Vec<WireSpec> = draw_stream(&cfg, 0).collect();
        assert_eq!(a, b, "same (seed, conn) → same stream");
        assert_eq!(a.len(), cfg.requests);

        let other: Vec<WireSpec> = draw_stream(&cfg, 1).collect();
        assert_ne!(a, other, "different connections draw different streams");

        let mut reseeded = cfg.clone();
        reseeded.seed = 12;
        let c: Vec<WireSpec> = draw_stream(&reseeded, 0).collect();
        assert_ne!(a, c, "different root seed → different stream");
    }

    #[test]
    fn canonical_body_strips_id_and_sorts_keys() {
        let a = canonical_body(r#"{"id":"x","ok":true,"report":null}"#.parse().unwrap());
        let b = canonical_body(r#"{"report":null,"ok":true,"id":999}"#.parse().unwrap());
        assert_eq!(a, b, "id and key order must not distinguish bodies");
        assert!(!a.contains("id"));
    }

    #[test]
    fn rejections_are_recognized_by_prefix() {
        let is_rejection = |line: &str| is_rejection(&line.parse().unwrap());
        assert!(is_rejection(
            r#"{"id":1,"ok":false,"error":"overloaded: pending queue at capacity (8); retry later"}"#
        ));
        assert!(is_rejection(
            r#"{"id":1,"ok":false,"error":"shutting_down: server is draining and accepts no new work"}"#
        ));
        assert!(!is_rejection(
            r#"{"id":1,"ok":false,"error":"placement: hall full"}"#
        ));
        assert!(!is_rejection(r#"{"id":1,"ok":true}"#));
    }

    #[test]
    fn tally_flags_divergent_bodies() {
        let mut t = Tally::default();
        t.record_body("a", "body1".into());
        t.record_body("a", "body1".into());
        assert!(t.mismatches.is_empty());
        t.record_body("a", "body2".into());
        assert_eq!(t.mismatches.len(), 1);
    }

    #[test]
    fn tier_table_renders_in_order_and_hides_when_absent() {
        assert_eq!(render_tier_table(&[]), "");
        let tiers = vec![
            TierStatus {
                stage: "place".into(),
                entries: 2,
                hits: 10,
                misses: 3,
                evictions: 1,
            },
            TierStatus {
                stage: "report".into(),
                entries: 5,
                hits: 0,
                misses: 5,
                evictions: 0,
            },
        ];
        let table = render_tier_table(&tiers);
        let place = table.find("place").expect("place row");
        let report = table.find("report").expect("report row");
        assert!(place < report, "rows keep pipeline order");
        assert!(table.starts_with("artifact cache (per tier):"));
    }

    #[test]
    fn percentiles_cover_edge_counts() {
        let mk = |n: usize| -> Vec<Duration> {
            (1..=n).map(|i| Duration::from_millis(i as u64)).collect()
        };
        let pct = |latencies: &[Duration], p: f64| -> Duration {
            if latencies.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
            latencies[idx]
        };
        assert_eq!(pct(&mk(0), 0.5), Duration::ZERO);
        assert_eq!(pct(&mk(1), 0.99), Duration::from_millis(1));
        assert_eq!(pct(&mk(100), 0.50), Duration::from_millis(50));
        assert_eq!(pct(&mk(100), 0.99), Duration::from_millis(99));
    }
}
