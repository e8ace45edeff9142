//! One-line-per-point result records — the search's JSONL output format.
//!
//! A [`PointRecord`] is the durable trace of one design-space point: its
//! coordinates, how the search disposed of it ([`PointStatus`]), and the
//! frontier-relevant metric slice ([`PointMetrics`]) when the full
//! pipeline ran. Records serialize one-per-line (JSONL), and **the output
//! file doubles as the checkpoint**: a resumed run parses the file back
//! with [`parse_jsonl`], reuses every record whose [`PointRecord::key`]
//! matches a planned point, and only evaluates the gaps.
//!
//! Round-trip stability is the contract that makes that sound:
//! [`pd_metrics::json`] prints keys in sorted order and `f64`s in their
//! shortest round-trip form, and keeps `u64` keys and seeds exact, so a
//! record parsed from disk re-serializes to the exact bytes it was written
//! as, and a resumed run's file is byte-identical to an uninterrupted one.

use pd_core::pipeline::{EvalError, Evaluation};
use pd_metrics::json::{self, ErrorKind, Parser, Value};

use crate::space::{Point, TrialProfile};

/// How the search disposed of a point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointStatus {
    /// Full pipeline ran; metrics are present.
    Ok,
    /// An adaptive rung dropped the point before the full pipeline. The
    /// detail keeps the rung's reason — `generation: …` / `placement: …`
    /// for proxy failures, `not promoted …` for budget cuts — so the
    /// envelope summary names why the point went.
    Pruned(String),
    /// The full pipeline returned an error (rendered [`EvalError`]).
    Error(String),
}

impl PointStatus {
    /// True for the rendering of an *interrupted* evaluation —
    /// `cancelled: …` / `timed out: …` ([`EvalError::is_interruption`]).
    /// An interruption is a statement about the run, not the design, so
    /// the search runner never writes such records to the JSONL checkpoint
    /// and never reuses one found there: a resume re-evaluates the point.
    pub fn is_interrupted(&self) -> bool {
        matches!(
            self,
            PointStatus::Error(e) if e.starts_with("cancelled") || e.starts_with("timed out")
        )
    }

    /// `{"kind":"Ok"}`, or `{"detail":…,"kind":"Pruned"|"Error"}`.
    pub fn to_json(&self) -> Value {
        match self {
            PointStatus::Ok => Value::object([("kind", "Ok".into())]),
            PointStatus::Pruned(d) => {
                Value::object([("kind", "Pruned".into()), ("detail", d.as_str().into())])
            }
            PointStatus::Error(d) => {
                Value::object([("kind", "Error".into()), ("detail", d.as_str().into())])
            }
        }
    }

    /// Reads the form [`Self::to_json`] writes.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let (mut kind, mut detail) = (String::new(), None);
        let at = p.object(&["kind"], |p, key| {
            match key {
                "kind" => kind = p.string()?,
                "detail" => detail = Some(p.string()?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let kind = match (kind.as_str(), detail) {
            ("Ok", None) => return Ok(PointStatus::Ok),
            ("Pruned", Some(d)) => return Ok(PointStatus::Pruned(d)),
            ("Error", Some(d)) => return Ok(PointStatus::Error(d)),
            ("Ok" | "Pruned" | "Error", _) => {
                ErrorKind::Expected("a detail exactly when kind is Pruned or Error")
            }
            _ => ErrorKind::UnknownVariant(kind),
        };
        Err(json::Error { kind, offset: at })
    }
}

/// The frontier-relevant metric slice of a full evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMetrics {
    /// Servers actually built (families round targets up).
    pub servers_built: u32,
    /// Day-1 cost per server ($).
    pub cost_per_server: f64,
    /// Lifetime (TCO-horizon) cost per server ($).
    pub tco_per_server: f64,
    /// Normalized sampled bisection (≥ 1 = full).
    pub bisection: f64,
    /// Per-server uniform-traffic throughput proxy (Gbps).
    pub throughput_per_server: f64,
    /// Time-to-deploy (hours).
    pub time_to_deploy_h: f64,
    /// Mean throughput retention over the correlated fault sweep (absent
    /// when the point's fault knob is 0).
    pub fault_mean_retention: Option<f64>,
    /// Whether the design deploys at all (no twin errors, no unrealizable
    /// links).
    pub deployable: bool,
    /// Out-of-envelope dimensions found by the capability-envelope check.
    pub envelope_breaks: usize,
}

/// One design-space point's durable result.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Stable identity (FNV-1a over the canonical point encoding +
    /// trial profile); the checkpoint dedup key.
    pub key: u64,
    /// Human-readable point label (also the evaluated spec's name).
    pub label: String,
    /// Topology family name.
    pub family: String,
    /// Target server count (the swept knob, not the built count).
    pub target_servers: usize,
    /// Link speed (Gbps).
    pub speed_gbps: f64,
    /// Construction seed.
    pub seed: u64,
    /// Hall variant name.
    pub hall: String,
    /// Media policy name.
    pub media: String,
    /// Fault-sweep ensemble size.
    pub fault_scenarios: usize,
    /// Disposition.
    pub status: PointStatus,
    /// Metrics (present iff `status` is [`PointStatus::Ok`]).
    pub metrics: Option<PointMetrics>,
}

impl PointMetrics {
    /// The metrics as a JSON object; `None` and non-finite floats are
    /// `null`.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("servers_built", self.servers_built.into()),
            ("cost_per_server", self.cost_per_server.into()),
            ("tco_per_server", self.tco_per_server.into()),
            ("bisection", self.bisection.into()),
            ("throughput_per_server", self.throughput_per_server.into()),
            ("time_to_deploy_h", self.time_to_deploy_h.into()),
            ("fault_mean_retention", self.fault_mean_retention.into()),
            ("deployable", self.deployable.into()),
            ("envelope_breaks", self.envelope_breaks.into()),
        ])
    }

    /// Reads the form [`Self::to_json`] writes.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut m = Self {
            servers_built: 0,
            cost_per_server: 0.0,
            tco_per_server: 0.0,
            bisection: 0.0,
            throughput_per_server: 0.0,
            time_to_deploy_h: 0.0,
            fault_mean_retention: None,
            deployable: false,
            envelope_breaks: 0,
        };
        p.object(
            &[
                "servers_built",
                "cost_per_server",
                "tco_per_server",
                "bisection",
                "throughput_per_server",
                "time_to_deploy_h",
                "deployable",
                "envelope_breaks",
            ],
            |p, key| {
                match key {
                    "servers_built" => m.servers_built = p.uint()?,
                    "cost_per_server" => m.cost_per_server = p.f64()?,
                    "tco_per_server" => m.tco_per_server = p.f64()?,
                    "bisection" => m.bisection = p.f64()?,
                    "throughput_per_server" => m.throughput_per_server = p.f64()?,
                    "time_to_deploy_h" => m.time_to_deploy_h = p.f64()?,
                    "fault_mean_retention" => m.fault_mean_retention = p.option(Parser::f64)?,
                    "deployable" => m.deployable = p.bool()?,
                    "envelope_breaks" => m.envelope_breaks = p.uint()?,
                    _ => return Ok(false),
                }
                Ok(true)
            },
        )?;
        Ok(m)
    }
}

impl PointRecord {
    fn base(point: &Point, trials: &TrialProfile, status: PointStatus) -> Self {
        Self {
            key: point.key(trials),
            label: point.label(),
            family: point.family.name().to_string(),
            target_servers: point.servers,
            speed_gbps: point.speed_gbps,
            seed: point.seed,
            hall: point.hall.name().to_string(),
            media: point.media.name().to_string(),
            fault_scenarios: point.fault_scenarios,
            status,
            metrics: None,
        }
    }

    /// Record for a completed full evaluation.
    pub fn from_evaluation(point: &Point, trials: &TrialProfile, ev: &Evaluation) -> Self {
        let r = &ev.report;
        let per_server = |d: pd_geometry::Dollars| {
            if r.servers == 0 {
                f64::NAN
            } else {
                d.value() / f64::from(r.servers)
            }
        };
        let mut rec = Self::base(point, trials, PointStatus::Ok);
        rec.metrics = Some(PointMetrics {
            servers_built: r.servers,
            cost_per_server: r.day_one_per_server().value(),
            tco_per_server: per_server(r.lifetime_cost),
            bisection: r.bisection,
            throughput_per_server: r.throughput_per_server,
            time_to_deploy_h: r.time_to_deploy.value(),
            fault_mean_retention: r.fault_mean_retention,
            deployable: r.deployable(),
            envelope_breaks: r.envelope_breaks,
        });
        rec
    }

    /// Record for a full-pipeline error.
    pub fn from_error(point: &Point, trials: &TrialProfile, err: &EvalError) -> Self {
        Self::base(point, trials, PointStatus::Error(err.to_string()))
    }

    /// Record for a point an adaptive rung dropped.
    pub fn pruned(point: &Point, trials: &TrialProfile, reason: impl Into<String>) -> Self {
        Self::base(point, trials, PointStatus::Pruned(reason.into()))
    }

    /// True iff the point is fully feasible: evaluated, deployable, and
    /// inside the capability envelope. The envelope mapper's "inside"
    /// predicate.
    pub fn feasible(&self) -> bool {
        matches!(self.status, PointStatus::Ok)
            && self
                .metrics
                .as_ref()
                .is_some_and(|m| m.deployable && m.envelope_breaks == 0)
    }

    /// Why the point is not [`Self::feasible`], for envelope summaries;
    /// `None` when it is.
    pub fn infeasibility(&self) -> Option<String> {
        match &self.status {
            PointStatus::Error(e) => Some(e.clone()),
            PointStatus::Pruned(reason) => Some(reason.clone()),
            PointStatus::Ok => {
                let m = self.metrics.as_ref()?;
                if !m.deployable {
                    Some("undeployable (twin errors or unrealizable links)".into())
                } else if m.envelope_breaks > 0 {
                    Some(format!("{} envelope break(s)", m.envelope_breaks))
                } else {
                    None
                }
            }
        }
    }

    /// The record as a JSON object; `metrics` is `null` when absent.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("key", self.key.into()),
            ("label", self.label.as_str().into()),
            ("family", self.family.as_str().into()),
            ("target_servers", self.target_servers.into()),
            ("speed_gbps", self.speed_gbps.into()),
            ("seed", self.seed.into()),
            ("hall", self.hall.as_str().into()),
            ("media", self.media.as_str().into()),
            ("fault_scenarios", self.fault_scenarios.into()),
            ("status", self.status.to_json()),
            (
                "metrics",
                self.metrics.as_ref().map(PointMetrics::to_json).into(),
            ),
        ])
    }

    /// Reads the form [`Self::to_json`] writes. Every field but `metrics`
    /// is required; unknown and repeated keys are errors.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut r = Self {
            key: 0,
            label: String::new(),
            family: String::new(),
            target_servers: 0,
            speed_gbps: 0.0,
            seed: 0,
            hall: String::new(),
            media: String::new(),
            fault_scenarios: 0,
            status: PointStatus::Ok,
            metrics: None,
        };
        p.object(
            &[
                "key",
                "label",
                "family",
                "target_servers",
                "speed_gbps",
                "seed",
                "hall",
                "media",
                "fault_scenarios",
                "status",
            ],
            |p, key| {
                match key {
                    "key" => r.key = p.uint()?,
                    "label" => r.label = p.string()?,
                    "family" => r.family = p.string()?,
                    "target_servers" => r.target_servers = p.uint()?,
                    "speed_gbps" => r.speed_gbps = p.f64()?,
                    "seed" => r.seed = p.uint()?,
                    "hall" => r.hall = p.string()?,
                    "media" => r.media = p.string()?,
                    "fault_scenarios" => r.fault_scenarios = p.uint()?,
                    "status" => r.status = PointStatus::from_json(p)?,
                    "metrics" => r.metrics = p.option(PointMetrics::from_json)?,
                    _ => return Ok(false),
                }
                Ok(true)
            },
        )?;
        Ok(r)
    }

    /// The record's JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string()
    }
}

/// Parses JSONL text back into records, tolerantly: blank lines and
/// unparseable lines — in particular a torn final line from a killed
/// writer — are skipped, not errors. Used to load the checkpoint prefix.
pub fn parse_jsonl(text: &str) -> Vec<PointRecord> {
    text.lines()
        .filter_map(|l| json::parse(l, PointRecord::from_json).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Family, HallVariant, MediaPolicy};

    fn point() -> Point {
        Point {
            family: Family::FatTree,
            servers: 64,
            speed_gbps: 100.0,
            seed: 5,
            hall: HallVariant::Standard,
            media: MediaPolicy::Standard,
            fault_scenarios: 2,
        }
    }

    #[test]
    fn records_round_trip_to_identical_bytes() {
        let trials = TrialProfile::default();
        let mut rec = PointRecord::pruned(&point(), &trials, "generation: q too small");
        rec.metrics = Some(PointMetrics {
            servers_built: 64,
            cost_per_server: 1234.567891,
            tco_per_server: 1.0 / 3.0, // exercises shortest-round-trip floats
            bisection: 1.02,
            throughput_per_server: 87.5,
            time_to_deploy_h: 40.25,
            fault_mean_retention: Some(0.93),
            deployable: true,
            envelope_breaks: 0,
        });
        let line = rec.to_json_line();
        let parsed = parse_jsonl(&line);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0], rec);
        // The checkpoint contract: parse → re-serialize is byte-identical.
        assert_eq!(parsed[0].to_json_line(), line);
    }

    #[test]
    fn record_json_is_exact_and_strict() {
        let trials = TrialProfile::default();
        let mut rec = PointRecord::pruned(&point(), &trials, "not promoted");
        rec.key = u64::MAX;
        rec.seed = (1 << 53) + 1;
        let line = rec.to_json_line();
        assert_eq!(
            line,
            r#"{"family":"fat-tree","fault_scenarios":2,"hall":"hall-std","key":18446744073709551615,"label":"fat-tree/s64/g100/x5/hall-std/media-std/f2","media":"media-std","metrics":null,"seed":9007199254740993,"speed_gbps":100.0,"status":{"detail":"not promoted","kind":"Pruned"},"target_servers":64}"#
        );
        assert_eq!(parse_jsonl(&line), vec![rec.clone()]);

        // A non-finite metric writes `null`, reads back as NaN and
        // re-writes to the same bytes.
        rec.status = PointStatus::Ok;
        rec.metrics = Some(PointMetrics {
            servers_built: 0,
            cost_per_server: f64::NAN,
            tco_per_server: f64::INFINITY,
            bisection: 0.0,
            throughput_per_server: 0.0,
            time_to_deploy_h: 0.0,
            fault_mean_retention: None,
            deployable: false,
            envelope_breaks: 0,
        });
        let line = rec.to_json_line();
        assert!(line.contains(r#""cost_per_server":null"#), "{line}");
        assert_eq!(parse_jsonl(&line)[0].to_json_line(), line);

        let err = |text: &str| json::parse(text, PointRecord::from_json).unwrap_err().kind;
        assert_eq!(
            err(&line.replacen('{', r#"{"extra":0,"#, 1)),
            ErrorKind::UnknownField("extra".into())
        );
        assert_eq!(
            err(&line.replace(r#"{"kind":"Ok"}"#, r#"{"kind":"Gone"}"#)),
            ErrorKind::UnknownVariant("Gone".into())
        );
        assert_eq!(
            err(&line.replace(r#"{"kind":"Ok"}"#, r#"{"kind":"Error"}"#)),
            ErrorKind::Expected("a detail exactly when kind is Pruned or Error")
        );
        assert_eq!(
            err(&line.replace(r#""key":18446744073709551615,"#, "")),
            ErrorKind::MissingField("key")
        );
    }

    #[test]
    fn torn_trailing_line_is_dropped() {
        let trials = TrialProfile::default();
        let a = PointRecord::pruned(&point(), &trials, "placement: hall full").to_json_line();
        let torn = &a[..a.len() / 2];
        let text = format!("{a}\n\n{torn}");
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.len(), 1, "whole line kept, torn line dropped");
    }

    #[test]
    fn feasibility_classification() {
        let trials = TrialProfile::default();
        let p = point();
        let pruned_hard = PointRecord::pruned(&p, &trials, "placement: no slots");
        assert!(!pruned_hard.feasible());
        let pruned_budget = PointRecord::pruned(&p, &trials, "not promoted past rung A");
        assert!(pruned_budget.infeasibility().is_some());

        // Interruptions are about the run, not the design.
        let cancelled = PointRecord::from_error(&p, &trials, &EvalError::Cancelled);
        assert!(cancelled.status.is_interrupted());
        let timed_out = PointRecord::from_error(
            &p,
            &trials,
            &EvalError::TimedOut {
                stage: pd_core::Stage::Place,
                elapsed_ms: 12,
            },
        );
        assert!(timed_out.status.is_interrupted());
        assert!(!pruned_hard.status.is_interrupted());
        assert!(!PointStatus::Ok.is_interrupted());

        let mut ok = PointRecord::base(&p, &trials, PointStatus::Ok);
        ok.metrics = Some(PointMetrics {
            servers_built: 64,
            cost_per_server: 1000.0,
            tco_per_server: 2000.0,
            bisection: 1.0,
            throughput_per_server: 90.0,
            time_to_deploy_h: 30.0,
            fault_mean_retention: None,
            deployable: true,
            envelope_breaks: 0,
        });
        assert!(ok.feasible());
        assert!(ok.infeasibility().is_none());
        let mut broken = ok.clone();
        broken.metrics.as_mut().unwrap().envelope_breaks = 2;
        assert!(!broken.feasible());
        assert!(broken.infeasibility().unwrap().contains("envelope"));
    }
}
