//! The deployability report: the paper's §5.4 metric suite as a struct.
//!
//! One report per evaluated design, with a JSON form
//! ([`DeployabilityReport::to_json`] / [`DeployabilityReport::from_json`])
//! and a markdown renderer for experiment output. The field groups mirror the
//! paper's discussion: traditional goodness (§1), deployment cost and time
//! and first-pass yield (§2), cabling physicality (§3.1), lifecycle
//! complexity (§2.1, §5.4), and twin verdicts (§5.3).

use pd_geometry::{Dollars, Hours, Meters};
use pd_metrics::json::{self, Parser, Value};

/// The full metric suite for one design.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeployabilityReport {
    /// Design name.
    pub name: String,
    /// Topology family.
    pub family: String,

    // ── scale ────────────────────────────────────────────────────────
    /// Switch count.
    pub switches: usize,
    /// Logical link count.
    pub links: usize,
    /// Server count (the normalizer for comparisons).
    pub servers: u32,
    /// Racks placed (including indirection sites).
    pub racks: usize,

    // ── traditional goodness (§1) ────────────────────────────────────
    /// Hop diameter.
    pub diameter: u16,
    /// Mean server-to-server hop distance.
    pub mean_path: f64,
    /// Normalized sampled bisection (≥1 = full bisection).
    pub bisection: f64,
    /// Per-server uniform-traffic throughput proxy (Gbps).
    pub throughput_per_server: f64,
    /// Minimum sampled edge-disjoint paths.
    pub path_diversity: usize,
    /// Spectral gap if regular.
    pub spectral_gap: Option<f64>,
    /// Mean throughput retention at 10% random link failures (None = probe
    /// not run).
    pub resilience: Option<f64>,
    /// Worst throughput retention over the correlated physical fault sweep
    /// (§3.3; None = sweep not run).
    pub fault_worst_retention: Option<f64>,
    /// Mean throughput retention over the correlated fault sweep.
    pub fault_mean_retention: Option<f64>,
    /// Physical-vs-logical resilience gap: how much more retention random
    /// link failures of equal magnitude keep than the correlated physical
    /// scenarios (positive = physical correlation hurts).
    pub fault_resilience_gap: Option<f64>,

    // ── deployment (§2) ──────────────────────────────────────────────
    /// Total capital cost.
    pub capex: Dollars,
    /// Cabling's share of capex.
    pub cabling_fraction: f64,
    /// Time-to-deploy: scheduled makespan with the spec's tech pool.
    pub time_to_deploy: Hours,
    /// Serial labor hours.
    pub labor: Hours,
    /// Expected first-pass yield (fraction of links passing).
    pub first_pass_yield: f64,
    /// Expected rework hours.
    pub rework: Hours,
    /// Day-1 total (capex + labor + stranded capital).
    pub day_one_cost: Dollars,
    /// Lifetime total over the TCO horizon.
    pub lifetime_cost: Dollars,

    // ── cabling physicality (§3.1) ───────────────────────────────────
    /// Physical cables.
    pub cables: usize,
    /// Total ordered cable length.
    pub cable_length: Meters,
    /// Mean routed length.
    pub mean_cable_length: Meters,
    /// Fraction of cables that are optical.
    pub optical_fraction: f64,
    /// Distinct cable SKUs to procure.
    pub distinct_skus: usize,
    /// Fraction of cables shipped in manufacturable bundles (same slots,
    /// same length).
    pub bundled_fraction: f64,
    /// Fraction of cables coverable by block-pair harnesses (mixed lengths
    /// allowed) — the Xpander/FatClique-style bundleability of §4.2.
    pub harness_fraction: f64,
    /// Distinct bundle SKUs.
    pub bundle_skus: usize,
    /// Worst tray fill fraction.
    pub max_tray_fill: f64,
    /// Links that could not be physically realized.
    pub unrealizable_links: usize,

    // ── lifecycle (§2.1, §3.3, §5.4) ─────────────────────────────────
    /// Rewiring steps for the spec's expansion probe (None = no probe).
    pub expansion_rewires: Option<usize>,
    /// New cables pulled for the expansion.
    pub expansion_new_cables: Option<usize>,
    /// Hand-touched panels during expansion.
    pub expansion_panels_touched: Option<usize>,
    /// Expansion labor hours.
    pub expansion_labor: Option<Hours>,
    /// Port availability from the repair simulation.
    pub availability: f64,
    /// Mean time to repair.
    pub mttr: Hours,
    /// Ports drained when one port fails (unit of repair).
    pub unit_of_repair_ports: u32,
    /// Distinct radixes present (diversity support).
    pub distinct_radixes: usize,
    /// Distinct link speeds present.
    pub distinct_speeds: usize,

    // ── twin verdicts (§5.2, §5.3) ───────────────────────────────────
    /// Constraint errors.
    pub twin_errors: usize,
    /// Constraint warnings.
    pub twin_warnings: usize,
    /// Out-of-envelope dimensions.
    pub envelope_breaks: usize,
}

/// The keys [`DeployabilityReport::from_json`] requires: every non-`Option`
/// field.
const REQUIRED_FIELDS: &[&str] = &[
    "name",
    "family",
    "switches",
    "links",
    "servers",
    "racks",
    "diameter",
    "mean_path",
    "bisection",
    "throughput_per_server",
    "path_diversity",
    "capex",
    "cabling_fraction",
    "time_to_deploy",
    "labor",
    "first_pass_yield",
    "rework",
    "day_one_cost",
    "lifetime_cost",
    "cables",
    "cable_length",
    "mean_cable_length",
    "optical_fraction",
    "distinct_skus",
    "bundled_fraction",
    "harness_fraction",
    "bundle_skus",
    "max_tray_fill",
    "unrealizable_links",
    "availability",
    "mttr",
    "unit_of_repair_ports",
    "distinct_radixes",
    "distinct_speeds",
    "twin_errors",
    "twin_warnings",
    "envelope_breaks",
];

impl DeployabilityReport {
    /// The report as a JSON object. Every field is present; `None` and
    /// non-finite floats are `null`, and units are bare numbers.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("name", self.name.as_str().into()),
            ("family", self.family.as_str().into()),
            ("switches", self.switches.into()),
            ("links", self.links.into()),
            ("servers", self.servers.into()),
            ("racks", self.racks.into()),
            ("diameter", self.diameter.into()),
            ("mean_path", self.mean_path.into()),
            ("bisection", self.bisection.into()),
            ("throughput_per_server", self.throughput_per_server.into()),
            ("path_diversity", self.path_diversity.into()),
            ("spectral_gap", self.spectral_gap.into()),
            ("resilience", self.resilience.into()),
            ("fault_worst_retention", self.fault_worst_retention.into()),
            ("fault_mean_retention", self.fault_mean_retention.into()),
            ("fault_resilience_gap", self.fault_resilience_gap.into()),
            ("capex", self.capex.value().into()),
            ("cabling_fraction", self.cabling_fraction.into()),
            ("time_to_deploy", self.time_to_deploy.value().into()),
            ("labor", self.labor.value().into()),
            ("first_pass_yield", self.first_pass_yield.into()),
            ("rework", self.rework.value().into()),
            ("day_one_cost", self.day_one_cost.value().into()),
            ("lifetime_cost", self.lifetime_cost.value().into()),
            ("cables", self.cables.into()),
            ("cable_length", self.cable_length.value().into()),
            ("mean_cable_length", self.mean_cable_length.value().into()),
            ("optical_fraction", self.optical_fraction.into()),
            ("distinct_skus", self.distinct_skus.into()),
            ("bundled_fraction", self.bundled_fraction.into()),
            ("harness_fraction", self.harness_fraction.into()),
            ("bundle_skus", self.bundle_skus.into()),
            ("max_tray_fill", self.max_tray_fill.into()),
            ("unrealizable_links", self.unrealizable_links.into()),
            ("expansion_rewires", self.expansion_rewires.into()),
            ("expansion_new_cables", self.expansion_new_cables.into()),
            (
                "expansion_panels_touched",
                self.expansion_panels_touched.into(),
            ),
            (
                "expansion_labor",
                self.expansion_labor.map(|v| v.value()).into(),
            ),
            ("availability", self.availability.into()),
            ("mttr", self.mttr.value().into()),
            ("unit_of_repair_ports", self.unit_of_repair_ports.into()),
            ("distinct_radixes", self.distinct_radixes.into()),
            ("distinct_speeds", self.distinct_speeds.into()),
            ("twin_errors", self.twin_errors.into()),
            ("twin_warnings", self.twin_warnings.into()),
            ("envelope_breaks", self.envelope_breaks.into()),
        ])
    }

    /// Reads a report written by [`Self::to_json`]. Every non-`Option`
    /// field is required; unknown and repeated keys are errors.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut r = Self::default();
        p.object(REQUIRED_FIELDS, |p, key| {
            match key {
                "name" => r.name = p.string()?,
                "family" => r.family = p.string()?,
                "switches" => r.switches = p.uint()?,
                "links" => r.links = p.uint()?,
                "servers" => r.servers = p.uint()?,
                "racks" => r.racks = p.uint()?,
                "diameter" => r.diameter = p.uint()?,
                "mean_path" => r.mean_path = p.f64()?,
                "bisection" => r.bisection = p.f64()?,
                "throughput_per_server" => r.throughput_per_server = p.f64()?,
                "path_diversity" => r.path_diversity = p.uint()?,
                "spectral_gap" => r.spectral_gap = p.option(Parser::f64)?,
                "resilience" => r.resilience = p.option(Parser::f64)?,
                "fault_worst_retention" => r.fault_worst_retention = p.option(Parser::f64)?,
                "fault_mean_retention" => r.fault_mean_retention = p.option(Parser::f64)?,
                "fault_resilience_gap" => r.fault_resilience_gap = p.option(Parser::f64)?,
                "capex" => r.capex = Dollars::new(p.f64()?),
                "cabling_fraction" => r.cabling_fraction = p.f64()?,
                "time_to_deploy" => r.time_to_deploy = Hours::new(p.f64()?),
                "labor" => r.labor = Hours::new(p.f64()?),
                "first_pass_yield" => r.first_pass_yield = p.f64()?,
                "rework" => r.rework = Hours::new(p.f64()?),
                "day_one_cost" => r.day_one_cost = Dollars::new(p.f64()?),
                "lifetime_cost" => r.lifetime_cost = Dollars::new(p.f64()?),
                "cables" => r.cables = p.uint()?,
                "cable_length" => r.cable_length = Meters::new(p.f64()?),
                "mean_cable_length" => r.mean_cable_length = Meters::new(p.f64()?),
                "optical_fraction" => r.optical_fraction = p.f64()?,
                "distinct_skus" => r.distinct_skus = p.uint()?,
                "bundled_fraction" => r.bundled_fraction = p.f64()?,
                "harness_fraction" => r.harness_fraction = p.f64()?,
                "bundle_skus" => r.bundle_skus = p.uint()?,
                "max_tray_fill" => r.max_tray_fill = p.f64()?,
                "unrealizable_links" => r.unrealizable_links = p.uint()?,
                "expansion_rewires" => r.expansion_rewires = p.option(Parser::uint)?,
                "expansion_new_cables" => r.expansion_new_cables = p.option(Parser::uint)?,
                "expansion_panels_touched" => {
                    r.expansion_panels_touched = p.option(Parser::uint)?
                }
                "expansion_labor" => r.expansion_labor = p.option(|p| p.f64().map(Hours::new))?,
                "availability" => r.availability = p.f64()?,
                "mttr" => r.mttr = Hours::new(p.f64()?),
                "unit_of_repair_ports" => r.unit_of_repair_ports = p.uint()?,
                "distinct_radixes" => r.distinct_radixes = p.uint()?,
                "distinct_speeds" => r.distinct_speeds = p.uint()?,
                "twin_errors" => r.twin_errors = p.uint()?,
                "twin_warnings" => r.twin_warnings = p.uint()?,
                "envelope_breaks" => r.envelope_breaks = p.uint()?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(r)
    }
    /// Cost per server (day-1).
    pub fn day_one_per_server(&self) -> Dollars {
        if self.servers == 0 {
            Dollars::ZERO
        } else {
            self.day_one_cost / f64::from(self.servers)
        }
    }

    /// True if the design deploys at all (no hard twin errors and no
    /// unrealizable links).
    pub fn deployable(&self) -> bool {
        self.twin_errors == 0 && self.unrealizable_links == 0
    }

    /// Renders a markdown comparison table for a set of reports, one
    /// column per design (the E6 output shape).
    pub fn comparison_table(reports: &[&DeployabilityReport]) -> String {
        let mut rows: Vec<(String, Vec<String>)> = Vec::new();
        let mut row = |label: &str, f: &dyn Fn(&DeployabilityReport) -> String| {
            rows.push((label.to_string(), reports.iter().map(|r| f(r)).collect()));
        };
        row("family", &|r| r.family.clone());
        row("switches", &|r| r.switches.to_string());
        row("servers", &|r| r.servers.to_string());
        row("racks", &|r| r.racks.to_string());
        row("— goodness —", &|_| String::new());
        row("diameter", &|r| r.diameter.to_string());
        row("mean path", &|r| format!("{:.2}", r.mean_path));
        row("bisection", &|r| format!("{:.2}", r.bisection));
        row("tput/server (G)", &|r| {
            format!("{:.0}", r.throughput_per_server)
        });
        row("path diversity", &|r| r.path_diversity.to_string());
        row("resilience@10%", &|r| {
            r.resilience
                .map(|v| format!("{:.0}%", v * 100.0))
                .unwrap_or_else(|| "-".into())
        });
        row("fault worst", &|r| {
            r.fault_worst_retention
                .map(|v| format!("{:.0}%", v * 100.0))
                .unwrap_or_else(|| "-".into())
        });
        row("fault mean", &|r| {
            r.fault_mean_retention
                .map(|v| format!("{:.0}%", v * 100.0))
                .unwrap_or_else(|| "-".into())
        });
        row("phys-log gap", &|r| {
            r.fault_resilience_gap
                .map(|v| format!("{:+.0}pp", v * 100.0))
                .unwrap_or_else(|| "-".into())
        });
        row("— deployment —", &|_| String::new());
        row("capex ($k)", &|r| format!("{:.0}", r.capex.value() / 1e3));
        row("cabling share", &|r| {
            format!("{:.0}%", r.cabling_fraction * 100.0)
        });
        row("deploy time (h)", &|r| {
            format!("{:.0}", r.time_to_deploy.value())
        });
        row("labor (h)", &|r| format!("{:.0}", r.labor.value()));
        row("first-pass yield", &|r| {
            format!("{:.1}%", r.first_pass_yield * 100.0)
        });
        row("day-1 ($k)", &|r| {
            format!("{:.0}", r.day_one_cost.value() / 1e3)
        });
        row("— cabling —", &|_| String::new());
        row("cables", &|r| r.cables.to_string());
        row("cable km", &|r| {
            format!("{:.2}", r.cable_length.value() / 1000.0)
        });
        row("optical", &|r| {
            format!("{:.0}%", r.optical_fraction * 100.0)
        });
        row("distinct SKUs", &|r| r.distinct_skus.to_string());
        row("bundled", &|r| {
            format!("{:.0}%", r.bundled_fraction * 100.0)
        });
        row("harnessable", &|r| {
            format!("{:.0}%", r.harness_fraction * 100.0)
        });
        row("max tray fill", &|r| {
            format!("{:.0}%", r.max_tray_fill * 100.0)
        });
        row("— lifecycle —", &|_| String::new());
        row("exp. rewires", &|r| {
            r.expansion_rewires
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into())
        });
        row("exp. labor (h)", &|r| {
            r.expansion_labor
                .map(|v| format!("{:.1}", v.value()))
                .unwrap_or_else(|| "-".into())
        });
        row("availability", &|r| format!("{:.5}", r.availability));
        row("unit of repair", &|r| r.unit_of_repair_ports.to_string());
        row("— twin —", &|_| String::new());
        row("errors", &|r| r.twin_errors.to_string());
        row("warnings", &|r| r.twin_warnings.to_string());
        row("deployable", &|r| {
            if r.deployable() { "yes" } else { "NO" }.into()
        });

        let mut out = String::new();
        out.push_str("| metric |");
        for r in reports {
            out.push_str(&format!(" {} |", r.name));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in reports {
            out.push_str("---|");
        }
        out.push('\n');
        for (label, cells) in rows {
            out.push_str(&format!("| {label} |"));
            for c in cells {
                out.push_str(&format!(" {c} |"));
            }
            out.push('\n');
        }
        out
    }
}

/// Test fixtures shared across the crate's unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    pub(crate) fn dummy(name: &str) -> DeployabilityReport {
        DeployabilityReport {
            name: name.into(),
            family: "fat-tree".into(),
            switches: 20,
            links: 32,
            servers: 16,
            racks: 13,
            diameter: 4,
            mean_path: 3.4,
            bisection: 1.0,
            throughput_per_server: 100.0,
            path_diversity: 2,
            spectral_gap: None,
            resilience: Some(0.9),
            fault_worst_retention: Some(0.6),
            fault_mean_retention: Some(0.8),
            fault_resilience_gap: Some(0.05),
            capex: Dollars::new(500_000.0),
            cabling_fraction: 0.1,
            time_to_deploy: Hours::new(40.0),
            labor: Hours::new(120.0),
            first_pass_yield: 0.99,
            rework: Hours::new(2.0),
            day_one_cost: Dollars::new(520_000.0),
            lifetime_cost: Dollars::new(700_000.0),
            cables: 32,
            cable_length: Meters::new(800.0),
            mean_cable_length: Meters::new(20.0),
            optical_fraction: 0.4,
            distinct_skus: 6,
            bundled_fraction: 0.8,
            harness_fraction: 0.9,
            bundle_skus: 10,
            max_tray_fill: 0.2,
            unrealizable_links: 0,
            expansion_rewires: Some(128),
            expansion_new_cables: Some(64),
            expansion_panels_touched: Some(4),
            expansion_labor: Some(Hours::new(30.0)),
            availability: 0.99995,
            mttr: Hours::new(2.5),
            unit_of_repair_ports: 16,
            distinct_radixes: 1,
            distinct_speeds: 1,
            twin_errors: 0,
            twin_warnings: 3,
            envelope_breaks: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::dummy;
    use super::*;

    #[test]
    fn per_server_metrics() {
        let r = dummy("a");
        assert_eq!(r.day_one_per_server(), Dollars::new(32_500.0));
        assert!(r.deployable());
    }

    #[test]
    fn undeployable_detection() {
        let mut r = dummy("a");
        r.twin_errors = 1;
        assert!(!r.deployable());
        let mut r2 = dummy("b");
        r2.unrealizable_links = 3;
        assert!(!r2.deployable());
    }

    #[test]
    fn table_renders_all_designs() {
        let a = dummy("alpha");
        let b = dummy("beta");
        let t = DeployabilityReport::comparison_table(&[&a, &b]);
        assert!(t.contains("| metric | alpha | beta |"));
        assert!(t.contains("first-pass yield"));
        assert!(t.contains("99.0%"));
        // Every row has the same column count.
        let cols: Vec<usize> = t.lines().map(|l| l.matches('|').count()).collect();
        assert!(cols.windows(2).all(|w| w[0] == w[1]), "{cols:?}");
    }

    #[test]
    fn json_round_trip() {
        let r = dummy("x");
        let line = r.to_json().to_string();
        let back = json::parse(&line, DeployabilityReport::from_json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().to_string(), line);
        assert!(line.starts_with(r#"{"availability":0.99995,"bisection":1.0,"#));
        assert!(line.contains(r#""spectral_gap":null,"#));
    }

    #[test]
    fn json_reader_is_strict() {
        let line = dummy("x").to_json().to_string();
        let read = |text: &str| json::parse(text, DeployabilityReport::from_json);
        let unknown = line.replacen('{', r#"{"extra":1,"#, 1);
        assert_eq!(
            read(&unknown).unwrap_err().kind,
            json::ErrorKind::UnknownField("extra".into())
        );
        let missing = line.replacen(r#""cables":32,"#, "", 1);
        assert_eq!(
            read(&missing).unwrap_err().kind,
            json::ErrorKind::MissingField("cables")
        );
        // `Option` fields may be absent.
        let absent = line.replacen(r#""spectral_gap":null,"#, "", 1);
        assert_eq!(read(&absent).unwrap(), dummy("x"));
    }
}
