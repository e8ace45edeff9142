//! The pd-serve wire protocol: line-delimited JSON over TCP.
//!
//! One request per line, one response per line, in request order per
//! connection. The framing is deliberately primitive — `\n`-terminated
//! JSON objects — so any language's socket + JSON library is a complete
//! client, and a transcript is a replayable text file.
//!
//! ## Requests
//!
//! ```json
//! {"id":"r1","op":"evaluate","spec":{"family":"fat-tree","servers":64}}
//! {"id":"r2","op":"batch","specs":[{"family":"jellyfish","servers":128,"seed":7}]}
//! {"id":"r3","op":"search","space":{"families":["fat-tree"],"servers":[64,128]},"budget":8}
//! {"id":"r4","op":"status"}
//! {"id":"r5","op":"shutdown"}
//! ```
//!
//! `id` is any JSON value and is echoed in the response in
//! [`pd_metrics::json`]'s canonical form (object keys sorted, numbers in
//! shortest form); `deadline_ms` (optional on work-carrying ops) bounds
//! the request's wall clock from admission, queue wait included. Unknown
//! fields, repeated keys and nesting past [`pd_metrics::json::MAX_DEPTH`]
//! are rejected (`bad_request`, naming the byte offset), so typos fail
//! loudly instead of being ignored.
//!
//! ## Responses
//!
//! Exactly one per request, `id` echoed, `ok` telling the caller whether a
//! payload or an `error` string follows. Error strings are prefixed by a
//! stable taxonomy — [`ERR_BAD_REQUEST`], [`ERR_OVERLOADED`],
//! [`ERR_SHUTTING_DOWN`] for protocol-level rejections, and the
//! `pd_core::pipeline::EvalError` `Display` renderings (`generation: …`,
//! `placement: …`, `cancelled: …`, `timed out: …`, …) for evaluation
//! failures — so clients can dispatch on `error.split(':').next()`.
//!
//! ## Determinism
//!
//! Evaluation is a pure function of the spec, and every payload type here
//! writes its JSON with sorted keys, so the response body for a given
//! `evaluate`/`batch` request is **byte-identical** across runs, server
//! job counts, and cache states — the property `loadgen` asserts. `status`
//! bodies and `overloaded` rejections observe the wall clock and are
//! excluded from that contract.

use pd_core::DeployabilityReport;
use pd_metrics::json::{self, Parser, Value};
use pd_search::{Family, HallVariant, MediaPolicy, ParamSpace, Point, PointRecord, TrialProfile};

/// Default bound on one request line (bytes, newline excluded). A line
/// that exceeds the server's bound is answered with a typed `bad_request`
/// and discarded to its terminating newline; the connection survives.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Error-string prefix for malformed or invalid requests.
pub const ERR_BAD_REQUEST: &str = "bad_request";
/// Error-string prefix for admission-control rejections (queue at cap).
pub const ERR_OVERLOADED: &str = "overloaded";
/// Error-string prefix for requests arriving while the server drains.
pub const ERR_SHUTTING_DOWN: &str = "shutting_down";

/// The request verbs, named on the wire in snake case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Evaluate one design spec → one [`DeployabilityReport`].
    Evaluate,
    /// Evaluate a list of specs → one result per spec, in spec order.
    Batch,
    /// Run a design-space search → the search's [`PointRecord`] list.
    Search,
    /// Server health and queue counters (answered inline, never queued).
    Status,
    /// Begin graceful drain: stop accepting, finish in-flight, exit 0.
    Shutdown,
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation value, echoed in the response.
    pub id: Value,
    /// The verb.
    pub op: Op,
    /// The design to evaluate (`op: evaluate`).
    pub spec: Option<WireSpec>,
    /// The designs to evaluate (`op: batch`).
    pub specs: Option<Vec<WireSpec>>,
    /// The space to search (`op: search`; omitted = the default space).
    pub space: Option<WireSpace>,
    /// Search strategy: `"grid"` (default), `"random"`, or `"adaptive"`.
    pub strategy: Option<String>,
    /// Search budget (grid truncation / random samples / adaptive
    /// full-pipeline budget).
    pub budget: Option<usize>,
    /// Draw seed for `strategy: "random"` (default 11).
    pub seed: Option<u64>,
    /// Halving factor for `strategy: "adaptive"` (default 2).
    pub eta: Option<usize>,
    /// Wall-clock budget for this request, measured from admission (queue
    /// wait included). On expiry the evaluation stops at its next stage
    /// boundary with a typed `timed out: …` / `cancelled: …` error.
    pub deadline_ms: Option<u64>,
}

impl Op {
    const ALL: [Op; 5] = [
        Op::Evaluate,
        Op::Batch,
        Op::Search,
        Op::Status,
        Op::Shutdown,
    ];

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Evaluate => "evaluate",
            Op::Batch => "batch",
            Op::Search => "search",
            Op::Status => "status",
            Op::Shutdown => "shutdown",
        }
    }

    /// The verb with wire name `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|op| op.name() == name)
    }
}

/// An object of the `(key, value)` pairs whose value is not `null`: the
/// wire omits absent optional fields.
fn sparse<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    Value::object(fields.into_iter().filter(|(_, v)| !v.is_null()))
}

/// A list field, omitted (`null`) when empty.
fn list<T: Clone + Into<Value>>(items: &[T]) -> Value {
    if items.is_empty() {
        Value::Null
    } else {
        items.iter().cloned().collect()
    }
}

impl Request {
    /// A request with only `id` and `op` set (status / shutdown shape).
    pub fn bare(id: impl Into<Value>, op: Op) -> Self {
        Self {
            id: id.into(),
            op,
            spec: None,
            specs: None,
            space: None,
            strategy: None,
            budget: None,
            seed: None,
            eta: None,
            deadline_ms: None,
        }
    }

    /// An `evaluate` request for one spec.
    pub fn evaluate(id: impl Into<Value>, spec: WireSpec) -> Self {
        Self {
            spec: Some(spec),
            ..Self::bare(id, Op::Evaluate)
        }
    }

    /// The request as a JSON object; absent fields are omitted.
    pub fn to_json(&self) -> Value {
        sparse([
            ("id", self.id.clone()),
            ("op", self.op.name().into()),
            ("spec", self.spec.as_ref().map(WireSpec::to_json).into()),
            (
                "specs",
                self.specs
                    .as_ref()
                    .map(|specs| specs.iter().map(WireSpec::to_json).collect::<Value>())
                    .into(),
            ),
            ("space", self.space.as_ref().map(WireSpace::to_json).into()),
            ("strategy", self.strategy.clone().into()),
            ("budget", self.budget.into()),
            ("seed", self.seed.into()),
            ("eta", self.eta.into()),
            ("deadline_ms", self.deadline_ms.into()),
        ])
    }

    /// Reads a request object: `op` is required, unknown and repeated
    /// keys are errors.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut r = Self::bare(Value::Null, Op::Status);
        p.object(&["op"], |p, key| {
            match key {
                "id" => r.id = p.value()?,
                "op" => r.op = p.variant(Op::from_name)?,
                "spec" => r.spec = p.option(WireSpec::from_json)?,
                "specs" => r.specs = p.option(|p| p.array(WireSpec::from_json))?,
                "space" => r.space = p.option(WireSpace::from_json)?,
                "strategy" => r.strategy = p.option(Parser::string)?,
                "budget" => r.budget = p.option(Parser::uint)?,
                "seed" => r.seed = p.option(Parser::uint)?,
                "eta" => r.eta = p.option(Parser::uint)?,
                "deadline_ms" => r.deadline_ms = p.option(Parser::uint)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(r)
    }

    /// The request's JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string()
    }
}

/// Parses one request line; the error's `Display` is the reason a
/// `bad_request` response carries.
pub fn parse_request(line: &str) -> Result<Request, json::Error> {
    json::parse(line, Request::from_json)
}

/// Best-effort recovery of the `id` from a line that failed to parse as a
/// [`Request`], so even a `bad_request` response can be correlated.
pub fn salvage_id(line: &str) -> Value {
    line.parse::<Value>()
        .ok()
        .and_then(|v| v.get("id").cloned())
        .unwrap_or(Value::Null)
}

/// A design spec on the wire: one coordinate of the pd-search parameter
/// space by name, plus Monte-Carlo trial counts. This is deliberately the
/// *search-space* encoding rather than a raw `DesignSpec` dump: every
/// field is a human-writable scalar, the encoding is stable across
/// internal spec refactors, and [`WireSpec::resolve`] reuses
/// `pd_search::Point::spec` so a served evaluation is byte-identical to
/// the same point evaluated by the `search` CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSpec {
    /// Topology family name (`fat-tree`, `folded-clos`, `leaf-spine`,
    /// `jellyfish`, `xpander`, `slimfly`, `flat-bf`, `fatclique`,
    /// `direct-connect`).
    pub family: String,
    /// Target server count (families round up per their granularity).
    pub servers: usize,
    /// Link speed in Gbps (default 100).
    pub speed_gbps: f64,
    /// Construction + sampling seed (default 11).
    pub seed: u64,
    /// Hall geometry: `hall-std` / `hall-dense` / `hall-long` (or the
    /// unprefixed tails). Default `hall-std`.
    pub hall: String,
    /// Cabling media policy: `media-std` / `media-derated` / `media-panel`
    /// (or the unprefixed tails). Default `media-std`.
    pub media: String,
    /// Correlated-fault ensemble size (default 0 = sweep off — the
    /// interactive default favors latency).
    pub fault_scenarios: usize,
    /// Yield-simulation trials (default 10, the search profile).
    pub yield_trials: usize,
    /// Repair-simulation trials (default 3, the search profile).
    pub repair_trials: usize,
}

impl WireSpec {
    /// A spec for `servers` servers of `family`, every other field at its
    /// default — what a JSON object with only those two keys reads as.
    pub fn new(family: impl Into<String>, servers: usize) -> Self {
        let trials = TrialProfile::default();
        Self {
            family: family.into(),
            servers,
            speed_gbps: 100.0,
            seed: 11,
            hall: HallVariant::Standard.name().to_string(),
            media: MediaPolicy::Standard.name().to_string(),
            fault_scenarios: 0,
            yield_trials: trials.yield_trials,
            repair_trials: trials.repair_trials,
        }
    }

    /// The spec as a JSON object, every field present.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("family", self.family.as_str().into()),
            ("servers", self.servers.into()),
            ("speed_gbps", self.speed_gbps.into()),
            ("seed", self.seed.into()),
            ("hall", self.hall.as_str().into()),
            ("media", self.media.as_str().into()),
            ("fault_scenarios", self.fault_scenarios.into()),
            ("yield_trials", self.yield_trials.into()),
            ("repair_trials", self.repair_trials.into()),
        ])
    }

    /// Reads a spec object: `family` and `servers` are required, the rest
    /// default as in [`Self::new`]; unknown and repeated keys are errors.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut s = Self::new(String::new(), 0);
        p.object(&["family", "servers"], |p, key| {
            match key {
                "family" => s.family = p.string()?,
                "servers" => s.servers = p.uint()?,
                "speed_gbps" => s.speed_gbps = p.f64()?,
                "seed" => s.seed = p.uint()?,
                "hall" => s.hall = p.string()?,
                "media" => s.media = p.string()?,
                "fault_scenarios" => s.fault_scenarios = p.uint()?,
                "yield_trials" => s.yield_trials = p.uint()?,
                "repair_trials" => s.repair_trials = p.uint()?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(s)
    }

    /// The wire encoding of a search-space point (the inverse of
    /// [`WireSpec::resolve`]; `loadgen` draws points and sends these).
    pub fn for_point(point: &Point, trials: &TrialProfile) -> Self {
        Self {
            family: point.family.name().to_string(),
            servers: point.servers,
            speed_gbps: point.speed_gbps,
            seed: point.seed,
            hall: point.hall.name().to_string(),
            media: point.media.name().to_string(),
            fault_scenarios: point.fault_scenarios,
            yield_trials: trials.yield_trials,
            repair_trials: trials.repair_trials,
        }
    }

    /// Validates the names and bounds, yielding the point + trial profile
    /// the worker materializes with `Point::spec`. The error is the
    /// `bad_request` detail.
    pub fn resolve(&self) -> Result<(Point, TrialProfile), String> {
        let family = Family::from_name(&self.family).ok_or_else(|| {
            format!(
                "unknown family {:?} (known: {})",
                self.family,
                Family::ALL.map(|f| f.name()).join(", ")
            )
        })?;
        let hall = HallVariant::from_name(&self.hall).ok_or_else(|| {
            format!(
                "unknown hall {:?} (known: hall-std, hall-dense, hall-long)",
                self.hall
            )
        })?;
        let media = MediaPolicy::from_name(&self.media).ok_or_else(|| {
            format!(
                "unknown media {:?} (known: media-std, media-derated, media-panel)",
                self.media
            )
        })?;
        if self.servers == 0 {
            return Err("servers must be ≥ 1".to_string());
        }
        if !self.speed_gbps.is_finite() || self.speed_gbps <= 0.0 {
            return Err(format!(
                "speed_gbps must be a positive number, got {}",
                self.speed_gbps
            ));
        }
        if self.yield_trials == 0 || self.repair_trials == 0 {
            return Err("yield_trials and repair_trials must be ≥ 1".to_string());
        }
        Ok((
            Point {
                family,
                servers: self.servers,
                speed_gbps: self.speed_gbps,
                seed: self.seed,
                hall,
                media,
                fault_scenarios: self.fault_scenarios,
            },
            TrialProfile {
                yield_trials: self.yield_trials,
                repair_trials: self.repair_trials,
            },
        ))
    }
}

/// A parameter space on the wire (`op: search`). Every knob is optional;
/// an empty/omitted list means that knob's `ParamSpace::default` value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireSpace {
    /// Family names (empty = all nine).
    pub families: Vec<String>,
    /// Target server counts.
    pub servers: Vec<usize>,
    /// Link speeds (Gbps).
    pub speeds: Vec<f64>,
    /// Construction seeds.
    pub seeds: Vec<u64>,
    /// Hall variant names.
    pub halls: Vec<String>,
    /// Media policy names.
    pub media: Vec<String>,
    /// Fault-ensemble sizes.
    pub fault_scenarios: Vec<usize>,
    /// Yield trials per point (default: the search profile's 10).
    pub yield_trials: Option<usize>,
    /// Repair trials per point (default: the search profile's 3).
    pub repair_trials: Option<usize>,
}

impl WireSpace {
    /// The space as a JSON object; empty lists and unset trials are
    /// omitted.
    pub fn to_json(&self) -> Value {
        sparse([
            ("families", list(&self.families)),
            ("servers", list(&self.servers)),
            ("speeds", list(&self.speeds)),
            ("seeds", list(&self.seeds)),
            ("halls", list(&self.halls)),
            ("media", list(&self.media)),
            ("fault_scenarios", list(&self.fault_scenarios)),
            ("yield_trials", self.yield_trials.into()),
            ("repair_trials", self.repair_trials.into()),
        ])
    }

    /// Reads a space object: every key is optional; unknown and repeated
    /// keys are errors.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut s = Self::default();
        p.object(&[], |p, key| {
            match key {
                "families" => s.families = p.array(Parser::string)?,
                "servers" => s.servers = p.array(Parser::uint)?,
                "speeds" => s.speeds = p.array(Parser::f64)?,
                "seeds" => s.seeds = p.array(Parser::uint)?,
                "halls" => s.halls = p.array(Parser::string)?,
                "media" => s.media = p.array(Parser::string)?,
                "fault_scenarios" => s.fault_scenarios = p.array(Parser::uint)?,
                "yield_trials" => s.yield_trials = p.option(Parser::uint)?,
                "repair_trials" => s.repair_trials = p.option(Parser::uint)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(s)
    }

    /// Validates names and materializes the [`ParamSpace`].
    pub fn resolve(&self) -> Result<ParamSpace, String> {
        let mut space = ParamSpace::default();
        if !self.families.is_empty() {
            space.families = self
                .families
                .iter()
                .map(|n| Family::from_name(n).ok_or_else(|| format!("unknown family {n:?}")))
                .collect::<Result<_, _>>()?;
        }
        if !self.servers.is_empty() {
            if self.servers.contains(&0) {
                return Err("servers must be ≥ 1".to_string());
            }
            space.servers = self.servers.clone();
        }
        if !self.speeds.is_empty() {
            if self.speeds.iter().any(|s| !s.is_finite() || *s <= 0.0) {
                return Err("speeds must be positive numbers".to_string());
            }
            space.speeds = self.speeds.clone();
        }
        if !self.seeds.is_empty() {
            space.seeds = self.seeds.clone();
        }
        if !self.halls.is_empty() {
            space.halls = self
                .halls
                .iter()
                .map(|n| HallVariant::from_name(n).ok_or_else(|| format!("unknown hall {n:?}")))
                .collect::<Result<_, _>>()?;
        }
        if !self.media.is_empty() {
            space.media = self
                .media
                .iter()
                .map(|n| MediaPolicy::from_name(n).ok_or_else(|| format!("unknown media {n:?}")))
                .collect::<Result<_, _>>()?;
        }
        if !self.fault_scenarios.is_empty() {
            space.fault_scenarios = self.fault_scenarios.clone();
        }
        if let Some(y) = self.yield_trials {
            if y == 0 {
                return Err("yield_trials must be ≥ 1".to_string());
            }
            space.trials.yield_trials = y;
        }
        if let Some(r) = self.repair_trials {
            if r == 0 {
                return Err("repair_trials must be ≥ 1".to_string());
            }
            space.trials.repair_trials = r;
        }
        Ok(space)
    }
}

/// One slot of a `batch` response: a report or a rendered `EvalError`, in
/// the request's spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// The report, when the spec evaluated.
    pub report: Option<DeployabilityReport>,
    /// The rendered `EvalError`, when it did not.
    pub error: Option<String>,
}

impl BatchItem {
    /// A successful slot.
    pub fn ok(report: DeployabilityReport) -> Self {
        Self {
            report: Some(report),
            error: None,
        }
    }

    /// A failed slot.
    pub fn err(error: impl Into<String>) -> Self {
        Self {
            report: None,
            error: Some(error.into()),
        }
    }

    /// The slot as a JSON object holding `report` or `error`.
    pub fn to_json(&self) -> Value {
        sparse([
            (
                "report",
                self.report
                    .as_ref()
                    .map(DeployabilityReport::to_json)
                    .into(),
            ),
            ("error", self.error.clone().into()),
        ])
    }

    /// Reads the form [`Self::to_json`] writes.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut item = Self {
            report: None,
            error: None,
        };
        p.object(&[], |p, key| {
            match key {
                "report" => item.report = p.option(DeployabilityReport::from_json)?,
                "error" => item.error = p.option(Parser::string)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(item)
    }
}

/// The `status` payload. Every field observes the live server, so status
/// bodies are **diagnostics** — never part of the byte-identity contract.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusBody {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Connections currently open.
    pub live_connections: u64,
    /// Request lines received since start (all ops, malformed included).
    pub requests: u64,
    /// Work requests completed (a response was produced).
    pub completed: u64,
    /// Work requests rejected by admission control.
    pub rejected: u64,
    /// Work requests currently executing on workers.
    pub inflight: u64,
    /// Work requests admitted and waiting for a worker.
    pub queued: u64,
    /// Worker-pool size.
    pub workers: usize,
    /// Admission cap on the pending queue.
    pub queue_cap: usize,
    /// Whether the server is draining (shutdown requested).
    pub draining: bool,
    /// Distinct topologies in the shared generation cache.
    pub cache_entries: usize,
    /// Generation-cache hits since start.
    pub cache_hits: usize,
    /// Generation-cache misses since start.
    pub cache_misses: usize,
    /// Per-tier artifact-cache statistics, in pipeline order. `default`
    /// so clients tolerate status bodies from older servers.
    pub artifact_tiers: Vec<TierStatus>,
}

/// One artifact-cache tier's statistics inside a [`StatusBody`]. Mirrors
/// `pd_core::artifacts::TierStats` on the wire; like the rest of the
/// status body these counters are diagnostics, never part of the
/// byte-identity contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TierStatus {
    /// Tier stage name (lowercase, e.g. `"place"`).
    pub stage: String,
    /// Snapshots currently cached in this tier.
    pub entries: u64,
    /// Adoptions credited to this tier since start.
    pub hits: u64,
    /// Probes that found nothing at this tier since start.
    pub misses: u64,
    /// Snapshots evicted by the per-tier LRU bound since start.
    pub evictions: u64,
}

impl StatusBody {
    /// The body as a JSON object, every field present.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("uptime_ms", self.uptime_ms.into()),
            ("connections", self.connections.into()),
            ("live_connections", self.live_connections.into()),
            ("requests", self.requests.into()),
            ("completed", self.completed.into()),
            ("rejected", self.rejected.into()),
            ("inflight", self.inflight.into()),
            ("queued", self.queued.into()),
            ("workers", self.workers.into()),
            ("queue_cap", self.queue_cap.into()),
            ("draining", self.draining.into()),
            ("cache_entries", self.cache_entries.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            (
                "artifact_tiers",
                self.artifact_tiers
                    .iter()
                    .map(TierStatus::to_json)
                    .collect(),
            ),
        ])
    }

    /// Reads a body: every field but `artifact_tiers` is required, so
    /// clients tolerate bodies from servers older than the tiers.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut b = Self {
            uptime_ms: 0,
            connections: 0,
            live_connections: 0,
            requests: 0,
            completed: 0,
            rejected: 0,
            inflight: 0,
            queued: 0,
            workers: 0,
            queue_cap: 0,
            draining: false,
            cache_entries: 0,
            cache_hits: 0,
            cache_misses: 0,
            artifact_tiers: Vec::new(),
        };
        let required = [
            "uptime_ms",
            "connections",
            "live_connections",
            "requests",
            "completed",
            "rejected",
            "inflight",
            "queued",
            "workers",
            "queue_cap",
            "draining",
            "cache_entries",
            "cache_hits",
            "cache_misses",
        ];
        p.object(&required, |p, key| {
            match key {
                "uptime_ms" => b.uptime_ms = p.uint()?,
                "connections" => b.connections = p.uint()?,
                "live_connections" => b.live_connections = p.uint()?,
                "requests" => b.requests = p.uint()?,
                "completed" => b.completed = p.uint()?,
                "rejected" => b.rejected = p.uint()?,
                "inflight" => b.inflight = p.uint()?,
                "queued" => b.queued = p.uint()?,
                "workers" => b.workers = p.uint()?,
                "queue_cap" => b.queue_cap = p.uint()?,
                "draining" => b.draining = p.bool()?,
                "cache_entries" => b.cache_entries = p.uint()?,
                "cache_hits" => b.cache_hits = p.uint()?,
                "cache_misses" => b.cache_misses = p.uint()?,
                "artifact_tiers" => b.artifact_tiers = p.array(TierStatus::from_json)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(b)
    }
}

impl TierStatus {
    /// The tier as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("stage", self.stage.as_str().into()),
            ("entries", self.entries.into()),
            ("hits", self.hits.into()),
            ("misses", self.misses.into()),
            ("evictions", self.evictions.into()),
        ])
    }

    /// Reads a tier object; every field is required.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut t = Self {
            stage: String::new(),
            entries: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        p.object(
            &["stage", "entries", "hits", "misses", "evictions"],
            |p, key| {
                match key {
                    "stage" => t.stage = p.string()?,
                    "entries" => t.entries = p.uint()?,
                    "hits" => t.hits = p.uint()?,
                    "misses" => t.misses = p.uint()?,
                    "evictions" => t.evictions = p.uint()?,
                    _ => return Ok(false),
                }
                Ok(true)
            },
        )?;
        Ok(t)
    }
}

/// One response line. Exactly one of the payload fields is populated on
/// `ok: true`; `error` is populated on `ok: false`.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's `id`, echoed.
    pub id: Value,
    /// Whether the request produced its payload.
    pub ok: bool,
    /// `evaluate` payload.
    pub report: Option<DeployabilityReport>,
    /// `batch` payload, in spec order.
    pub results: Option<Vec<BatchItem>>,
    /// `search` payload, in plan order.
    pub records: Option<Vec<PointRecord>>,
    /// Set on a `search` response whose run was interrupted (deadline or
    /// shutdown) before exhausting its plan — the records are a valid
    /// prefix, but not the complete deterministic answer.
    pub interrupted: Option<bool>,
    /// `status` payload.
    pub status: Option<StatusBody>,
    /// `shutdown` acknowledgement: the server is draining.
    pub draining: Option<bool>,
    /// The failure, when `ok` is false: a protocol rejection
    /// (`bad_request: …` / `overloaded: …` / `shutting_down: …`) or a
    /// rendered `EvalError`.
    pub error: Option<String>,
}

impl Response {
    fn empty(id: Value, ok: bool) -> Self {
        Self {
            id,
            ok,
            report: None,
            results: None,
            records: None,
            interrupted: None,
            status: None,
            draining: None,
            error: None,
        }
    }

    /// A successful `evaluate` response.
    pub fn report(id: Value, report: DeployabilityReport) -> Self {
        Self {
            report: Some(report),
            ..Self::empty(id, true)
        }
    }

    /// A successful `batch` response.
    pub fn results(id: Value, results: Vec<BatchItem>) -> Self {
        Self {
            results: Some(results),
            ..Self::empty(id, true)
        }
    }

    /// A successful `search` response.
    pub fn records(id: Value, records: Vec<PointRecord>, interrupted: bool) -> Self {
        Self {
            records: Some(records),
            interrupted: interrupted.then_some(true),
            ..Self::empty(id, true)
        }
    }

    /// A `status` response.
    pub fn status(id: Value, status: StatusBody) -> Self {
        Self {
            status: Some(status),
            ..Self::empty(id, true)
        }
    }

    /// A `shutdown` acknowledgement.
    pub fn draining(id: Value) -> Self {
        Self {
            draining: Some(true),
            ..Self::empty(id, true)
        }
    }

    /// A failure response carrying an already-prefixed error string (a
    /// rendered `EvalError`, or one of the protocol prefixes).
    pub fn error(id: Value, error: impl Into<String>) -> Self {
        Self {
            error: Some(error.into()),
            ..Self::empty(id, false)
        }
    }

    /// A typed `bad_request` failure.
    pub fn bad_request(id: Value, detail: impl std::fmt::Display) -> Self {
        Self::error(id, format!("{ERR_BAD_REQUEST}: {detail}"))
    }

    /// A typed `overloaded` admission rejection.
    pub fn overloaded(id: Value, queue_cap: usize) -> Self {
        Self::error(
            id,
            format!("{ERR_OVERLOADED}: pending queue at capacity ({queue_cap}); retry later"),
        )
    }

    /// A typed `shutting_down` rejection.
    pub fn shutting_down(id: Value) -> Self {
        Self::error(
            id,
            format!("{ERR_SHUTTING_DOWN}: server is draining and accepts no new work"),
        )
    }

    /// Whether the error (if any) carries the given taxonomy prefix.
    pub fn error_is(&self, prefix: &str) -> bool {
        self.error.as_deref().is_some_and(|e| e.starts_with(prefix))
    }

    /// The response as a JSON object; absent fields are omitted.
    pub fn to_json(&self) -> Value {
        sparse([
            ("id", self.id.clone()),
            ("ok", self.ok.into()),
            (
                "report",
                self.report
                    .as_ref()
                    .map(DeployabilityReport::to_json)
                    .into(),
            ),
            (
                "results",
                self.results
                    .as_ref()
                    .map(|items| items.iter().map(BatchItem::to_json).collect::<Value>())
                    .into(),
            ),
            (
                "records",
                self.records
                    .as_ref()
                    .map(|records| records.iter().map(PointRecord::to_json).collect::<Value>())
                    .into(),
            ),
            ("interrupted", self.interrupted.into()),
            (
                "status",
                self.status.as_ref().map(StatusBody::to_json).into(),
            ),
            ("draining", self.draining.into()),
            ("error", self.error.clone().into()),
        ])
    }

    /// Reads a response object: `ok` is required, unknown and repeated
    /// keys are errors.
    pub fn from_json(p: &mut Parser<'_>) -> Result<Self, json::Error> {
        let mut r = Self::empty(Value::Null, false);
        p.object(&["ok"], |p, key| {
            match key {
                "id" => r.id = p.value()?,
                "ok" => r.ok = p.bool()?,
                "report" => r.report = p.option(DeployabilityReport::from_json)?,
                "results" => r.results = p.option(|p| p.array(BatchItem::from_json))?,
                "records" => r.records = p.option(|p| p.array(PointRecord::from_json))?,
                "interrupted" => r.interrupted = p.option(Parser::bool)?,
                "status" => r.status = p.option(StatusBody::from_json)?,
                "draining" => r.draining = p.option(Parser::bool)?,
                "error" => r.error = p.option(Parser::string)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(r)
    }

    /// The response's JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string()
    }
}

/// Parses one response line.
pub fn parse_response(line: &str) -> Result<Response, json::Error> {
    json::parse(line, Response::from_json)
}

/// Outcome of one bounded line read.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (newline stripped; the final unterminated line
    /// before EOF also lands here).
    Line(String),
    /// The line exceeded the bound. `discarded` bytes were dropped up to
    /// (not including) the terminating newline — or EOF — and the reader
    /// is positioned after it: the connection survives.
    TooLong {
        /// Bytes dropped.
        discarded: usize,
    },
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line, holding at most `max` bytes in memory.
///
/// This is the server's defense against a client (or a port scanner)
/// streaming an unbounded line: memory stays bounded, the oversized line
/// is consumed to its newline, and the caller can answer with a typed
/// `bad_request` and keep the connection.
pub fn read_bounded_line(r: &mut impl std::io::BufRead, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(finish_line(buf))
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > max {
                let discarded = buf.len() + pos;
                r.consume(pos + 1);
                return Ok(LineRead::TooLong { discarded });
            }
            buf.extend_from_slice(&chunk[..pos]);
            r.consume(pos + 1);
            return Ok(LineRead::Line(finish_line(buf)));
        }
        let n = chunk.len();
        if buf.len() + n > max {
            let mut discarded = buf.len() + n;
            r.consume(n);
            // Keep discarding until the newline (or EOF) so the *next*
            // read starts on a fresh line.
            loop {
                let chunk = match r.fill_buf() {
                    Ok(c) => c,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if chunk.is_empty() {
                    return Ok(LineRead::TooLong { discarded });
                }
                if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                    discarded += pos;
                    r.consume(pos + 1);
                    return Ok(LineRead::TooLong { discarded });
                }
                discarded += chunk.len();
                let n = chunk.len();
                r.consume(n);
            }
        }
        buf.extend_from_slice(chunk);
        r.consume(n);
    }
}

fn finish_line(mut buf: Vec<u8>) -> String {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8_lossy(&buf).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WireSpec {
        WireSpec {
            family: "fat-tree".into(),
            servers: 64,
            speed_gbps: 100.0,
            seed: 7,
            hall: "hall-std".into(),
            media: "media-std".into(),
            fault_scenarios: 0,
            yield_trials: 5,
            repair_trials: 2,
        }
    }

    fn round_trip_request(req: &Request) {
        let line = req.to_json_line();
        let parsed = parse_request(&line).expect("request parses back");
        assert_eq!(&parsed, req);
        assert_eq!(parsed.to_json_line(), line, "byte-stable round trip");
    }

    fn round_trip_response(resp: &Response) {
        let line = resp.to_json_line();
        let parsed = parse_response(&line).expect("response parses back");
        assert_eq!(&parsed, resp);
        assert_eq!(parsed.to_json_line(), line, "byte-stable round trip");
    }

    #[test]
    fn every_request_variant_round_trips() {
        round_trip_request(&Request::evaluate(Value::from("r1"), spec()));
        round_trip_request(&Request {
            specs: Some(vec![spec(), spec()]),
            deadline_ms: Some(2500),
            ..Request::bare(Value::from(42u64), Op::Batch)
        });
        round_trip_request(&Request {
            space: Some(WireSpace {
                families: vec!["fat-tree".into()],
                servers: vec![64, 128],
                yield_trials: Some(4),
                ..WireSpace::default()
            }),
            strategy: Some("random".into()),
            budget: Some(8),
            seed: Some(3),
            ..Request::bare(Value::object([("k", Value::from(1u64))]), Op::Search)
        });
        round_trip_request(&Request::bare(Value::Null, Op::Status));
        round_trip_request(&Request::bare(Value::from("bye"), Op::Shutdown));
    }

    #[test]
    fn every_response_variant_round_trips() {
        // A report-bearing response round-trips through the full
        // DeployabilityReport; build one via a real (tiny) evaluation.
        let mut dspec = pd_core::DesignSpec::new(
            "proto-rt",
            pd_core::TopologySpec::FatTree {
                k: 4,
                speed: pd_geometry::Gbps::new(100.0),
            },
        );
        dspec.yields.trials = 2;
        dspec.repair.trials = 1;
        let report = pd_core::evaluate(&dspec).expect("tiny evaluation").report;

        round_trip_response(&Response::report(Value::from("a"), report.clone()));
        round_trip_response(&Response::results(
            Value::from("b"),
            vec![
                BatchItem::ok(report),
                BatchItem::err("placement: hall full"),
            ],
        ));
        round_trip_response(&Response::records(Value::from("c"), Vec::new(), true));
        round_trip_response(&Response::status(
            Value::from("d"),
            StatusBody {
                uptime_ms: 12,
                connections: 3,
                live_connections: 1,
                requests: 9,
                completed: 7,
                rejected: 1,
                inflight: 1,
                queued: 0,
                workers: 2,
                queue_cap: 64,
                draining: false,
                cache_entries: 2,
                cache_hits: 5,
                cache_misses: 2,
                artifact_tiers: vec![TierStatus {
                    stage: "place".into(),
                    entries: 2,
                    hits: 4,
                    misses: 3,
                    evictions: 1,
                }],
            },
        ));
        round_trip_response(&Response::draining(Value::from("e")));
        round_trip_response(&Response::bad_request(Value::Null, "no such op"));
        round_trip_response(&Response::overloaded(Value::from(1u64), 64));
        round_trip_response(&Response::shutting_down(Value::from(2u64)));
    }

    #[test]
    fn error_taxonomy_prefixes_are_detectable() {
        assert!(Response::bad_request(Value::Null, "x").error_is(ERR_BAD_REQUEST));
        assert!(Response::overloaded(Value::Null, 8).error_is(ERR_OVERLOADED));
        assert!(Response::shutting_down(Value::Null).error_is(ERR_SHUTTING_DOWN));
        assert!(!Response::error(Value::Null, "placement: full").error_is(ERR_BAD_REQUEST));
        assert!(!Response::draining(Value::Null).error_is(ERR_BAD_REQUEST));
    }

    #[test]
    fn unknown_fields_and_ops_are_rejected() {
        use json::ErrorKind::*;
        let kind = |line: &str| parse_request(line).unwrap_err().kind;
        assert_eq!(
            kind(r#"{"op":"evaluate","sepc":{}}"#),
            UnknownField("sepc".into())
        );
        assert_eq!(
            kind(r#"{"op":"frobnicate"}"#),
            UnknownVariant("frobnicate".into())
        );
        assert_eq!(
            kind(r#"{"op":"status","op":"status"}"#),
            DuplicateKey("op".into())
        );
        assert_eq!(kind(r#"{"id":1}"#), MissingField("op"));
        assert_eq!(
            kind(r#"{"op":"evaluate","spec":{"family":"fat-tree"}}"#),
            MissingField("servers")
        );
        assert_eq!(
            kind(r#"{"op":"evaluate","spec":{"family":"fat-tree","servers":-64}}"#),
            Expected("a non-negative integer")
        );
        assert_eq!(kind("not json"), Expected("an object"));
        assert_eq!(kind(""), UnexpectedEnd);
        let e = parse_request(r#"{"op":"status", "oops":1}"#).unwrap_err();
        assert_eq!(e.to_string(), r#"unknown field "oops" at byte 16"#);
    }

    #[test]
    fn request_lines_are_golden() {
        assert_eq!(
            Request::evaluate(Value::from("r1"), WireSpec::new("fat-tree", 64)).to_json_line(),
            r#"{"id":"r1","op":"evaluate","spec":{"family":"fat-tree","fault_scenarios":0,"hall":"hall-std","media":"media-std","repair_trials":3,"seed":11,"servers":64,"speed_gbps":100.0,"yield_trials":10}}"#
        );
        assert_eq!(
            Request::bare(Value::Null, Op::Status).to_json_line(),
            r#"{"op":"status"}"#
        );
        assert_eq!(
            Response::bad_request(Value::from(7u64), "x").to_json_line(),
            r#"{"error":"bad_request: x","id":7,"ok":false}"#
        );
    }

    #[test]
    fn spec_defaults_fill_in() {
        let req = parse_request(
            r#"{"id":"x","op":"evaluate","spec":{"family":"jellyfish","servers":96}}"#,
        )
        .expect("minimal spec parses");
        let ws = req.spec.expect("spec present");
        assert_eq!(ws.speed_gbps, 100.0);
        assert_eq!(ws.seed, 11);
        assert_eq!(ws.hall, "hall-std");
        assert_eq!(ws.media, "media-std");
        assert_eq!(ws.fault_scenarios, 0);
        let (point, trials) = ws.resolve().expect("resolves");
        assert_eq!(point.family.name(), "jellyfish");
        assert_eq!(point.servers, 96);
        assert_eq!(trials, TrialProfile::default());
    }

    #[test]
    fn wire_spec_round_trips_through_a_point() {
        let (point, trials) = spec().resolve().expect("resolves");
        let back = WireSpec::for_point(&point, &trials);
        assert_eq!(back, spec());
        assert_eq!(point.label(), "fat-tree/s64/g100/x7/hall-std/media-std/f0");
    }

    #[test]
    fn wire_spec_validation_is_typed() {
        let bad = |f: fn(&mut WireSpec)| {
            let mut s = spec();
            f(&mut s);
            s.resolve().expect_err("must reject")
        };
        assert!(bad(|s| s.family = "hypercube".into()).contains("unknown family"));
        assert!(bad(|s| s.hall = "hall-huge".into()).contains("unknown hall"));
        assert!(bad(|s| s.media = "fso".into()).contains("unknown media"));
        assert!(bad(|s| s.servers = 0).contains("servers"));
        assert!(bad(|s| s.speed_gbps = f64::NAN).contains("speed_gbps"));
        assert!(bad(|s| s.speed_gbps = -1.0).contains("speed_gbps"));
        assert!(bad(|s| s.yield_trials = 0).contains("trials"));
    }

    #[test]
    fn wire_space_resolves_with_defaults_and_rejects_unknowns() {
        let space = WireSpace::default().resolve().expect("default space");
        assert_eq!(space, ParamSpace::default());

        let narrowed = WireSpace {
            families: vec!["fat-tree".into(), "leaf-spine".into()],
            servers: vec![64],
            halls: vec!["dense".into()],
            repair_trials: Some(1),
            ..WireSpace::default()
        }
        .resolve()
        .expect("narrowed space");
        assert_eq!(narrowed.len(), 2);
        assert_eq!(narrowed.halls, vec![HallVariant::Dense]);
        assert_eq!(narrowed.trials.repair_trials, 1);

        assert!(WireSpace {
            families: vec!["torus".into()],
            ..WireSpace::default()
        }
        .resolve()
        .is_err());
        assert!(WireSpace {
            servers: vec![0],
            ..WireSpace::default()
        }
        .resolve()
        .is_err());
    }

    #[test]
    fn salvage_id_recovers_what_it_can() {
        assert_eq!(salvage_id(r#"{"id":"r9","op":"nope"}"#), Value::from("r9"));
        assert_eq!(salvage_id(r#"{"id":7,"op":[]}"#), Value::from(7u64));
        assert_eq!(salvage_id("garbage"), Value::Null);
        assert_eq!(salvage_id(r#"{"op":"status"}"#), Value::Null);
    }

    #[test]
    fn bounded_line_reads() {
        use std::io::BufReader;
        let data = b"short\nexactly10\n\nthis line is far too long for the bound\nnext\nlast";
        let mut r = BufReader::new(&data[..]);
        let max = 10;
        assert_eq!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::Line("short".into())
        );
        assert_eq!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::Line("exactly10".into())
        );
        assert_eq!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::Line(String::new())
        );
        assert_eq!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::TooLong {
                discarded: "this line is far too long for the bound".len()
            }
        );
        assert_eq!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::Line("next".into())
        );
        // Final unterminated line still delivered, then EOF.
        assert_eq!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::Line("last".into())
        );
        assert_eq!(read_bounded_line(&mut r, max).unwrap(), LineRead::Eof);

        // Oversized line that hits EOF before any newline.
        let mut r = BufReader::new(&b"wayyyy too long without newline"[..]);
        assert!(matches!(
            read_bounded_line(&mut r, 5).unwrap(),
            LineRead::TooLong { .. }
        ));
        assert_eq!(read_bounded_line(&mut r, 5).unwrap(), LineRead::Eof);

        // CRLF is tolerated.
        let mut r = BufReader::new(&b"crlf\r\n"[..]);
        assert_eq!(
            read_bounded_line(&mut r, 10).unwrap(),
            LineRead::Line("crlf".into())
        );
    }
}
