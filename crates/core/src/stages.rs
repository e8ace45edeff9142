//! The staged pipeline engine: a typed stage graph over the evaluation.
//!
//! [`crate::pipeline::evaluate`] used to be one monolithic function; it is
//! now a thin wrapper over this module, which names each pipeline step as a
//! [`Stage`], accumulates intermediate artifacts in a [`StageState`] store,
//! and drives them with a small executor ([`StageState::run_to`]). That
//! buys three things the monolith could not offer:
//!
//! * **Partial evaluation.** `run_to(Stage::Place)` runs exactly the cheap
//!   prefix (generate → validate → place) and stops; calling `run_to`
//!   again with a deeper target resumes from where it left off without
//!   redoing work. The search engine's adaptive rungs are built on this —
//!   the "cheap proxy" *is* the real pipeline prefix, so the two can never
//!   drift apart.
//! * **Stage-attributed failures.** The executor notes the running stage in
//!   a thread-local before each step; when the batch engine's
//!   `catch_unwind` observes a panic, [`take_current_stage`] tells it which
//!   stage died, and `EvalError::Panicked` carries the name.
//! * **Per-stage observability.** Every stage records its runs, wall time
//!   and artifact count into the process-wide `pipeline.<stage>.*`
//!   metrics, and into a [`StageTrace`] attached with
//!   [`StageState::traced`]. Timings are diagnostics only: they never feed
//!   back into evaluation and never enter deterministic outputs (reports,
//!   JSONL records), the same rule that keeps cache counters out of
//!   checkpoint files.
//!
//! Stage bodies are byte-for-byte the computations the monolith performed,
//! in the same order, so `run_to(Stage::Report)` produces reports identical
//! to the pre-refactor `evaluate()` — pinned by the determinism tests and
//! `tests/stage_equivalence.rs`.
//!
//! ```
//! use pd_core::stages::{Stage, StageState};
//! use pd_core::{DesignSpec, TopologySpec};
//! use pd_geometry::Gbps;
//!
//! let mut spec = DesignSpec::new(
//!     "demo",
//!     TopologySpec::FatTree { k: 4, speed: Gbps::new(100.0) },
//! );
//! spec.yields.trials = 5; // keep the doctest quick
//! spec.repair.trials = 2;
//!
//! let mut st = StageState::new(&spec);
//! st.run_to(Stage::Place).unwrap(); // cheap prefix only
//! assert!(st.network().is_some() && st.cabling().is_none());
//! st.run_to(Stage::Report).unwrap(); // resume to the end
//! let ev = st.into_evaluation();
//! assert_eq!(ev.report.servers, 16);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::artifacts::{tier_of, ArtifactCache, Artifacts, Claim, Flight, Probe, Snapshot, TIERS};
use crate::chaos::ChaosPlan;
use crate::design::{DesignSpec, ExpansionProbe, TopologySpec};
use crate::pipeline::{EvalError, Evaluation};
use crate::report::DeployabilityReport;
use crate::resilience::{monotonic_nanos, CancelToken, Deadline};
use pd_cabling::{BundlingReport, CablingPlan, HarnessReport, TrayTrees};
use pd_costing::{CapexReport, DeploymentPlan, Schedule, TcoReport, YieldReport};
use pd_geometry::{Hours, Watts};
use pd_lifecycle::expansion::{
    clos_add_pods, flat_add_tor, ClosExpansionParams, FlatExpansionParams,
};
use pd_lifecycle::faults::Injector;
use pd_lifecycle::{LifecycleComplexity, RepairSimReport};
use pd_physical::{Hall, Placement};
use pd_topology::csr::{self, CsrNet};
use pd_topology::metrics::{failure_resilience_from, goodness_from};
use pd_topology::{Network, SwitchRole};
use pd_twin::{check_design, CapabilityEnvelope, DesignFacts, Severity};

/// One named step of the evaluation pipeline, in execution order.
///
/// The order is the data-dependency order the monolith ran in; notably
/// [`Stage::Faults`] precedes [`Stage::Expansion`] because the fault sweep
/// measures the as-built network and the expansion probe mutates it for
/// flat-ToR growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Build the [`Network`] from the topology spec (memoized when an
    /// [`ArtifactCache`] is attached).
    Generate,
    /// Structural guard for user-supplied ([`TopologySpec::Custom`])
    /// networks; a no-op for generated topologies, which are correct by
    /// construction.
    Validate,
    /// Build the [`Hall`] and place racks into it.
    Place,
    /// Route every link through the tray graph into a [`CablingPlan`].
    Cable,
    /// Bundling and harness analysis over the cabling plan.
    Bundle,
    /// Deployment task graph + technician schedule.
    Schedule,
    /// First-pass-yield simulation.
    Yield,
    /// Capex bill of materials + TCO aggregation.
    Cost,
    /// Repair/availability simulation.
    Repair,
    /// Correlated fault-injection sweep (skipped when the spec's
    /// `fault_scenarios` ensemble is empty).
    Faults,
    /// Expansion probe (may mutate the network for flat-ToR growth).
    Expansion,
    /// Twin lowering: constraint check + capability-envelope check.
    Twin,
    /// Abstract-goodness metrics (+ optional resilience probe).
    Goodness,
    /// Assemble the [`DeployabilityReport`].
    Report,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Generate,
        Stage::Validate,
        Stage::Place,
        Stage::Cable,
        Stage::Bundle,
        Stage::Schedule,
        Stage::Yield,
        Stage::Cost,
        Stage::Repair,
        Stage::Faults,
        Stage::Expansion,
        Stage::Twin,
        Stage::Goodness,
        Stage::Report,
    ];

    /// Number of stages.
    pub const COUNT: usize = 14;

    /// Position in execution order (`Generate` = 0, `Report` = 13).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name, used in panic attributions and trace tables.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Generate => "generate",
            Stage::Validate => "validate",
            Stage::Place => "place",
            Stage::Cable => "cable",
            Stage::Bundle => "bundle",
            Stage::Schedule => "schedule",
            Stage::Yield => "yield",
            Stage::Cost => "cost",
            Stage::Repair => "repair",
            Stage::Faults => "faults",
            Stage::Expansion => "expansion",
            Stage::Twin => "twin",
            Stage::Goodness => "goodness",
            Stage::Report => "report",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

thread_local! {
    /// The stage the executor on this thread is currently inside. Set
    /// before each stage body and cleared on ordinary (Ok *or* Err) exit —
    /// only a panic leaves it populated, which is exactly when the batch
    /// engine wants to read it.
    static CURRENT_STAGE: Cell<Option<Stage>> = const { Cell::new(None) };
}

fn set_current_stage(stage: Option<Stage>) {
    CURRENT_STAGE.with(|c| c.set(stage));
}

/// Takes (and clears) the stage a panicking executor on this thread was
/// inside. `None` when no stage was running — ordinary completion clears
/// the marker, so a populated value is only observable after an unwind.
/// The batch engine calls this inside its `catch_unwind` handler to
/// attribute the panic; taking rather than peeking keeps pooled worker
/// threads from leaking a stale stage into a later spec's attribution.
pub fn take_current_stage() -> Option<Stage> {
    CURRENT_STAGE.with(|c| c.replace(None))
}

/// Per-stage wall-time and artifact-count accumulator.
///
/// Cells are atomics, so one trace can be shared across a whole parallel
/// batch. **Diagnostics only**: timings are scheduling-dependent, so traces
/// must never influence evaluation or enter deterministic outputs.
///
/// A trace scopes the data to the states it is attached to; the same
/// per-stage data also flows into the process-wide [`pd_metrics::global`]
/// registry as `pipeline.<stage>.{runs,wall_ns,artifacts}`, which is what
/// the CLI bins' `--metrics` sink reports (see `docs/OBSERVABILITY.md`).
pub struct StageTrace {
    cells: [TraceCell; Stage::COUNT],
}

#[derive(Default)]
struct TraceCell {
    runs: AtomicU64,
    nanos: AtomicU64,
    artifacts: AtomicU64,
}

impl Default for StageTrace {
    fn default() -> Self {
        Self {
            cells: std::array::from_fn(|_| TraceCell::default()),
        }
    }
}

impl StageTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed run of `stage`.
    pub fn record(&self, stage: Stage, elapsed: std::time::Duration, artifacts: u64) {
        let cell = &self.cells[stage.index()];
        cell.runs.fetch_add(1, Ordering::Relaxed);
        cell.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        cell.artifacts.fetch_add(artifacts, Ordering::Relaxed);
    }

    /// Completed runs of `stage`.
    pub fn runs(&self, stage: Stage) -> u64 {
        self.cells[stage.index()].runs.load(Ordering::Relaxed)
    }

    /// Total wall time spent in `stage`, in nanoseconds.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.cells[stage.index()].nanos.load(Ordering::Relaxed)
    }

    /// Total artifacts produced by `stage` (stage-specific work counts:
    /// switches+links generated, racks placed, cable runs routed, …).
    pub fn artifacts(&self, stage: Stage) -> u64 {
        self.cells[stage.index()].artifacts.load(Ordering::Relaxed)
    }
}

/// Cached handles into the process-wide [`pd_metrics`] registry, one cell
/// triple per stage, registered once on first use so the per-stage hot
/// path pays three relaxed atomic adds and never touches the registry
/// lock. `runs`/`artifacts` are deterministic counts; `wall_ns` is
/// scheduling-dependent and registered as a diagnostic — the class split
/// `tests/count_determinism.rs` relies on when it compares `counts`
/// bytes.
struct StageMetrics {
    runs: [std::sync::Arc<pd_metrics::Counter>; Stage::COUNT],
    wall_ns: [std::sync::Arc<pd_metrics::Counter>; Stage::COUNT],
    artifacts: [std::sync::Arc<pd_metrics::Counter>; Stage::COUNT],
}

fn stage_metrics() -> &'static StageMetrics {
    static CELLS: OnceLock<StageMetrics> = OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = pd_metrics::global();
        StageMetrics {
            runs: Stage::ALL.map(|s| reg.counter(&format!("pipeline.{}.runs", s.name()))),
            wall_ns: Stage::ALL
                .map(|s| reg.diagnostic_counter(&format!("pipeline.{}.wall_ns", s.name()))),
            artifacts: Stage::ALL.map(|s| reg.counter(&format!("pipeline.{}.artifacts", s.name()))),
        }
    })
}

const ARTIFACT: &str = "stage ordering guarantees earlier artifacts exist";

/// The artifact an earlier stage produced.
fn need<T>(artifact: &Option<Arc<T>>) -> &T {
    artifact.as_deref().expect(ARTIFACT)
}

/// The growing artifact store one evaluation accumulates, plus the executor
/// that fills it stage by stage.
///
/// Borrows its [`DesignSpec`] (and optional cache/trace) rather than owning
/// them, so partially evaluating thousands of candidate specs — the search
/// engine's rungs — never clones a spec. Accessors return `Some` once the
/// producing stage has run. After `run_to(Stage::Report)`,
/// [`StageState::into_evaluation`] surrenders the store as the familiar
/// [`Evaluation`].
pub struct StageState<'a> {
    spec: &'a DesignSpec,
    artifacts: Option<&'a ArtifactCache>,
    /// Per-tier cache keys ([`DesignSpec::tier_keys`]); `None` when no
    /// artifact cache is attached or the spec is uncacheable (`Custom`).
    tier_keys: Option<[u64; TIERS.len()]>,
    /// Artifact count each completed stage reported, for snapshots and
    /// count replay on adoption.
    artifact_counts: [u64; Stage::COUNT],
    trace: Option<&'a StageTrace>,
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
    chaos: Option<&'a ChaosPlan>,
    heartbeat: Option<&'a AtomicU64>,
    /// When this evaluation first entered the executor; deadline elapsed
    /// time is measured from here, spanning resumed `run_to` calls.
    eval_started: Option<Instant>,
    /// Suppress deterministic count metrics (retry attempts only).
    quiet: bool,
    /// Index (into [`Stage::ALL`]) of the next stage to run.
    next: usize,
    /// The completed stages' artifacts, shared with any snapshot they
    /// were stored in or adopted from.
    store: Artifacts,
    /// Dense CSR view of the network, built lazily the first time a kernel
    /// stage (Faults, Goodness) needs it and shared between them via
    /// `Arc`. Invalidated whenever the network changes: the flat-ToR
    /// expansion probe, and adopting a network other than the one held.
    csr: Option<Arc<CsrNet>>,
}

/// What [`StageState::probe`] did at a stage boundary.
enum Probed<'a> {
    /// No probe was due, or the spec is uncacheable.
    Nothing,
    /// A snapshot was adopted; the executor re-enters the boundary loop at
    /// the new depth.
    Adopted,
    /// The tier's key is this state's to compute and store.
    Claimed(Claim<'a, Arc<Snapshot>>),
    /// Another state is computing the tier.
    Busy(Arc<Flight>),
}

impl<'a> StageState<'a> {
    /// A fresh state; [`Stage::Generate`] will build the network from
    /// `spec.topology`.
    pub fn new(spec: &'a DesignSpec) -> Self {
        Self {
            spec,
            artifacts: None,
            tier_keys: None,
            artifact_counts: [0; Stage::COUNT],
            trace: None,
            cancel: None,
            deadline: None,
            chaos: None,
            heartbeat: None,
            eval_started: None,
            quiet: false,
            next: 0,
            store: Artifacts::default(),
            csr: None,
        }
    }

    /// Attaches a tiered [`ArtifactCache`]: [`Stage::Generate`] routes
    /// through its Generate tier, so equal topology sub-specs across many
    /// states generate once, [`Stage::Cable`] shares its hall's tray trees
    /// through the tray tier, and the executor stores a snapshot after the
    /// last stage of each tier ([`TIERS`]) and *adopts* cached tiers
    /// instead of running their stages. A full evaluation probes the
    /// Report tier first; otherwise each tier is probed when the executor
    /// reaches it, and a hit takes only that tier's artifacts. So two
    /// specs that agree on everything a tier's stages read (see
    /// [`DesignSpec::tier_keys`]) run those stages once, whatever else
    /// they differ in. The tiers are single-flight: a tier whose key
    /// another state is computing is waited for and then adopted, never
    /// computed twice at once. Adoption never changes bytes: stage bodies
    /// are pure functions of what their tier's key covers, and the
    /// deterministic count metrics and trace entries are replayed from the
    /// snapshot's recorded counts. Uncacheable specs
    /// ([`TopologySpec::Custom`]) get the Generate routing only. Attaching
    /// a chaos plan ([`StageState::with_chaos`]) disables adoption *and*
    /// storing: an injected failure must re-fire on retry, and a
    /// chaos-perturbed run must never seed snapshots for healthy runs.
    pub fn with_artifacts(mut self, cache: &'a ArtifactCache) -> Self {
        self.artifacts = Some(cache);
        self.tier_keys = self.spec.tier_keys();
        self
    }

    /// Attaches a trace that records every stage this state runs or
    /// adopts.
    pub fn traced(mut self, trace: &'a StageTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches (a clone of) a cancellation token, checked at every stage
    /// boundary: once it fires, the executor returns
    /// [`EvalError::Cancelled`] before running the next stage. Completed
    /// artifacts stay readable.
    pub fn with_cancel(mut self, cancel: &CancelToken) -> Self {
        self.cancel = Some(cancel.clone());
        self
    }

    /// Attaches a deadline, checked at every stage boundary: once it
    /// expires, the executor returns [`EvalError::TimedOut`] naming the
    /// stage that would have run next. Stage bodies are not preempted —
    /// the check is cooperative, so overrun is bounded by one stage body.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a chaos plan whose injections fire at stage boundaries
    /// (see [`crate::chaos`]). Test-harness hook; `None` in production.
    pub fn with_chaos(mut self, chaos: &'a ChaosPlan) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Attaches a heartbeat cell the executor stamps (with
    /// [`monotonic_nanos`], clamped ≥ 1) at every stage boundary — the
    /// batch watchdog's liveness signal.
    pub fn with_heartbeat(mut self, heartbeat: &'a AtomicU64) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }

    /// Suppresses the deterministic count metrics
    /// (`pipeline.<stage>.{runs,artifacts}`) for this state, keeping only
    /// the diagnostic `wall_ns` and any attached [`StageTrace`]. The batch
    /// engine runs *retry* attempts quiet so retries — which depend on
    /// wall-clock failures — can never shift the byte-compared counts.
    pub fn quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }

    /// The deepest stage that has completed, if any.
    pub fn completed(&self) -> Option<Stage> {
        self.next.checked_sub(1).map(|i| Stage::ALL[i])
    }

    /// The spec this state evaluates.
    pub fn spec(&self) -> &DesignSpec {
        self.spec
    }

    /// The generated network (post-probe state once [`Stage::Expansion`]
    /// has run a flat-ToR probe).
    pub fn network(&self) -> Option<&Network> {
        self.store.network.as_deref()
    }

    /// The hall, after [`Stage::Place`].
    pub fn hall(&self) -> Option<&Hall> {
        self.store.hall.as_deref()
    }

    /// The placement, after [`Stage::Place`].
    pub fn placement(&self) -> Option<&Placement> {
        self.store.placement.as_deref()
    }

    /// The cabling plan, after [`Stage::Cable`].
    pub fn cabling(&self) -> Option<&CablingPlan> {
        self.store.cabling.as_deref()
    }

    /// The bundling analysis, after [`Stage::Bundle`].
    pub fn bundling(&self) -> Option<&BundlingReport> {
        self.store.bundling.as_deref()
    }

    /// The harness analysis, after [`Stage::Bundle`].
    pub fn harness(&self) -> Option<&HarnessReport> {
        self.store.harness.as_deref()
    }

    /// The summary report, after [`Stage::Report`].
    pub fn report(&self) -> Option<&DeployabilityReport> {
        self.store.report.as_deref()
    }

    /// Runs every not-yet-run stage up to and including `target`, in
    /// order. Already-completed stages are never re-run, so calling this
    /// repeatedly with deepening targets resumes instead of restarting; a
    /// `target` at or above the completed depth is a no-op. On `Err` the
    /// failing stage stays pending and the artifacts of earlier stages
    /// remain readable. `run_to(Stage::Report)` is a full evaluation;
    /// `run_to(Stage::Place)` is the search engine's placement-feasibility
    /// proxy.
    ///
    /// Every iteration is a *stage boundary*: the executor stamps the
    /// heartbeat, fires any chaos injections, then checks cancellation and
    /// the deadline — all before the stage body runs. Interruption is
    /// therefore cooperative (a stage body is never preempted mid-flight)
    /// and clean: on [`EvalError::Cancelled`] / [`EvalError::TimedOut`]
    /// the pending stage has not started, completed artifacts remain
    /// readable, and no partial artifact exists.
    ///
    /// With an artifact cache attached, a tier whose key another state is
    /// computing is waited for, then adopted (or, if that state gave the
    /// key up, computed here). The wait holds no tier key of its own.
    pub fn run_to(&mut self, target: Stage) -> Result<(), EvalError> {
        while let Some(flight) = self.advance(target)? {
            flight.wait();
        }
        Ok(())
    }

    /// [`StageState::run_to`] without the wait: returns `Ok(Some(flight))`
    /// at the boundary of a tier whose key another state holds, with none
    /// of that tier's stages run and no key held. The caller may do other
    /// work, and calls this again (at any time, on any thread) to resume;
    /// the resumed call probes that tier afresh. `Ok(None)` means `target`
    /// is reached.
    pub(crate) fn advance(&mut self, target: Stage) -> Result<Option<Arc<Flight>>, EvalError> {
        let eval_started = *self.eval_started.get_or_insert_with(Instant::now);
        // What this call may still probe: the Report tier for a whole-store
        // hit, and the tiers from `next_tier` on. Probes happen only
        // *after* a boundary's checks below, so a pre-fired cancel or an
        // already-expired deadline still wins over a cache hit. Resumed
        // calls (the search rungs, a parked spec) probe afresh, picking up
        // tiers cached since the last call. Chaos disables adoption:
        // injections are keyed to stages actually running.
        let cacheable = self.chaos.is_none() && self.tier_keys.is_some();
        let mut whole = cacheable && target == Stage::Report;
        let mut next_tier = if cacheable { 0 } else { TIERS.len() };
        // The key of the tier being computed. Every early return and every
        // unwind drops it unstored, which gives the key up.
        let mut claim = None;
        while self.next <= target.index() {
            let stage = Stage::ALL[self.next];
            if let Some(heartbeat) = self.heartbeat {
                // 0 means "idle"; clamp so a stamp is never mistaken for it.
                heartbeat.store(monotonic_nanos().max(1), Ordering::Release);
            }
            set_current_stage(Some(stage));
            if let Some(chaos) = self.chaos {
                // With the current-stage cell set, an injected panic is
                // attributed to `stage` exactly like a real stage panic.
                chaos.apply(&self.spec.name, stage, self.cancel.as_ref());
            }
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                set_current_stage(None);
                return Err(EvalError::Cancelled);
            }
            if self.deadline.is_some_and(|d| d.expired()) {
                set_current_stage(None);
                return Err(EvalError::TimedOut {
                    stage,
                    elapsed_ms: eval_started.elapsed().as_millis() as u64,
                });
            }
            match self.probe(stage, target, &mut whole, &mut next_tier) {
                Probed::Nothing => {}
                Probed::Claimed(held) => claim = Some(held),
                Probed::Adopted => {
                    set_current_stage(None);
                    continue;
                }
                Probed::Busy(flight) => {
                    // Probes come only at a tier's first boundary, after
                    // the previous tier's claim was stored.
                    debug_assert!(claim.is_none(), "no wait while holding a key");
                    set_current_stage(None);
                    return Ok(Some(flight));
                }
            }
            let started = Instant::now();
            let outcome = self.run_stage(stage);
            set_current_stage(None);
            let artifacts = outcome?;
            let elapsed = started.elapsed();
            if let Some(trace) = self.trace {
                trace.record(stage, elapsed, artifacts);
            }
            let metrics = stage_metrics();
            if !self.quiet {
                metrics.runs[stage.index()].incr();
                metrics.artifacts[stage.index()].add(artifacts);
            }
            metrics.wall_ns[stage.index()].add(elapsed.as_nanos() as u64);
            self.artifact_counts[stage.index()] = artifacts;
            self.next += 1;
            // A claim is on the tier being run: once its last stage has
            // completed, store a snapshot sharing every artifact so far.
            // Only completed tiers store, so a failing stage can't poison
            // a tier, and chaos-perturbed runs never claim, so they never
            // seed snapshots for healthy runs.
            if TIERS.contains(&stage) {
                if let Some(claim) = claim.take() {
                    claim.store(Arc::new(Snapshot {
                        artifacts: self.store.clone(),
                        artifact_counts: self.artifact_counts,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// At the boundary before `stage`, probes the tiers due there.
    ///
    /// Two probes can be due. When `stop` is Report, the Report tier is
    /// looked up once, at the first boundary: its key covers every input,
    /// so a fully cached spec costs one lookup. That lookup adopts a stored
    /// snapshot and does nothing else; the Report tier gets its full probe
    /// at its own boundary. Then `stage`'s own tier is probed if this call
    /// has not probed it yet and its last stage is within `stop`; a state
    /// resumed in the middle of a tier still probes it, and takes only the
    /// stages it has not run. That probe adopts the tier, claims its key
    /// (this state computes the tier), or finds the key in flight.
    ///
    /// Counter attribution: a probe that adopts records a hit, one that
    /// claims records a miss, and one that finds the key in flight records
    /// neither (the probe after the flight does). A Report hit also
    /// credits every tier from `stage`'s on, since all of their work was
    /// reused. All Diagnostic-class (arrival-order dependent under
    /// parallel schedules and bounded capacity).
    fn probe(
        &mut self,
        stage: Stage,
        stop: Stage,
        whole: &mut bool,
        next_tier: &mut usize,
    ) -> Probed<'a> {
        let (Some(cache), Some(keys)) = (self.artifacts, self.tier_keys) else {
            return Probed::Nothing;
        };
        let report = TIERS.len() - 1;
        if std::mem::take(whole) {
            if let Some(snap) = cache.tier(report).get(keys[report]) {
                for skipped in tier_of(stage)..=report {
                    cache.tier(skipped).record_hit();
                }
                self.adopt(Stage::Report, &snap);
                return Probed::Adopted;
            }
        }
        let tier = tier_of(stage);
        if tier < *next_tier || TIERS[tier] > stop {
            return Probed::Nothing;
        }
        *next_tier = tier + 1;
        match cache.tier(tier).probe(keys[tier]) {
            Probe::Ready(snap) => {
                cache.tier(tier).record_hit();
                self.adopt(TIERS[tier], &snap);
                Probed::Adopted
            }
            Probe::Mine(claim) => {
                cache.tier(tier).record_miss();
                Probed::Claimed(claim)
            }
            Probe::Busy(flight) => Probed::Busy(flight),
        }
    }

    /// Takes the artifacts stages `self.next..=depth` produce from `snap`
    /// and replays their deterministic accounting as if each had run:
    /// trace entries and the Count-class `pipeline.<stage>.{runs,artifacts}`
    /// metrics use the snapshot's recorded artifact counts (zero wall time
    /// — wall time is Diagnostic-class), so adopted and computed
    /// evaluations are byte-identical on every deterministic surface.
    fn adopt(&mut self, depth: Stage, snap: &Snapshot) {
        let network = self.store.network.as_ref().map(Arc::as_ptr);
        let metrics = stage_metrics();
        for &stage in &Stage::ALL[self.next..=depth.index()] {
            self.store.adopt_stage(&snap.artifacts, stage);
            let produced = snap.artifact_counts[stage.index()];
            self.artifact_counts[stage.index()] = produced;
            if let Some(trace) = self.trace {
                trace.record(stage, Duration::ZERO, produced);
            }
            if !self.quiet {
                metrics.runs[stage.index()].incr();
                metrics.artifacts[stage.index()].add(produced);
            }
        }
        // Generate and Expansion may have replaced the network; a dense
        // view of the old one is stale.
        if self.store.network.as_ref().map(Arc::as_ptr) != network {
            self.csr = None;
        }
        self.next = depth.index() + 1;
    }

    /// The dense [`CsrNet`] view of the current network, built on first
    /// use and shared (via `Arc`) by every kernel stage until the network
    /// changes.
    fn shared_csr(&mut self) -> Arc<CsrNet> {
        if self.csr.is_none() {
            self.csr = Some(Arc::new(CsrNet::build(need(&self.store.network))));
        }
        Arc::clone(self.csr.as_ref().expect("just built"))
    }

    /// Consumes the store into an [`Evaluation`], which shares the
    /// artifacts with any cached snapshot holding them; only the report is
    /// copied out, and only if a snapshot holds it.
    ///
    /// # Panics
    ///
    /// If [`Stage::Report`] has not completed — run `run_to(Stage::Report)`
    /// first.
    pub fn into_evaluation(self) -> Evaluation {
        let store = self.store;
        let report = store
            .report
            .expect("into_evaluation requires run_to(Stage::Report) to have completed");
        Evaluation {
            network: store.network.expect(ARTIFACT),
            hall: store.hall.expect(ARTIFACT),
            placement: store.placement.expect(ARTIFACT),
            cabling: store.cabling.expect(ARTIFACT),
            bundling: store.bundling.expect(ARTIFACT),
            harness: store.harness.expect(ARTIFACT),
            deployment: store.deployment.expect(ARTIFACT),
            schedule: store.schedule.expect(ARTIFACT),
            yields: store.yields.expect(ARTIFACT),
            capex: store.capex.expect(ARTIFACT),
            tco: store.tco.expect(ARTIFACT),
            repair: store.repair.expect(ARTIFACT),
            expansion: store.expansion.expect(ARTIFACT),
            faults: store.faults.expect(ARTIFACT),
            violations: store.violations.expect(ARTIFACT),
            envelope: store.envelope.expect(ARTIFACT),
            report: Arc::unwrap_or_clone(report),
        }
    }

    /// Runs one stage body, returning its artifact count for the trace.
    /// Bodies are the monolith's steps verbatim, reading inputs from and
    /// writing outputs to the store.
    fn run_stage(&mut self, stage: Stage) -> Result<u64, EvalError> {
        let spec = self.spec;
        match stage {
            Stage::Generate => {
                let net = match self.artifacts {
                    Some(cache) => cache.generate().build(&spec.topology),
                    None => spec.topology.build().map(Arc::new),
                }
                .map_err(EvalError::Generation)?;
                let produced = (net.switch_count() + net.link_count()) as u64;
                self.store.network = Some(net);
                Ok(produced)
            }
            Stage::Validate => {
                // Structural guard for user-supplied networks. Generated
                // topologies are correct by construction; a hand-built
                // `TopologySpec::Custom` network can carry dangling link
                // endpoints or over-subscribed ports that would otherwise
                // surface as panics deep in placement or routing.
                if !matches!(spec.topology, TopologySpec::Custom(_)) {
                    return Ok(0);
                }
                let net = need(&self.store.network);
                net.validate().map_err(EvalError::Network)?;
                Ok(net.link_count() as u64)
            }
            Stage::Place => {
                let net = need(&self.store.network);
                let hall = Hall::new(spec.hall.clone());
                let mut placement = Placement::place(net, &hall, spec.placement, &spec.equipment)
                    .map_err(EvalError::Placement)?;
                if spec.placement_improvement > 0 {
                    placement.improve(net, &hall, spec.placement_improvement, spec.seed);
                }
                let produced = placement.rack_count() as u64;
                self.store.hall = Some(Arc::new(hall));
                self.store.placement = Some(Arc::new(placement));
                Ok(produced)
            }
            Stage::Cable => {
                let hall = need(&self.store.hall);
                let trees = match self.artifacts {
                    Some(cache) => cache.trays().trees(hall),
                    None => Arc::new(TrayTrees::new(hall)),
                };
                let cabling = CablingPlan::build(
                    need(&self.store.network),
                    hall,
                    need(&self.store.placement),
                    &spec.cabling,
                    &trees,
                );
                let produced = cabling.runs.len() as u64;
                self.store.cabling = Some(Arc::new(cabling));
                Ok(produced)
            }
            Stage::Bundle => {
                let cabling = need(&self.store.cabling);
                let bundling = BundlingReport::analyze(cabling, spec.min_bundle_size);
                let harness = HarnessReport::analyze(
                    cabling,
                    need(&self.store.network),
                    spec.min_bundle_size,
                );
                let produced = (bundling.bundles.len() + harness.harnesses.len()) as u64;
                self.store.bundling = Some(Arc::new(bundling));
                self.store.harness = Some(Arc::new(harness));
                Ok(produced)
            }
            Stage::Schedule => {
                let bundling = need(&self.store.bundling);
                let deployment = DeploymentPlan::from_cabling(
                    need(&self.store.network),
                    need(&self.store.placement),
                    need(&self.store.cabling),
                    spec.use_bundles.then_some(bundling),
                );
                let schedule = Schedule::run(&deployment, need(&self.store.hall), &spec.schedule);
                let produced = deployment.tasks.len() as u64;
                self.store.deployment = Some(Arc::new(deployment));
                self.store.schedule = Some(Arc::new(schedule));
                Ok(produced)
            }
            Stage::Yield => {
                let yields = YieldReport::simulate(
                    need(&self.store.deployment),
                    &spec.schedule.calib,
                    &spec.yields,
                );
                self.store.yields = Some(Arc::new(yields));
                Ok(spec.yields.trials as u64)
            }
            Stage::Cost => {
                let net = need(&self.store.network);
                let cabling = need(&self.store.cabling);
                let deployment = need(&self.store.deployment);
                let capex = CapexReport::compute(net, need(&self.store.placement), cabling);
                let switch_power: Watts = net
                    .switches()
                    .map(|s| spec.equipment.switch_shape(s.radix).2)
                    .sum();
                let network_power = switch_power + cabling.total_end_power();
                let components = net.switch_count() + cabling.runs.len();
                let tco = TcoReport::build(
                    &capex,
                    &spec.schedule.calib,
                    &pd_costing::TcoParams::default(),
                    need(&self.store.schedule).makespan,
                    deployment.total_work(&spec.schedule.calib),
                    network_power,
                    net.server_count(),
                    components,
                );
                self.store.capex = Some(Arc::new(capex));
                self.store.tco = Some(Arc::new(tco));
                Ok(components as u64)
            }
            Stage::Repair => {
                let repair = RepairSimReport::simulate(
                    need(&self.store.network),
                    need(&self.store.hall),
                    need(&self.store.placement),
                    need(&self.store.cabling),
                    &spec.schedule.calib,
                    &spec.repair,
                );
                self.store.repair = Some(Arc::new(repair));
                Ok(spec.repair.trials as u64)
            }
            Stage::Faults => {
                // Correlated fault injection (§3.3), on the as-built
                // network: this stage is ordered before `Expansion`, which
                // mutates the network for flat-ToR growth.
                let faults = if spec.fault_scenarios.scenarios > 0 {
                    let view = self.shared_csr();
                    Some(
                        Injector::new(
                            need(&self.store.network),
                            need(&self.store.hall),
                            need(&self.store.placement),
                            need(&self.store.cabling),
                            need(&self.store.bundling),
                            &spec.schedule.calib,
                            &spec.repair,
                            view,
                        )
                        .sweep(&spec.fault_scenarios),
                    )
                } else {
                    None
                };
                let produced = faults.as_ref().map_or(0, |f| f.scenarios as u64);
                self.store.faults = Some(faults);
                Ok(produced)
            }
            Stage::Expansion => {
                let expansion = run_expansion_probe(
                    spec,
                    self.store.network.as_mut().expect(ARTIFACT),
                    need(&self.store.hall),
                    need(&self.store.placement),
                );
                // The flat-ToR probe may have replaced the network; any
                // cached dense view is stale from here on.
                self.csr = None;
                let produced = expansion.as_ref().map_or(0, |c| c.rewiring_steps as u64);
                self.store.expansion = Some(expansion);
                Ok(produced)
            }
            Stage::Twin => {
                let net = need(&self.store.network);
                let cabling = need(&self.store.cabling);
                let violations = check_design(
                    net,
                    need(&self.store.hall),
                    need(&self.store.placement),
                    cabling,
                );
                let envelope =
                    CapabilityEnvelope::default().check(&DesignFacts::extract(net, cabling));
                let produced = (violations.len() + envelope.len()) as u64;
                self.store.violations = Some(Arc::new(violations));
                self.store.envelope = Some(Arc::new(envelope));
                Ok(produced)
            }
            Stage::Goodness => {
                let view = self.shared_csr();
                let net = need(&self.store.network);
                // One healthy pass: its uniform ECMP is also resilience's
                // baseline scale.
                let pass = csr::with_scratch(|scratch| csr::uniform_healthy(&view, scratch));
                let resilience = (spec.resilience_samples > 0).then(|| {
                    failure_resilience_from(
                        &view,
                        pass.ecmp.throughput_scale(),
                        0.10,
                        spec.resilience_samples,
                        spec.seed,
                    )
                    .mean_retention
                });
                let good = goodness_from(net, &view, &pass, spec.seed);
                self.store.resilience = Some(resilience);
                self.store.good = Some(Arc::new(good));
                Ok(1)
            }
            Stage::Report => {
                let net = need(&self.store.network);
                let placement = need(&self.store.placement);
                let cabling = need(&self.store.cabling);
                let bundling = need(&self.store.bundling);
                let harness = need(&self.store.harness);
                let deployment = need(&self.store.deployment);
                let schedule = need(&self.store.schedule);
                let yields = need(&self.store.yields);
                let capex = need(&self.store.capex);
                let tco = need(&self.store.tco);
                let repair = need(&self.store.repair);
                let faults = self.store.faults.as_ref().expect(ARTIFACT).as_ref();
                let expansion = self.store.expansion.as_ref().expect(ARTIFACT).as_ref();
                let violations = need(&self.store.violations);
                let envelope = need(&self.store.envelope);
                let resilience = *self.store.resilience.as_ref().expect(ARTIFACT);
                let good = need(&self.store.good);

                let twin_errors = violations
                    .iter()
                    .filter(|v| v.severity == Severity::Error)
                    .count();
                let twin_warnings = violations.len() - twin_errors;

                let max_radix = net.switches().map(|s| s.radix).max().unwrap_or(0);
                let report = DeployabilityReport {
                    name: spec.name.clone(),
                    family: spec.topology.family().to_string(),
                    switches: net.switch_count(),
                    links: net.link_count(),
                    servers: net.server_count(),
                    racks: placement.rack_count() + cabling.sites.len(),
                    diameter: good.diameter,
                    mean_path: good.mean_server_distance,
                    bisection: good.bisection_per_server,
                    throughput_per_server: good.uniform_throughput_per_server,
                    path_diversity: good.min_edge_disjoint_paths,
                    spectral_gap: good.spectral_gap,
                    resilience,
                    capex: capex.total(),
                    cabling_fraction: capex.cabling_fraction(),
                    time_to_deploy: schedule.makespan,
                    labor: deployment.total_work(&spec.schedule.calib),
                    first_pass_yield: yields.first_pass_yield,
                    rework: yields.mean_rework,
                    day_one_cost: tco.day_one(),
                    lifetime_cost: tco.lifetime(),
                    cables: cabling.runs.len(),
                    cable_length: cabling.total_ordered_length(),
                    mean_cable_length: cabling.mean_routed_length(),
                    optical_fraction: cabling.optical_fraction(),
                    distinct_skus: cabling.distinct_skus(),
                    bundled_fraction: bundling.bundled_fraction(),
                    harness_fraction: harness.harness_fraction(),
                    bundle_skus: bundling.bundle_sku_count(),
                    max_tray_fill: cabling.max_tray_fill(),
                    unrealizable_links: cabling.failures.len(),
                    expansion_rewires: expansion.map(|c| c.rewiring_steps),
                    expansion_new_cables: expansion.map(|c| c.new_cables),
                    expansion_panels_touched: expansion.map(|c| c.panels_touched),
                    expansion_labor: expansion.map(|c| c.labor),
                    fault_worst_retention: faults.map(|f| f.worst_throughput_retention),
                    fault_mean_retention: faults.map(|f| f.mean_throughput_retention),
                    fault_resilience_gap: faults.map(|f| f.resilience_gap),
                    availability: repair.port_availability,
                    mttr: repair.mean_mttr,
                    unit_of_repair_ports: pd_lifecycle::repair::unit_of_repair_ports(
                        max_radix,
                        spec.repair.ports_per_linecard,
                    ),
                    distinct_radixes: net.distinct_radixes().len(),
                    distinct_speeds: net.distinct_speeds().len(),
                    twin_errors,
                    twin_warnings,
                    envelope_breaks: envelope.len(),
                };
                self.store.report = Some(Arc::new(report));
                Ok(1)
            }
        }
    }
}

/// Runs the spec's expansion probe. Only the flat-ToR probe mutates the
/// network, and it copies a shared network first (`Arc::make_mut`), so
/// snapshots and the generation cache keep the as-built one.
fn run_expansion_probe(
    spec: &DesignSpec,
    net: &mut Arc<Network>,
    hall: &Hall,
    placement: &Placement,
) -> Option<LifecycleComplexity> {
    let per_move = Hours::from_minutes(4.0);
    let per_pull = spec
        .schedule
        .calib
        .loose_cable_time(pd_geometry::Meters::new(20.0));
    match &spec.expansion {
        ExpansionProbe::None => None,
        ExpansionProbe::ClosPods {
            to_pods,
            indirection,
        } => {
            // Derive current pod structure from blocks with aggregation
            // switches.
            let mut pods = 0usize;
            let mut aggs_per_pod = 0usize;
            let mut pod_slots = Vec::new();
            for b in net.blocks() {
                let members = net.block_members(b);
                let aggs: Vec<_> = members
                    .iter()
                    .filter(|&&s| {
                        net.switch(s)
                            .map(|s| s.role == SwitchRole::Aggregation)
                            .unwrap_or(false)
                    })
                    .collect();
                if !aggs.is_empty()
                    && members.iter().any(|&s| {
                        net.switch(s)
                            .map(|s| s.role == SwitchRole::Tor)
                            .unwrap_or(false)
                    })
                {
                    pods += 1;
                    aggs_per_pod = aggs.len();
                    if let Some(slot) = placement.slot_of(*aggs[0]) {
                        pod_slots.push(slot);
                    }
                }
            }
            let spines: Vec<_> = net
                .switches()
                .filter(|s| s.role == SwitchRole::Spine)
                .collect();
            if pods == 0 || spines.is_empty() || *to_pods <= pods {
                return None;
            }
            // A heterogeneous spine layer (e.g. a partially upgraded
            // fabric) bounds the expansion by its most port-constrained
            // member, so size the plan off the minimum radix.
            let spine_ports = spines
                .iter()
                .map(|s| usize::from(s.radix))
                .min()
                .unwrap_or(0);
            let spine_count = spines.len();
            // Panel slots: centre slots (where the sites would be).
            let panel_slots: Vec<_> = (0..spine_count.min(4))
                .filter_map(|i| hall.slots().get(hall.slot_count() / 2 + i).map(|s| s.id))
                .collect();
            let new_pod_slots: Vec<_> = (0..(*to_pods - pods).max(1))
                .filter_map(|i| {
                    hall.slots()
                        .get(hall.slot_count().saturating_sub(1 + i))
                        .map(|s| s.id)
                })
                .collect();
            let plan = clos_add_pods(&ClosExpansionParams {
                old_pods: pods,
                new_pods: *to_pods,
                aggs_per_pod,
                spines: spine_count,
                spine_ports,
                indirection: *indirection,
                panel_slots,
                pod_slots,
                new_pod_slots,
            });
            Some(plan.complexity(hall, per_move, per_pull))
        }
        ExpansionProbe::FlatTors { count, seed } => {
            let (degree, servers) = net
                .switches()
                .find(|s| s.role == SwitchRole::FlatTor)
                .map(|s| (usize::from(s.radix - s.server_ports), s.server_ports))?;
            let net = Arc::make_mut(net);
            let mut total = pd_lifecycle::RewirePlan::default();
            for i in 0..*count {
                let (_, plan) = flat_add_tor(
                    net,
                    |s| placement.slot_of(s),
                    &FlatExpansionParams {
                        degree,
                        seed: seed.wrapping_add(i as u64),
                        servers_per_tor: servers,
                    },
                );
                total.moves.extend(plan.moves);
                total.new_cables += plan.new_cables;
                total.abandoned_cables += plan.abandoned_cables;
            }
            Some(total.complexity(hall, per_move, per_pull))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_geometry::Gbps;

    fn fat_tree_spec() -> DesignSpec {
        let mut s = DesignSpec::new(
            "ft4",
            TopologySpec::FatTree {
                k: 4,
                speed: Gbps::new(100.0),
            },
        );
        s.yields.trials = 5;
        s.repair.trials = 2;
        s
    }

    #[test]
    fn stage_order_and_names_are_consistent() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(stage.to_string(), stage.name());
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT, "stage names must be unique");
        // The documented invariant behind the Faults/Expansion ordering.
        assert!(Stage::Faults < Stage::Expansion);
    }

    #[test]
    fn partial_run_stops_and_resumes() {
        let spec = fat_tree_spec();
        let mut st = StageState::new(&spec);
        st.run_to(Stage::Place).unwrap();
        assert_eq!(st.completed(), Some(Stage::Place));
        assert!(st.network().is_some());
        assert!(st.placement().is_some());
        assert!(st.cabling().is_none(), "later stages must not have run");
        assert!(st.report().is_none());

        // Re-running at the same depth is a no-op; deepening resumes.
        st.run_to(Stage::Place).unwrap();
        st.run_to(Stage::Report).unwrap();
        assert_eq!(st.completed(), Some(Stage::Report));
        let ev = st.into_evaluation();
        assert_eq!(ev.report.servers, 16);
        assert_eq!(ev.harness.total_cables, ev.report.cables);
    }

    #[test]
    fn trace_records_each_stage_once() {
        let spec = fat_tree_spec();
        let trace = StageTrace::new();
        let mut st = StageState::new(&spec).traced(&trace);
        st.run_to(Stage::Cable).unwrap();
        for stage in [Stage::Generate, Stage::Validate, Stage::Place, Stage::Cable] {
            assert_eq!(trace.runs(stage), 1, "{stage}");
        }
        for stage in [Stage::Bundle, Stage::Schedule, Stage::Report] {
            assert_eq!(trace.runs(stage), 0, "{stage}");
        }
        // Artifact counts reflect real work.
        assert_eq!(trace.artifacts(Stage::Generate), 20 + 32); // switches + links
        assert!(trace.artifacts(Stage::Cable) > 0);
        assert_eq!(
            trace.artifacts(Stage::Validate),
            0,
            "no-op for generated nets"
        );

        st.run_to(Stage::Report).unwrap();
        assert_eq!(trace.runs(Stage::Cable), 1, "resume must not re-run");
        assert_eq!(trace.runs(Stage::Report), 1);
    }

    #[test]
    fn failed_stage_stays_pending_and_attributes_cleanly() {
        let mut spec = fat_tree_spec();
        spec.hall.rows = 1;
        spec.hall.slots_per_row = 2;
        let trace = StageTrace::new();
        let mut st = StageState::new(&spec).traced(&trace);
        let err = st.run_to(Stage::Report).unwrap_err();
        assert!(matches!(err, EvalError::Placement(_)));
        // Generate/Validate completed; Place failed and is not recorded.
        assert_eq!(st.completed(), Some(Stage::Validate));
        assert_eq!(trace.runs(Stage::Generate), 1);
        assert_eq!(trace.runs(Stage::Place), 0);
        // Ordinary (non-panic) failure clears the thread-local marker.
        assert_eq!(take_current_stage(), None);
        // Earlier artifacts remain readable for diagnostics.
        assert!(st.network().is_some());
    }

    #[test]
    fn panicking_stage_is_observable_via_thread_local() {
        let mut spec = fat_tree_spec();
        spec.schedule.technicians = 0; // trips Schedule::run's assert
        let spec = spec;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut st = StageState::new(&spec);
            st.run_to(Stage::Report)
        }));
        assert!(unwound.is_err());
        assert_eq!(take_current_stage(), Some(Stage::Schedule));
        // And the take cleared it.
        assert_eq!(take_current_stage(), None);
    }

    #[test]
    fn gen_cache_backed_state_hits_the_cache() {
        let spec = fat_tree_spec();
        let cache = ArtifactCache::new();
        let mut a = StageState::new(&spec).with_artifacts(&cache);
        a.run_to(Stage::Generate).unwrap();
        let mut b = StageState::new(&spec).with_artifacts(&cache);
        b.run_to(Stage::Generate).unwrap();
        assert_eq!(cache.generate().misses(), 1);
        assert_eq!(cache.generate().hits(), 1);
        assert_eq!(
            a.network().unwrap().switch_count(),
            b.network().unwrap().switch_count()
        );
    }

    #[test]
    fn adoption_reuses_every_tier_whose_inputs_match_byte_identically() {
        // Two specs differing only in the fault sweep (and name): the
        // second adopts every tier but Faults and Report, including the
        // Twin and Goodness tiers that come after the differing one.
        let base = fat_tree_spec();
        let mut swept = fat_tree_spec();
        swept.name = "ft4-faults".into();
        swept.fault_scenarios.scenarios = 3;

        let cache = ArtifactCache::new();
        let trace_cold = StageTrace::new();
        let mut cold = StageState::new(&base)
            .with_artifacts(&cache)
            .traced(&trace_cold);
        cold.run_to(Stage::Report).unwrap();
        let before = cache.tier_stats();
        let trace_warm = StageTrace::new();
        let mut warm = StageState::new(&swept)
            .with_artifacts(&cache)
            .traced(&trace_warm);
        warm.run_to(Stage::Report).unwrap();

        // The warm run reused every tier the fault sweep does not feed…
        let after = cache.tier_stats();
        let delta = |stage: Stage| {
            let i = TIERS.iter().position(|&t| t == stage).unwrap();
            (
                after[i].hits - before[i].hits,
                after[i].misses - before[i].misses,
            )
        };
        assert_eq!(delta(Stage::Place), (1, 0));
        assert_eq!(delta(Stage::Cost), (1, 0));
        assert_eq!(delta(Stage::Repair), (1, 0));
        assert_eq!(delta(Stage::Faults), (0, 1), "fault keys differ");
        assert_eq!(delta(Stage::Twin), (1, 0));
        assert_eq!(delta(Stage::Goodness), (1, 0));
        assert_eq!(delta(Stage::Report), (0, 1), "probed once, first");
        assert_eq!(
            cache.generate().hits(),
            0,
            "adoption skipped Generate entirely"
        );

        // …and replayed the adopted stages' accounting, so the trace is
        // indistinguishable from a cold run's counts.
        for stage in Stage::ALL {
            assert_eq!(trace_warm.runs(stage), 1, "{stage:?} recorded once");
            if stage != Stage::Faults {
                assert_eq!(
                    trace_warm.artifacts(stage),
                    trace_cold.artifacts(stage),
                    "{stage:?} artifact count replays identically"
                );
            }
        }

        // Byte-identity: the adopted evaluation equals a cache-free one.
        let warm_ev = warm.into_evaluation();
        let mut plain = StageState::new(&swept);
        plain.run_to(Stage::Report).unwrap();
        assert_eq!(warm_ev.report, plain.into_evaluation().report);
    }

    #[test]
    fn warm_adoption_shares_artifacts_instead_of_copying() {
        // The bundle size feeds Bundle and the tiers built on it; Repair
        // and Twin read none of them.
        let cold_spec = fat_tree_spec();
        let mut warm_spec = fat_tree_spec();
        warm_spec.min_bundle_size += 1;

        let cache = ArtifactCache::new();
        let mut cold = StageState::new(&cold_spec).with_artifacts(&cache);
        cold.run_to(Stage::Report).unwrap();
        let cold = cold.into_evaluation();
        let mut warm = StageState::new(&warm_spec).with_artifacts(&cache);
        warm.run_to(Stage::Report).unwrap();
        let warm = warm.into_evaluation();

        assert!(Arc::ptr_eq(&cold.network, &warm.network));
        assert!(Arc::ptr_eq(&cold.placement, &warm.placement));
        assert!(Arc::ptr_eq(&cold.cabling, &warm.cabling));
        assert!(
            !Arc::ptr_eq(&cold.bundling, &warm.bundling),
            "Bundle re-ran"
        );
        assert!(Arc::ptr_eq(&cold.repair, &warm.repair));
        assert!(Arc::ptr_eq(&cold.violations, &warm.violations));
    }

    #[test]
    fn a_state_resumed_mid_tier_still_adopts_that_tier() {
        let spec = fat_tree_spec();
        let cache = ArtifactCache::new();
        let mut cold = StageState::new(&spec).with_artifacts(&cache);
        cold.run_to(Stage::Place).unwrap();
        let hits = |tier: Stage| {
            let i = TIERS.iter().position(|&t| t == tier).unwrap();
            cache.tier_stats()[i].hits
        };

        // The search engine's rung A then rung B: Generate runs (a
        // generation-cache hit), then Validate and Place are adopted.
        let trace = StageTrace::new();
        let mut resumed = StageState::new(&spec).with_artifacts(&cache).traced(&trace);
        resumed.run_to(Stage::Generate).unwrap();
        resumed.run_to(Stage::Place).unwrap();
        assert_eq!(hits(Stage::Place), 1);
        assert_eq!(cache.generate().hits(), 1);
        assert_eq!(trace.runs(Stage::Generate), 1);
        assert_eq!(trace.runs(Stage::Place), 1);
        assert_eq!(trace.nanos(Stage::Place), 0, "adopted, not run");
        assert!(std::ptr::eq(
            resumed.placement().unwrap(),
            cold.placement().unwrap()
        ));

        // The same after a partial run stops inside the Cost tier.
        cold.run_to(Stage::Report).unwrap();
        let mut partial = StageState::new(&spec).with_artifacts(&cache).traced(&trace);
        partial.run_to(Stage::Yield).unwrap();
        partial.run_to(Stage::Cost).unwrap();
        assert_eq!(hits(Stage::Cost), 1);
        assert_eq!(trace.nanos(Stage::Cost), 0, "Cost adopted after Yield");
        partial.run_to(Stage::Report).unwrap();
        assert_eq!(
            partial.into_evaluation().report,
            cold.into_evaluation().report
        );
    }

    /// A knob grid like the `knob-sweep` benchmark workload, plus one
    /// sibling per field that some but not all tiers read. Every report
    /// must equal a cache-free evaluation in any order and at any job
    /// count, and the knob-only specs must share the work their knobs do
    /// not feed.
    #[test]
    fn knob_grid_through_one_cache_matches_cache_free_evaluation() {
        use crate::batch::{evaluate_many_controlled, BatchControl, BatchOptions};
        use pd_topology::gen::JellyfishParams;

        let mut base = DesignSpec::new(
            "jf",
            TopologySpec::Jellyfish(JellyfishParams {
                tors: 24,
                network_degree: 6,
                servers_per_tor: 4,
                link_speed: pd_geometry::Gbps::new(100.0),
                seed: 3,
            }),
        );
        base.yields.trials = 4;
        base.repair.trials = 2;
        let mut specs = Vec::new();
        for use_bundles in [true, false] {
            for min_bundle_size in [2, 4] {
                for repair_trials in [1, 2] {
                    for yield_trials in [2, 4] {
                        let mut s = base.clone();
                        s.name = format!(
                            "jf-b{use_bundles}-m{min_bundle_size}-r{repair_trials}-y{yield_trials}"
                        );
                        s.use_bundles = use_bundles;
                        s.min_bundle_size = min_bundle_size;
                        s.repair.trials = repair_trials;
                        s.yields.trials = yield_trials;
                        specs.push(s);
                    }
                }
            }
        }
        let grid = specs.len();
        fn flat_tors(s: &mut DesignSpec) {
            s.expansion = ExpansionProbe::FlatTors { count: 2, seed: 5 };
        }
        let sibling = |name: &str, flip: fn(&mut DesignSpec)| {
            let mut s = base.clone();
            s.name = format!("jf-{name}");
            flip(&mut s);
            s
        };
        specs.extend([
            sibling("expansion", flat_tors),
            // Adopts the Twin tier above, whose network the probe grew.
            sibling("expansion-yields", |s| {
                flat_tors(s);
                s.yields.trials = 2;
            }),
            sibling("resilience", |s| s.resilience_samples = 2),
            sibling("faults", |s| s.fault_scenarios.scenarios = 2),
            sibling("technicians", |s| s.schedule.technicians += 1),
            sibling("calib", |s| {
                flat_tors(s);
                s.schedule.calib.pull_cable_per_meter = s.schedule.calib.pull_cable_per_meter * 2.0;
            }),
        ]);

        let plain: Vec<DeployabilityReport> = specs
            .iter()
            .map(|s| crate::pipeline::evaluate(s).unwrap().report)
            .collect();
        for jobs in [1, 2] {
            for reverse in [false, true] {
                let mut order: Vec<usize> = (0..specs.len()).collect();
                if reverse {
                    order.reverse();
                }
                let batch: Vec<DesignSpec> = order.iter().map(|&i| specs[i].clone()).collect();
                let cache = ArtifactCache::new();
                let results = evaluate_many_controlled(
                    &batch,
                    &BatchOptions::jobs(jobs),
                    &cache,
                    None,
                    &BatchControl::default(),
                );
                let evals: Vec<Evaluation> = results.into_iter().map(Result::unwrap).collect();
                for (ev, &i) in evals.iter().zip(&order) {
                    assert_eq!(
                        ev.report, plain[i],
                        "{} (jobs {jobs}, reverse {reverse})",
                        specs[i].name
                    );
                }
                if jobs > 1 {
                    continue;
                }
                // Serially, the first grid spec computes and the others
                // adopt: one Twin result for the whole grid, one Repair
                // result per repair trial count.
                let grid_evals: Vec<(&DesignSpec, &Evaluation)> = order
                    .iter()
                    .zip(&evals)
                    .filter(|(&i, _)| i < grid)
                    .map(|(&i, ev)| (&specs[i], ev))
                    .collect();
                let (first_spec, first) = grid_evals[0];
                for (spec, ev) in &grid_evals {
                    assert!(
                        Arc::ptr_eq(&ev.violations, &first.violations),
                        "{}",
                        spec.name
                    );
                    let same_repair = spec.repair.trials == first_spec.repair.trials;
                    assert_eq!(
                        Arc::ptr_eq(&ev.repair, &first.repair),
                        same_repair,
                        "{}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn flat_expansion_copies_a_shared_network_on_write() {
        use pd_topology::gen::JellyfishParams;

        fn shape(net: &Network) -> String {
            let switches: Vec<_> = net.switches().collect();
            let links: Vec<_> = net.links().collect();
            format!("{switches:?} {links:?}")
        }
        let mut probed = DesignSpec::new(
            "jf",
            TopologySpec::Jellyfish(JellyfishParams {
                tors: 24,
                network_degree: 6,
                servers_per_tor: 4,
                link_speed: pd_geometry::Gbps::new(100.0),
                seed: 2,
            }),
        );
        probed.yields.trials = 5;
        probed.repair.trials = 2;
        probed.expansion = ExpansionProbe::FlatTors { count: 2, seed: 5 };
        // Shares every key but Twin, Goodness and Report.
        let mut sibling = probed.clone();
        sibling.expansion = ExpansionProbe::None;
        let (a, b) = (probed.tier_keys().unwrap(), sibling.tier_keys().unwrap());
        assert_eq!(a[..7], b[..7]);

        let plain = |spec: &DesignSpec| crate::pipeline::evaluate(spec).unwrap();
        let (plain_probed, plain_sibling) = (plain(&probed), plain(&sibling));
        assert_ne!(
            plain_probed.network.switch_count(),
            plain_sibling.network.switch_count()
        );

        for order in [[&probed, &sibling], [&sibling, &probed]] {
            let cache = ArtifactCache::new();
            for spec in order {
                let mut st = StageState::new(spec).with_artifacts(&cache);
                st.run_to(Stage::Report).unwrap();
                let ev = st.into_evaluation();
                let expected = if std::ptr::eq(spec, &sibling) {
                    &plain_sibling
                } else {
                    &plain_probed
                };
                assert_eq!(
                    shape(&ev.network),
                    shape(&expected.network),
                    "{:?}",
                    spec.expansion
                );
                assert_eq!(ev.report, expected.report, "{:?}", spec.expansion);
            }
        }
    }

    #[test]
    fn custom_specs_bypass_adoption_but_keep_generate_routing() {
        let net = TopologySpec::FatTree {
            k: 4,
            speed: pd_geometry::Gbps::new(100.0),
        }
        .build()
        .unwrap();
        let mut spec = fat_tree_spec();
        spec.topology = TopologySpec::Custom(net);
        let cache = ArtifactCache::new();
        let mut st = StageState::new(&spec).with_artifacts(&cache);
        st.run_to(Stage::Report).unwrap();
        // Uncacheable: counted as a generation miss, nothing snapshotted.
        assert_eq!(cache.generate().misses(), 1);
        assert!(cache.tier_stats().iter().all(|t| t.entries == 0));
    }

    #[test]
    fn cancelled_token_stops_at_the_next_boundary() {
        let spec = fat_tree_spec();
        let token = CancelToken::new();
        let mut st = StageState::new(&spec).with_cancel(&token);
        st.run_to(Stage::Place).unwrap();
        token.cancel();
        let err = st.run_to(Stage::Report).unwrap_err();
        assert!(matches!(err, EvalError::Cancelled));
        // Nothing past Place ran; earlier artifacts stay readable; the
        // ordinary-error path cleared the thread-local marker.
        assert_eq!(st.completed(), Some(Stage::Place));
        assert!(st.placement().is_some() && st.cabling().is_none());
        assert_eq!(take_current_stage(), None);
    }

    #[test]
    fn expired_deadline_names_the_pending_stage() {
        let spec = fat_tree_spec();
        let mut st = StageState::new(&spec).with_deadline(Deadline::at(
            Instant::now() - std::time::Duration::from_millis(5),
        ));
        let err = st.run_to(Stage::Report).unwrap_err();
        match err {
            EvalError::TimedOut { stage, .. } => assert_eq!(stage, Stage::Generate),
            other => panic!("expected TimedOut, got {other}"),
        }
        assert_eq!(st.completed(), None, "no stage may run past the deadline");

        // A generous deadline never fires.
        let mut ok = StageState::new(&spec)
            .with_deadline(Deadline::after(std::time::Duration::from_secs(3600)));
        ok.run_to(Stage::Report).unwrap();
    }

    #[test]
    fn chaos_cancel_interrupts_midway_with_clean_prefix() {
        let spec = fat_tree_spec();
        let plan = ChaosPlan::new().inject("ft4", Stage::Cable, crate::chaos::Injection::Cancel);
        let token = CancelToken::new();
        let mut st = StageState::new(&spec).with_cancel(&token).with_chaos(&plan);
        let err = st.run_to(Stage::Report).unwrap_err();
        assert!(matches!(err, EvalError::Cancelled));
        assert_eq!(st.completed(), Some(Stage::Place));
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn heartbeat_is_stamped_at_boundaries() {
        let spec = fat_tree_spec();
        let heartbeat = AtomicU64::new(0);
        let mut st = StageState::new(&spec).with_heartbeat(&heartbeat);
        st.run_to(Stage::Place).unwrap();
        assert!(
            heartbeat.load(Ordering::Acquire) >= 1,
            "stamped and clamped ≥ 1"
        );
    }

    #[test]
    fn quiet_state_skips_counts_but_keeps_trace() {
        let spec = fat_tree_spec();
        let trace = StageTrace::new();
        let mut st = StageState::new(&spec).traced(&trace).quiet(true);
        st.run_to(Stage::Place).unwrap();
        // The attached trace still observes the runs (it is diagnostic);
        // the registry count assertions live in the batch retry tests,
        // since the global registry is shared across the whole test binary.
        assert_eq!(trace.runs(Stage::Place), 1);
    }
}
