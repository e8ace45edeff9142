//! # pd-core — the physical-deployability evaluation framework
//!
//! This crate is the reproduction of the paper's central proposal: a way to
//! judge a datacenter network design on **physical deployability** — "is a
//! design feasible to deploy within the constraints of the physical
//! environment in a datacenter, at scale and at reasonable cost?" (§1) —
//! side by side with the traditional abstract-goodness metrics.
//!
//! * [`design`] — a declarative [`design::DesignSpec`]: topology family +
//!   parameters, hall, placement strategy, cabling policy, and the
//!   lifecycle probes to run.
//! * [`pipeline`] — the end-to-end evaluation: generate → place → route →
//!   bundle → cost → schedule → yield → lifecycle → twin-validate. Fully
//!   deterministic given the spec's seeds.
//! * [`stages`] — the typed stage graph behind the pipeline:
//!   [`stages::StageState`] runs named [`stages::Stage`]s to any depth
//!   (partial evaluation with resume), attributes panics to the stage that
//!   died, and can record per-stage wall time into a
//!   [`stages::StageTrace`].
//! * [`artifacts`] — the tiered [`artifacts::ArtifactCache`]: per-tier
//!   cache keys over only what each tier's stages read
//!   ([`design::DesignSpec::tier_keys`]), so evaluations *adopt* every
//!   cached tier whose inputs match and re-run only the stages that read
//!   what differs.
//! * [`batch`] — [`batch::evaluate_many_controlled`]: the same pipeline
//!   fanned out over a scoped worker pool with a shared
//!   [`artifacts::ArtifactCache`].
//!   Results are byte-identical to serial evaluation at any job
//!   count; see `docs/ARCHITECTURE.md` for the determinism contract.
//! * [`report`] — [`report::DeployabilityReport`], the §5.4 metric suite
//!   (time-to-deploy, cost-to-deploy, first-pass yield, rewiring steps,
//!   links-per-panel, locality, diversity support, unit of repair,
//!   envelope fit) plus plain-text/markdown rendering.
//! * [`resilience`] — cancellation tokens, deadlines, and retry policy
//!   hardening the engine itself: [`resilience::CancelToken`] and
//!   [`resilience::Deadline`] are checked at every stage boundary, and the
//!   batch engine adds watchdog supervision and seeded bounded-backoff
//!   retry ([`batch::BatchControl`]).
//! * [`chaos`] — a deterministic fault-injection harness
//!   ([`chaos::ChaosPlan`]: seeded panics/delays/cancellations at chosen
//!   (spec, stage) points) that the soak tests drive to prove the
//!   partial-result contracts hold under fire.
//! * [`score`] — weighted scoring and Pareto fronts over report sets.
//! * [`compare`] — constructors that normalize every topology family to a
//!   comparable server count, for the paper's §4.2 question ("why aren't
//!   expanders in wide use?") as experiment E6, and
//!   [`compare::comparison_matrix`], which evaluates a spec set through the
//!   batch engine into a rendered side-by-side matrix.
//!
//! # Evaluating designs
//!
//! One design goes through [`evaluate`]; a batch goes through
//! [`batch::evaluate_many_controlled`], which uses every core by default
//! and returns results in spec order:
//!
//! ```
//! use pd_core::batch::{evaluate_many_controlled, BatchOptions};
//! use pd_core::{evaluate, ArtifactCache, BatchControl, DesignSpec, TopologySpec};
//! use pd_geometry::Gbps;
//!
//! let mut spec = DesignSpec::new(
//!     "demo",
//!     TopologySpec::FatTree { k: 4, speed: Gbps::new(100.0) },
//! );
//! spec.yields.trials = 5; // keep the doctest quick
//! spec.repair.trials = 2;
//!
//! // Serial: one spec, one report.
//! let one = evaluate(&spec).expect("pipeline");
//! assert_eq!(one.report.servers, 16);
//!
//! // Batch: a seed sweep over the same topology generates the network
//! // once (the cache's Generate tier) and evaluates the rest in parallel.
//! let sweep: Vec<DesignSpec> = (1..=4)
//!     .map(|seed| {
//!         let mut s = spec.clone();
//!         s.seed = seed;
//!         s
//!     })
//!     .collect();
//! let results = evaluate_many_controlled(
//!     &sweep,
//!     &BatchOptions::default(),
//!     &ArtifactCache::new(),
//!     None, // no per-stage trace
//!     &BatchControl::default(),
//! );
//! assert!(results.iter().all(|r| r.is_ok()));
//! assert_eq!(results[0].as_ref().unwrap().report, one.report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod batch;
pub mod chaos;
pub mod compare;
pub mod design;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod score;
pub mod stages;

pub use artifacts::ArtifactCache;
pub use batch::{evaluate_many_controlled, BatchControl, BatchOptions};
pub use design::{DesignSpec, ExpansionProbe, TopologySpec};
pub use pipeline::{evaluate, EvalError, Evaluation};
pub use report::DeployabilityReport;
pub use resilience::{CancelToken, Deadline, RetryPolicy, WatchdogConfig};
pub use score::{pareto_front, pareto_front_points, weighted_score, Weights};
pub use stages::{Stage, StageState, StageTrace};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::artifacts::ArtifactCache;
    pub use crate::batch::{evaluate_many_controlled, BatchControl, BatchOptions};
    pub use crate::compare;
    pub use crate::design::{DesignSpec, ExpansionProbe, TopologySpec};
    pub use crate::pipeline::{evaluate, EvalError, Evaluation};
    pub use crate::report::DeployabilityReport;
    pub use crate::resilience::{CancelToken, Deadline, RetryPolicy, WatchdogConfig};
    pub use crate::score::{pareto_front, pareto_front_points, weighted_score, Weights};
    pub use crate::stages::{Stage, StageState, StageTrace};
    pub use pd_cabling::{CablingPolicy, IndirectionKind};
    pub use pd_costing::{ScheduleParams, YieldParams};
    pub use pd_geometry::{Dollars, Gbps, Hours, Meters};
    pub use pd_physical::{HallSpec, PlacementStrategy};
    pub use pd_topology::gen as topo_gen;
    pub use pd_topology::{Network, TrafficMatrix};
}
