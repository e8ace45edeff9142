//! Deterministic chaos harness for the evaluation pipeline.
//!
//! A [`ChaosPlan`] injects failures — panics, artificial stage delays,
//! forced cancellations — at chosen `(spec, stage)` points through the
//! stage executor's boundary hook (`StageState::with_chaos`). Because the
//! injection points are data (picked up front, optionally from a seed)
//! rather than random at runtime, a chaos test is reproducible: the same
//! plan fires at the same points every run, so tests can assert exact
//! invariants — spec-order slots, byte-identical surviving reports,
//! correct JSONL resume — instead of "it usually survives".
//!
//! The hook fires at the *boundary before* the named stage runs, after the
//! heartbeat stamp and with the current-stage cell already set, so an
//! injected panic is attributed to the stage it targets exactly like a
//! real stage panic would be.
//!
//! This module is part of the public API (not `#[cfg(test)]`) so
//! integration tests and downstream soak harnesses can drive it; nothing
//! in the production path constructs a plan.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use pd_topology::gen::SplitMix64;

use crate::resilience::CancelToken;
use crate::stages::Stage;

/// What to inject at a chaos point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Panic at the stage boundary (exercises `catch_unwind` isolation and
    /// `EvalError::Panicked` stage attribution).
    Panic,
    /// Sleep for the given duration before the stage runs (exercises
    /// deadlines and the watchdog's stall detection).
    Delay(Duration),
    /// Cancel the evaluation's token (exercises `EvalError::Cancelled`
    /// and partial-batch contracts). No-op if the evaluation runs without
    /// a token.
    Cancel,
}

/// One planned injection point: fire `injection` when `spec` reaches the
/// boundary before `stage`.
#[derive(Debug)]
pub struct ChaosPoint {
    /// Spec name the point targets (exact match).
    pub spec: String,
    /// Stage boundary at which to fire.
    pub stage: Stage,
    /// The failure to inject.
    pub injection: Injection,
    /// Fire at most once (so a retry of the same spec passes through).
    pub once: bool,
    fired: AtomicBool,
}

/// A deterministic set of failure injections, shareable across batch
/// workers (`&self` methods only; interior atomics track once-semantics).
#[derive(Debug, Default)]
pub struct ChaosPlan {
    points: Vec<ChaosPoint>,
    fired_total: AtomicUsize,
}

impl ChaosPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an injection that fires every time `spec` reaches the boundary
    /// before `stage` (so every retry attempt hits it too).
    pub fn inject(mut self, spec: &str, stage: Stage, injection: Injection) -> Self {
        self.points.push(ChaosPoint {
            spec: spec.to_string(),
            stage,
            injection,
            once: false,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Adds an injection that fires only the first time its point is
    /// reached — the shape for "fail once, then let the retry succeed".
    pub fn inject_once(mut self, spec: &str, stage: Stage, injection: Injection) -> Self {
        self.points.push(ChaosPoint {
            spec: spec.to_string(),
            stage,
            injection,
            once: true,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// A seeded plan of `count` forced cancellations at deterministic
    /// (spec, stage) points drawn from `spec_names`. Equal seeds give
    /// equal plans; distinct draws target distinct specs until the names
    /// run out (so a soak test knows exactly which slots must survive).
    pub fn seeded_cancellations(seed: u64, spec_names: &[&str], count: usize) -> Self {
        Self::seeded(seed, spec_names, count, |_| Injection::Cancel)
    }

    /// A seeded plan mixing panics and cancellations (alternating by
    /// draw), for soak tests that want both failure classes in one run.
    pub fn seeded_mixed(seed: u64, spec_names: &[&str], count: usize) -> Self {
        Self::seeded(seed, spec_names, count, |i| {
            if i % 2 == 0 {
                Injection::Cancel
            } else {
                Injection::Panic
            }
        })
    }

    fn seeded(
        seed: u64,
        spec_names: &[&str],
        count: usize,
        pick: impl Fn(usize) -> Injection,
    ) -> Self {
        let mut plan = Self::new();
        if spec_names.is_empty() {
            return plan;
        }
        let mut state = seed;
        let mut remaining: Vec<&str> = spec_names.to_vec();
        for i in 0..count.min(spec_names.len()) {
            state = SplitMix64::new(state).next_u64();
            let spec = remaining.remove(state as usize % remaining.len());
            state = SplitMix64::new(state).next_u64();
            // Skip Generate (index 0): cached generation can satisfy the
            // first boundary without running it, and targeting it would
            // make "which slots die" depend on cache state.
            let stage = Stage::ALL[1 + state as usize % (Stage::COUNT - 1)];
            plan = plan.inject(spec, stage, pick(i));
        }
        plan
    }

    /// The planned points (tests use this to know which slots must fail).
    pub fn points(&self) -> &[ChaosPoint] {
        &self.points
    }

    /// How many injections have fired so far.
    pub fn fired(&self) -> usize {
        self.fired_total.load(Ordering::Relaxed)
    }

    /// Whether the plan targets `(spec, stage)` at all (fired or not).
    pub fn targets(&self, spec: &str, stage: Stage) -> bool {
        self.points
            .iter()
            .any(|p| p.stage == stage && p.spec == spec)
    }

    /// Whether the plan targets `spec` at any stage.
    pub fn targets_spec(&self, spec: &str) -> bool {
        self.points.iter().any(|p| p.spec == spec)
    }

    /// The stage-boundary hook: fires any matching injections. Called by
    /// the stage executor with the current-stage cell set, so an injected
    /// panic is attributed to `stage`. Panics (by design) on a matching
    /// [`Injection::Panic`].
    pub fn apply(&self, spec: &str, stage: Stage, cancel: Option<&CancelToken>) {
        for point in &self.points {
            if point.stage != stage || point.spec != spec {
                continue;
            }
            if point.once && point.fired.swap(true, Ordering::AcqRel) {
                continue;
            }
            if !point.once {
                point.fired.store(true, Ordering::Release);
            }
            self.fired_total.fetch_add(1, Ordering::Relaxed);
            match point.injection {
                Injection::Panic => {
                    panic!("chaos: injected panic at stage {}", stage.name())
                }
                Injection::Delay(d) => std::thread::sleep(d),
                Injection::Cancel => {
                    if let Some(token) = cancel {
                        token.cancel();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = ChaosPlan::new();
        plan.apply("anything", Stage::Place, None);
        assert_eq!(plan.fired(), 0);
        assert!(plan.points().is_empty());
    }

    #[test]
    fn cancel_injection_cancels_only_the_matching_point() {
        let plan = ChaosPlan::new().inject("victim", Stage::Cost, Injection::Cancel);
        let token = CancelToken::new();

        plan.apply("victim", Stage::Place, Some(&token));
        assert!(!token.is_cancelled(), "wrong stage must not fire");
        plan.apply("bystander", Stage::Cost, Some(&token));
        assert!(!token.is_cancelled(), "wrong spec must not fire");

        plan.apply("victim", Stage::Cost, Some(&token));
        assert!(token.is_cancelled());
        assert_eq!(plan.fired(), 1);

        // Without a token the same point is a no-op rather than a panic.
        plan.apply("victim", Stage::Cost, None);
        assert_eq!(plan.fired(), 2, "non-once points keep firing");
    }

    #[test]
    fn once_points_fire_exactly_once() {
        let plan = ChaosPlan::new().inject_once("v", Stage::Place, Injection::Cancel);
        let a = CancelToken::new();
        let b = CancelToken::new();
        plan.apply("v", Stage::Place, Some(&a));
        plan.apply("v", Stage::Place, Some(&b));
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled(), "second pass (a retry) must sail through");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic at stage place")]
    fn panic_injection_panics_with_the_stage_name() {
        let plan = ChaosPlan::new().inject("v", Stage::Place, Injection::Panic);
        plan.apply("v", Stage::Place, None);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_hit_distinct_specs() {
        let names = ["a", "b", "c", "d", "e"];
        let p1 = ChaosPlan::seeded_cancellations(42, &names, 3);
        let p2 = ChaosPlan::seeded_cancellations(42, &names, 3);
        assert_eq!(p1.points().len(), 3);
        let key = |p: &ChaosPlan| -> Vec<(String, Stage)> {
            p.points()
                .iter()
                .map(|pt| (pt.spec.clone(), pt.stage))
                .collect()
        };
        assert_eq!(key(&p1), key(&p2), "equal seeds give equal plans");

        let mut specs: Vec<_> = p1.points().iter().map(|p| p.spec.clone()).collect();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), 3, "distinct draws target distinct specs");
        assert!(p1.points().iter().all(|p| p.stage != Stage::Generate));

        let p3 = ChaosPlan::seeded_cancellations(43, &names, 3);
        assert_ne!(key(&p1), key(&p3), "different seeds should differ");

        // Count is clamped to the available specs; empty names are fine.
        assert_eq!(
            ChaosPlan::seeded_cancellations(1, &names, 99)
                .points()
                .len(),
            5
        );
        assert!(ChaosPlan::seeded_cancellations(1, &[], 3)
            .points()
            .is_empty());

        let mixed = ChaosPlan::seeded_mixed(7, &names, 4);
        assert!(mixed
            .points()
            .iter()
            .any(|p| p.injection == Injection::Cancel));
        assert!(mixed
            .points()
            .iter()
            .any(|p| p.injection == Injection::Panic));
    }

    #[test]
    fn seeded_plans_hit_the_recorded_points() {
        // Recorded before the injection-point mixer moved to
        // `SplitMix64::next_u64`; a mixer change would move these targets.
        use Injection::{Cancel, Panic};
        use Stage::{Cost, Expansion, Faults, Schedule};
        fn key(p: &ChaosPlan) -> Vec<(&str, Stage, Injection)> {
            p.points()
                .iter()
                .map(|pt| (pt.spec.as_str(), pt.stage, pt.injection))
                .collect()
        }
        let names = ["a", "b", "c", "d", "e", "f"];
        assert_eq!(
            key(&ChaosPlan::seeded_cancellations(7, &names, 4)),
            [
                ("d", Faults, Cancel),
                ("b", Faults, Cancel),
                ("e", Schedule, Cancel),
                ("f", Cost, Cancel),
            ]
        );
        assert_eq!(
            key(&ChaosPlan::seeded_mixed(7, &names, 4)),
            [
                ("d", Faults, Cancel),
                ("b", Faults, Panic),
                ("e", Schedule, Cancel),
                ("f", Cost, Panic),
            ]
        );
        assert_eq!(
            key(&ChaosPlan::seeded_cancellations(0xC0FFEE, &names, 4)),
            [
                ("e", Expansion, Cancel),
                ("c", Schedule, Cancel),
                ("d", Cost, Cancel),
                ("b", Expansion, Cancel),
            ]
        );
        assert_eq!(
            key(&ChaosPlan::seeded_mixed(0xC0FFEE, &names, 4)),
            [
                ("e", Expansion, Cancel),
                ("c", Schedule, Panic),
                ("d", Cost, Cancel),
                ("b", Expansion, Panic),
            ]
        );
    }

    #[test]
    fn targets_reports_planned_points() {
        let plan = ChaosPlan::new().inject("v", Stage::Twin, Injection::Delay(Duration::ZERO));
        assert!(plan.targets("v", Stage::Twin));
        assert!(plan.targets_spec("v"));
        assert!(!plan.targets("v", Stage::Cost));
        assert!(!plan.targets_spec("w"));
    }
}
