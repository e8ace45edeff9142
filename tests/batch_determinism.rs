//! Determinism regression for the parallel batch engine.
//!
//! The contract `docs/ARCHITECTURE.md` states: fixed seeds ⇒ byte-identical
//! reports, preserved under any `--jobs` count. These tests pin it by
//! serializing every report to JSON and comparing the bytes between a
//! serial run, an 8-way parallel run, and repeated runs.

use physnet::core::batch::{evaluate_many_controlled, ArtifactCache, BatchControl, BatchOptions};
use physnet::prelude::*;

fn quick(name: &str, topo: TopologySpec, seed: u64) -> DesignSpec {
    let mut s = DesignSpec::new(name, topo);
    s.yields.trials = 10;
    s.repair.trials = 3;
    s.seed = seed;
    s
}

/// A batch shaped like a real sweep: several families, plus specs sharing
/// one topology sub-spec (exercising the memo cache), plus a probe.
fn batch() -> Vec<DesignSpec> {
    let speed = Gbps::new(100.0);
    let mut specs = vec![
        quick("ft", compare::fat_tree_near(128, speed), 1),
        quick("ls", compare::leaf_spine_near(128, speed), 2),
        quick("jf-a", compare::jellyfish_near(128, speed, 7), 3),
        quick("jf-b", compare::jellyfish_near(128, speed, 7), 4),
        quick("jf-c", compare::jellyfish_near(128, speed, 9), 5),
        quick("xp", compare::xpander_near(128, speed, 7), 6),
    ];
    specs[2].expansion = ExpansionProbe::FlatTors { count: 1, seed: 5 };
    specs
}

fn report_bytes(results: &[Result<Evaluation, physnet::core::pipeline::EvalError>]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            r.as_ref()
                .expect("evaluation succeeded")
                .report
                .to_json()
                .to_string()
        })
        .collect()
}

#[test]
fn job_count_does_not_change_reports() {
    let specs = batch();
    let serial = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(1),
        &ArtifactCache::new(),
        None,
        &BatchControl::default(),
    );
    let parallel = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(8),
        &ArtifactCache::new(),
        None,
        &BatchControl::default(),
    );
    assert_eq!(report_bytes(&serial), report_bytes(&parallel));
}

#[test]
fn repeated_parallel_runs_are_stable() {
    let specs = batch();
    let first = report_bytes(&evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(8),
        &ArtifactCache::new(),
        None,
        &BatchControl::default(),
    ));
    let second = report_bytes(&evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(8),
        &ArtifactCache::new(),
        None,
        &BatchControl::default(),
    ));
    assert_eq!(first, second);
}

#[test]
fn cached_generation_does_not_change_reports() {
    let specs = batch();
    let cached = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(4),
        &ArtifactCache::new(),
        None,
        &BatchControl::default(),
    );
    // `evaluate` runs one spec with no cache at all.
    let uncached: Vec<_> = specs.iter().map(evaluate).collect();
    assert_eq!(report_bytes(&cached), report_bytes(&uncached));
}

#[test]
fn shared_topologies_generate_once() {
    let specs = batch();
    let cache = ArtifactCache::new();
    let results = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(8),
        &cache,
        None,
        &BatchControl::default(),
    );
    assert!(results.iter().all(Result::is_ok));
    // 5 distinct topology sub-specs across 6 designs: jf-a and jf-b share.
    // (They differ in seed, which the Place tier consumes, so neither can
    // adopt the other's artifacts and both reach the generation cache.)
    assert_eq!(cache.generate().len(), 5);
    assert_eq!(cache.generate().misses(), 5);
    assert_eq!(cache.generate().hits(), 1);
}
