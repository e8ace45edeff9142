//! Cross-spec tier-reuse determinism for the tiered artifact cache.
//!
//! The contract (`docs/ARCHITECTURE.md`, "Caching"): adopting cached
//! stage artifacts must be invisible in output bytes. These tests drive
//! the shape the cache exists for — a fault sweep over one placed design,
//! where the specs differ only in their fault ensemble, so every tier but
//! Faults and Report has the same key — and pin byte-identity across job
//! counts, cache temperature, and cache bounding, while asserting the
//! reuse actually happened (nonzero Place-tier hits).

use std::sync::Arc;

use physnet::core::artifacts::TierStats;
use physnet::core::batch::{evaluate_many_controlled, ArtifactCache, BatchControl, BatchOptions};
use physnet::core::pipeline::EvalError;
use physnet::core::stages::Stage;
use physnet::prelude::*;
use physnet::search::prelude::*;

/// A fault sweep: one fat-tree design evaluated under increasing fault
/// ensembles. Everything the Place/Cable/Bundle/Schedule/Cost/Repair/
/// Twin/Goodness tiers read is identical; only the Faults and Report tier
/// keys differ.
fn fault_sweep() -> Vec<DesignSpec> {
    (0..4)
        .map(|i| {
            let mut s = DesignSpec::new(
                format!("ft-sweep-{i}"),
                compare::fat_tree_near(128, Gbps::new(100.0)),
            );
            s.yields.trials = 10;
            s.repair.trials = 3;
            s.fault_scenarios.scenarios = i;
            s
        })
        .collect()
}

fn report_bytes(results: &[Result<Evaluation, EvalError>]) -> Vec<String> {
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

fn stat(cache: &ArtifactCache, stage: Stage) -> TierStats {
    cache
        .tier_stats()
        .into_iter()
        .find(|t| t.stage == stage)
        .expect("stage is a tier")
}

#[test]
fn fault_sweep_reuses_the_prefix_and_is_byte_identical_across_job_counts() {
    let specs = fault_sweep();
    let serial_cache = ArtifactCache::new();
    let serial = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(1),
        &serial_cache,
        None,
        &BatchControl::default(),
    );
    let parallel_cache = ArtifactCache::new();
    let parallel = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(8),
        &parallel_cache,
        None,
        &BatchControl::default(),
    );
    assert_eq!(report_bytes(&serial), report_bytes(&parallel));

    // Serial execution is deterministic in cache terms too: the first
    // spec misses everywhere, the other three adopt every tier their
    // fault ensembles do not feed, each hit credited to its own tier.
    assert_eq!(stat(&serial_cache, Stage::Place).hits, 3);
    assert_eq!(stat(&serial_cache, Stage::Repair).hits, 3);
    assert_eq!(stat(&serial_cache, Stage::Faults).hits, 0);
    // Parallel scheduling may race specs past each other, but reuse must
    // still happen (the work-stealing engine keeps spec order roughly
    // serial for a four-spec batch; at minimum the counters move).
    let p = stat(&parallel_cache, Stage::Place);
    assert!(p.hits + p.misses >= specs.len(), "every spec probes");
}

#[test]
fn warm_cache_reproduces_cold_bytes() {
    let specs = fault_sweep();
    let cache = ArtifactCache::new();
    let cold = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(1),
        &cache,
        None,
        &BatchControl::default(),
    );
    let report_hits_before = stat(&cache, Stage::Report).hits;
    let warm = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(1),
        &cache,
        None,
        &BatchControl::default(),
    );
    assert_eq!(report_bytes(&cold), report_bytes(&warm));
    // The warm pass adopted at the Report tier — full evaluations served
    // entirely from the cache, not recomputed-and-compared.
    assert_eq!(
        stat(&cache, Stage::Report).hits,
        report_hits_before + specs.len()
    );
}

#[test]
fn bounded_cache_matches_unbounded_byte_for_byte() {
    let specs = fault_sweep();
    let unbounded = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(1),
        &ArtifactCache::new(),
        None,
        &BatchControl::default(),
    );
    let tiny = ArtifactCache::with_capacity(1);
    let bounded = evaluate_many_controlled(
        &specs,
        &BatchOptions::jobs(1),
        &tiny,
        None,
        &BatchControl::default(),
    );
    assert_eq!(report_bytes(&unbounded), report_bytes(&bounded));
    for t in tiny.tier_stats() {
        assert!(t.entries <= 1, "capacity 1 held: {t:?}");
    }
}

#[test]
fn search_records_are_unchanged_by_a_shared_warm_cache() {
    let cfg = SearchConfig {
        space: ParamSpace {
            families: vec![Family::FatTree, Family::LeafSpine],
            servers: vec![64, 128],
            speeds: vec![100.0],
            seeds: vec![7],
            halls: vec![HallVariant::Standard],
            media: vec![MediaPolicy::Standard],
            fault_scenarios: vec![0, 2],
            trials: TrialProfile {
                yield_trials: 3,
                repair_trials: 2,
            },
        },
        strategy: Strategy::Grid { budget: None },
        jobs: 1,
        ..SearchConfig::default()
    };
    let private = run_search(&cfg);

    // The same search against a shared, already-warm process cache (the
    // serve daemon's arrangement) must emit identical records.
    let shared = Arc::new(ArtifactCache::new());
    let mut warmed_cfg = cfg.clone();
    warmed_cfg.cache = Some(Arc::clone(&shared));
    let first = run_search(&warmed_cfg);
    let second = run_search(&warmed_cfg);
    assert_eq!(private.records, first.records);
    assert_eq!(private.records, second.records);
    // The warm rerun adopted full results rather than recomputing.
    let report_tier = shared
        .tier_stats()
        .into_iter()
        .find(|t| t.stage == Stage::Report)
        .expect("report tier");
    assert!(report_tier.hits > 0, "second search never hit the cache");
}
